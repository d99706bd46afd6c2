/**
 * @file
 * CancelToken: cooperative cancellation / deadline for long analyses.
 *
 * The paper's grid points ran for hours each; a runaway cell must become a
 * diagnosed per-cell failure, not a hung sweep. A token is polled from
 * Paragraph's bulk record loop every few tens of thousands of records (one
 * atomic load; the clock is only read when a deadline is armed), and
 * checkpoint() throws CancelledError when the token has been cancelled or
 * its deadline passed. The sweep engine arms one token per cell attempt;
 * callers can also chain their own token through AnalysisConfig::cancel.
 */

#ifndef PARAGRAPH_CORE_CANCEL_TOKEN_HPP
#define PARAGRAPH_CORE_CANCEL_TOKEN_HPP

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "support/panic.hpp"

namespace paragraph {
namespace core {

/** Thrown from CancelToken::checkpoint(); FatalError so existing handlers
 *  catch it, but distinguishable (a cancelled/timed-out run is final — the
 *  sweep engine never retries it). */
class CancelledError : public FatalError
{
  public:
    using FatalError::FatalError;
};

class CancelToken
{
  public:
    CancelToken() = default;

    /** Cancel from any thread; @p reason becomes the CancelledError text. */
    void
    cancel(std::string reason = "analysis cancelled")
    {
        reason_ = std::move(reason);
        cancelled_.store(true, std::memory_order_release);
    }

    /**
     * Async-signal-safe cancel: only flips the atomic flag, leaving the
     * construction-time reason text in place. The CLIs' SIGINT/SIGTERM
     * handlers call this so an interrupted sweep stops at the next 32k-
     * record poll with its finished cells stored, instead of dying
     * mid-write.
     */
    void
    cancelFromSignal() noexcept
    {
        cancelled_.store(true, std::memory_order_release);
    }

    /** Pre-arm the CancelledError text cancelFromSignal() will surface.
     *  Call from ordinary code (e.g. before installing the handler) —
     *  not from the signal handler itself. */
    void setReason(std::string reason) { reason_ = std::move(reason); }

    /** Arm a deadline @p seconds from now (call before sharing the token). */
    void
    setDeadline(double seconds)
    {
        deadlineSeconds_ = seconds;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
        hasDeadline_ = true;
    }

    /** Check another token too (the engine chains a caller's token behind
     *  its own per-cell deadline token). */
    void chain(const CancelToken *parent) { parent_ = parent; }

    /** True once cancelled or past the deadline. */
    bool
    expired() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        if (hasDeadline_ && std::chrono::steady_clock::now() > deadline_)
            return true;
        return parent_ && parent_->expired();
    }

    /** Throw CancelledError if expired; otherwise return. */
    void
    checkpoint() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            throw CancelledError(reason_);
        if (hasDeadline_ && std::chrono::steady_clock::now() > deadline_) {
            throw CancelledError(
                detail::formatMessage("cell deadline exceeded (%gs)",
                                      deadlineSeconds_));
        }
        if (parent_)
            parent_->checkpoint();
    }

  private:
    std::atomic<bool> cancelled_{false};
    bool hasDeadline_ = false;
    double deadlineSeconds_ = 0.0;
    std::chrono::steady_clock::time_point deadline_{};
    std::string reason_ = "analysis cancelled";
    const CancelToken *parent_ = nullptr;
};

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_CANCEL_TOKEN_HPP
