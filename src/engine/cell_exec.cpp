#include "engine/cell_exec.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/multi.hpp"
#include "core/shard.hpp"

namespace paragraph {
namespace engine {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Run @p nSegments segment jobs on up to @p shards threads, capturing the
 *  first exception (rethrown by the caller after joins). */
template <typename RunOne>
std::exception_ptr
runSegmentsParallel(size_t nSegments, unsigned shards, const RunOne &runOne)
{
    std::atomic<size_t> nextSeg{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    auto segmentWorker = [&]() {
        for (;;) {
            size_t s = nextSeg.fetch_add(1, std::memory_order_relaxed);
            if (s >= nSegments)
                return;
            try {
                runOne(s);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };
    unsigned nThreads =
        static_cast<unsigned>(std::min<size_t>(shards, nSegments));
    if (nThreads <= 1) {
        segmentWorker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(nThreads);
        for (unsigned t = 0; t < nThreads; ++t)
            threads.emplace_back(segmentWorker);
        for (std::thread &t : threads)
            t.join();
    }
    return firstError;
}

/**
 * Split-and-patch sharded analysis of a captured cell's trace (clamped to
 * maxInstructions): plan cuts (core::planPatchPlan), run the segments on up
 * to @p shards threads, each engine thread-private, and patch the exact
 * solo-equivalent result, replaying failed splices from the capture
 * (core/shard.hpp). The capture is resident, so decodeSeconds stays 0.
 * Returns false — leaving the result untouched — for a streamed input or
 * when the plan has no cuts; the caller then runs the unsharded pass.
 * Throws what a segment run throws (CancelledError included), for the
 * caller's attempts loop.
 */
bool
analyzeSharded(TraceRepository &repo, const core::AnalysisConfig &cfg,
               unsigned shards, SweepCell &cell)
{
    if (repo.streamingInput(cell.job.input))
        return false;
    std::shared_ptr<const trace::TraceBuffer> buffer =
        repo.get(cell.job.input);
    const trace::TraceRecord *records = buffer->records().data();
    size_t n = buffer->size();
    if (cfg.maxInstructions && cfg.maxInstructions < n)
        n = static_cast<size_t>(cfg.maxInstructions);
    core::PatchPlan plan = core::planPatchPlan(cfg, records, n, shards);
    if (plan.cuts.empty())
        return false;

    std::vector<size_t> bounds{0};
    bounds.insert(bounds.end(), plan.cuts.begin(), plan.cuts.end());
    bounds.push_back(n);
    const size_t nSegments = plan.segments();
    const bool modeled =
        cfg.branchPredictor != core::PredictorKind::Perfect;

    std::vector<core::SegmentRun> segments(nSegments);
    std::exception_ptr firstError =
        runSegmentsParallel(nSegments, shards, [&](size_t s) {
            core::runSegment(cfg, records + bounds[s],
                             bounds[s + 1] - bounds[s], segments[s],
                             modeled ? &plan.bits : nullptr,
                             modeled ? plan.branchBase[s] : 0);
        });
    if (firstError)
        std::rethrow_exception(firstError);

    auto replay = [&](core::Paragraph &engine, size_t s) {
        engine.processAll(records + bounds[s], bounds[s + 1] - bounds[s]);
    };
    core::PatchOutcome outcome;
    cell.result = core::patchSegments(
        cfg, segments, replay, modeled ? &plan.bits : nullptr,
        modeled ? &plan.branchBase : nullptr, &outcome);
    cell.shardSegments = static_cast<unsigned>(nSegments);
    cell.shardSpliced = outcome.spliced;
    cell.shardReplayed = outcome.replayed;
    return true;
}

} // namespace

size_t
configFootprint(const core::AnalysisConfig &cfg)
{
    size_t bytes = size_t(8) << 20;
    bytes += static_cast<size_t>(cfg.windowSize) * 8;
    bytes += cfg.profileBins * 40;
    return bytes;
}

void
runCellSolo(TraceRepository &repo, SweepCell &cell,
            const CellExecOptions &opt)
{
    unsigned maxAttempts = 1 + opt.maxRetries;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        cell.attempts = attempt;
        cell.decodeSeconds = 0.0;
        cell.shardSegments = 0;
        cell.shardSpliced = 0;
        cell.shardReplayed = 0;
        try {
            core::AnalysisConfig cfg = cell.job.config;
            core::CancelToken deadline;
            if (opt.cellDeadlineSeconds > 0.0) {
                deadline.setDeadline(opt.cellDeadlineSeconds);
                deadline.chain(cfg.cancel);
                cfg.cancel = &deadline;
            }
            auto cellStart = std::chrono::steady_clock::now();
            if (opt.shards <= 1 ||
                !analyzeSharded(repo, cfg, opt.shards, cell)) {
                // A fused pass of one over the input's block source.
                core::MultiOutcome out = std::move(
                    core::analyzeManyGuarded(*repo.blocks(cell.job.input),
                                             {cfg})
                        .front());
                cell.decodeSeconds = out.decodeSeconds;
                if (out.error)
                    std::rethrow_exception(out.error);
                cell.result = std::move(out.result);
            }
            cell.wallSeconds = secondsSince(cellStart);
            cell.minstrPerSec =
                cell.wallSeconds > 0.0
                    ? static_cast<double>(cell.result.instructions) / 1e6 /
                          cell.wallSeconds
                    : 0.0;
            cell.status = SweepCell::Status::Ok;
            cell.errorMessage.clear();
            break;
        } catch (const core::CancelledError &e) {
            // Deadline / cancellation: final, never retried —
            // a second attempt would just burn the deadline again.
            cell.status = SweepCell::Status::Failed;
            cell.errorMessage = e.what();
            cell.result = core::AnalysisResult();
            break;
        } catch (const std::exception &e) {
            cell.status = SweepCell::Status::Failed;
            cell.errorMessage = e.what();
            cell.result = core::AnalysisResult();
        }
    }
}

void
runFusedCells(TraceRepository &repo,
              const std::vector<SweepCell *> &cells,
              const CellExecOptions &opt,
              const std::function<void(size_t)> &finish)
{
    const std::string &input = cells.front()->job.input;

    std::deque<core::CancelToken> deadlines;
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.reserve(cells.size());
    for (SweepCell *cell : cells) {
        core::AnalysisConfig cfg = cell->job.config;
        if (opt.cellDeadlineSeconds > 0.0) {
            deadlines.emplace_back();
            deadlines.back().setDeadline(opt.cellDeadlineSeconds);
            deadlines.back().chain(cfg.cancel);
            cfg.cancel = &deadlines.back();
        }
        cfgs.push_back(std::move(cfg));
    }

    std::vector<core::MultiOutcome> outcomes;
    bool groupFailed = false;
    try {
        outcomes = core::analyzeManyGuarded(*repo.blocks(input), cfgs);
    } catch (const std::exception &) {
        groupFailed = true;
    }

    for (size_t k = 0; k < cells.size(); ++k) {
        SweepCell &cell = *cells[k];
        if (!groupFailed && !outcomes[k].error) {
            cell.result = std::move(outcomes[k].result);
            cell.status = SweepCell::Status::Ok;
            cell.errorMessage.clear();
            cell.attempts = 1;
            // The cell's engine time plus its share of the pass's block
            // wait: a group's walls add up to its pass.
            cell.decodeSeconds = outcomes[k].decodeSeconds;
            cell.wallSeconds =
                outcomes[k].engineSeconds + cell.decodeSeconds;
            cell.shardSegments = 0;
            cell.shardSpliced = 0;
            cell.shardReplayed = 0;
            cell.minstrPerSec =
                cell.wallSeconds > 0.0
                    ? static_cast<double>(cell.result.instructions) / 1e6 /
                          cell.wallSeconds
                    : 0.0;
            finish(k);
            continue;
        }
        if (!groupFailed) {
            try {
                std::rethrow_exception(outcomes[k].error);
            } catch (const core::CancelledError &e) {
                // Cancellation is final in either mode: a solo re-run
                // would just burn the deadline a second time.
                cell.status = SweepCell::Status::Failed;
                cell.errorMessage = e.what();
                cell.result = core::AnalysisResult();
                cell.attempts = 1;
                finish(k);
                continue;
            } catch (const std::exception &) {
                // Ordinary failure: fall through to the solo re-run (the
                // demotion itself consumes no attempt).
            }
        }
        runCellSolo(repo, cell, opt);
        finish(k);
    }
}

} // namespace engine
} // namespace paragraph
