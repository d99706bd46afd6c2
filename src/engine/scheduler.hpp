/**
 * @file
 * SweepScheduler: the one cell-execution pool behind every grid.
 *
 * paragraph-sweep, the explorer and the daemon all run their cells here.
 * SweepEngine builds a private scheduler per grid, submits the grid once
 * and waits; the daemon keeps one standing scheduler that clients' jobs
 * arrive at over time. Pending cells are bucketed by input spec, and
 * workers peel fused groups off one bucket at a time (at most a per-cell
 * group target, cut early by kGroupMemoryBudget), so cells from
 * *different* submissions fuse into a single block-major pass whenever
 * they share a trace.
 *
 * Two policies live here and nowhere else:
 *  - Group target. Options::groupSize fixes it; 0 (auto) fixes each input
 *    bucket's target when the submission is enqueued: one pass per
 *    worker's share of the submission, or, over decode-gated inputs, one
 *    pass per decoder's share of that input's cells.
 *  - Decoder gate. A streamed input without a shared decode pool (`.ptrz`:
 *    one private stateful decoder per pass) runs at most two passes at
 *    once; the peel skips a capped bucket and takes the next input.
 *
 * Execution itself is engine/cell_exec.hpp: the attempts / deadline /
 * demotion semantics that make a daemon-served cell byte-identical to the
 * same cell from a paragraph-sweep run.
 *
 * While a group runs, its trace is held through TraceRepository::pin(), so
 * a budget-bounded repository can never drop (and re-capture) a trace that
 * a fused pass is still reading.
 */

#ifndef PARAGRAPH_ENGINE_SCHEDULER_HPP
#define PARAGRAPH_ENGINE_SCHEDULER_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/cell_exec.hpp"
#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

/** @p jobs, or the hardware concurrency (at least 1) when it is 0. */
unsigned workerCount(unsigned jobs);

class SweepScheduler
{
  public:
    struct Options
    {
        /** Worker threads; 0 = std::thread::hardware_concurrency(). */
        unsigned jobs = 0;

        /** Most cells fused into one pass over a shared trace (cut early
         *  by kGroupMemoryBudget). 0 = auto, fixed per input when a
         *  submission is enqueued: ceil(submitted cells / workers), or
         *  ceil(cells on the input / min(workers, 2)) for decode-gated
         *  inputs. The daemon's default keeps a pass wide enough to
         *  amortize the trace walk without letting one client's burst
         *  monopolize a worker. */
        unsigned groupSize = 8;

        /** Attempts, deadline and sharding for every cell. */
        CellExecOptions exec;
    };

    /** Per-cell completion callback: the cell's position in the submitted
     *  job list, and the cell with its final status. */
    using CellFn = std::function<void(size_t index, SweepCell &cell)>;

    /**
     * One submission: owns its cells (in job order) for the scheduler to
     * fill in. Obtain from submit(), then wait() for completion; cells()
     * is stable storage but individual cells may only be read after the
     * per-cell callback has seen them (or after wait()).
     */
    class Batch
    {
      public:
        /** Block until every cell in this batch has a final status. */
        void
        wait()
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return remaining_ == 0; });
        }

        /** Cells in submission order. Fully final only after wait(). */
        std::vector<SweepCell> &cells() { return cells_; }

        /** Fused groups (passes over an input) this batch's cells ran in,
         *  counted when each group is peeled — before any mid-group fault
         *  demotes a cell to solo. Final after wait(). */
        size_t fusedGroups() const { return fusedGroups_.load(); }

      private:
        friend class SweepScheduler;

        std::vector<SweepCell> cells_;
        CellFn onCell_;
        std::mutex mutex_;
        std::condition_variable cv_;
        size_t remaining_ = 0;
        std::atomic<size_t> fusedGroups_{0};
    };

    explicit SweepScheduler(TraceRepository &repo);
    SweepScheduler(TraceRepository &repo, Options opt);
    ~SweepScheduler();

    SweepScheduler(const SweepScheduler &) = delete;
    SweepScheduler &operator=(const SweepScheduler &) = delete;

    /**
     * Queue @p jobs for execution. @p onCell (optional) is invoked once
     * per cell, from a worker thread, as soon as that cell's status is
     * final; calls are serialized per batch (but not across batches).
     * The callback must not re-enter the scheduler. Cells the callback
     * has seen may thereafter be read freely through cells().
     *
     * After stop(), submissions complete immediately with every cell
     * Failed ("scheduler stopped").
     */
    std::shared_ptr<Batch> submit(std::vector<SweepJob> jobs,
                                  CellFn onCell = {});

    /**
     * Fail all queued-but-unstarted cells ("scheduler stopped", zero
     * attempts), wait for in-flight groups to finish, and join the pool.
     * To cut in-flight analyses short too, cancel a token chained into the
     * submitted configs before calling (the daemon's SIGTERM path does).
     * Idempotent.
     */
    void stop();

    /** Worker threads in the pool. */
    unsigned workers() const { return workers_; }

    /** Cells queued but not yet picked up by a worker (health probe). */
    size_t pendingCells() const;

  private:
    /** One queued cell: which batch, which slot, and the group target its
     *  submission fixed for its input. */
    struct Item
    {
        std::shared_ptr<Batch> batch;
        size_t index = 0;
        size_t groupTarget = 1;
    };

    /** Pending cells on one input, FIFO across submissions. */
    struct Bucket
    {
        std::deque<Item> items;
        bool gated = false; ///< under the per-input decoder gate
    };

    void workerLoop();
    void runGroup(const std::string &input, const std::vector<Item> &group);
    void deliver(const Item &item) const;

    /** First input in dispatch order whose bucket the decoder gate lets
     *  a worker take, or inputOrder_.end(). Caller holds mutex_. */
    std::deque<std::string>::iterator nextRunnableInput();

    TraceRepository &repo_;
    Options opt_;
    unsigned workers_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;

    /** Pending cells bucketed by input spec; inputOrder_ keeps first-seen
     *  dispatch order over the non-empty buckets. */
    std::map<std::string, Bucket> pendingByInput_;
    std::deque<std::string> inputOrder_;

    /** Running passes per decode-gated input. */
    std::map<std::string, unsigned> activeDecoders_;

    std::vector<std::thread> pool_;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SCHEDULER_HPP
