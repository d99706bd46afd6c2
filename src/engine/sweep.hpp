/**
 * @file
 * SweepEngine: a (trace × config) grid runner.
 *
 * The paper's headline experiments are grids — Figure 8 re-extracts the DDG
 * once per window size per benchmark ("approximately 10 hours on a
 * DECstation 3100" per point), Table 4 crosses renaming switches with
 * benchmarks. Each grid cell is one independent core::Paragraph::analyze
 * run. The engine is a thin client of the one execution pool
 * (engine/scheduler.hpp): it captures every input that is not streamed
 * once, serially, into shared immutable buffers (TraceRepository), then
 * resolves the grid
 * through resolveCells() (engine/result_store.hpp) on a private
 * SweepScheduler with Options::jobs workers and waits. With a result store
 * (Options::journalPath) finished cells are served from it and every new
 * Ok cell is stored as it completes, so rerunning an interrupted sweep
 * redoes only what never finished. The scheduler groups cells by input
 * into fused block-major passes (core::analyzeManyGuarded;
 * Options::groupSize, 0 = auto), gates concurrent private decoders per
 * streamed input, and runs each cell's attempts. Every core::Paragraph is
 * thread-private, so workers share no mutable analysis state. Results are
 * stored by grid position, making sweep output independent of worker
 * count, grouping, and completion order (a tested invariant).
 *
 * Cells are fault-isolated: a cell whose capture or analysis throws is
 * recorded as SweepCell::Status::Failed with its error text, and the rest
 * of the grid still runs — at the paper's hours-per-point scale, one bad
 * benchmark must not void a night of compute. Fusion never weakens that
 * isolation: a cell whose engine throws mid-group is demoted to a solo
 * re-run through the ordinary per-cell attempts loop (the demotion itself
 * consumes no attempt), so retries and stored cells are byte-identical to
 * an ungrouped sweep's. Failed attempts can be retried
 * (Options::maxRetries), and runaway cells cut off by a cooperative
 * per-cell deadline (Options::cellDeadlineSeconds).
 */

#ifndef PARAGRAPH_ENGINE_SWEEP_HPP
#define PARAGRAPH_ENGINE_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

/** One grid cell: analyze @p input under @p config. */
struct SweepJob
{
    std::string input;          ///< TraceRepository input spec
    core::AnalysisConfig config;
    std::string configLabel;    ///< short axis label, e.g. "window=64"
    size_t inputIndex = 0;      ///< position on the input axis
    size_t configIndex = 0;     ///< position on the config axis
};

/** One completed cell. */
struct SweepCell
{
    /**
     * Ok: analysis ran to completion and `result` is valid.
     * Failed: every attempt threw; `errorMessage` holds the last error and
     *         `result` is empty.
     * Skipped: served from the result store without re-running;
     *          `storedJson` holds the stored cell JSON.
     */
    enum class Status { Ok, Failed, Skipped };

    SweepJob job;
    core::AnalysisResult result;

    Status status = Status::Ok;

    /** Last error text; only meaningful when status == Failed. */
    std::string errorMessage;

    /** Analysis attempts consumed (1 unless retries were needed). */
    unsigned attempts = 1;

    /** Pre-rendered cell JSON from the result store, rebound to this
     *  cell's grid coordinates (status == Skipped only). */
    std::string storedJson;

    /** Wall-clock seconds for this cell's analysis alone. */
    double wallSeconds = 0.0;

    /** Of which, seconds spent waiting on the cell's block source
     *  (TraceRepository::blocks()): a private stream's decode, or waits
     *  on the shared decode pool. A fused cell carries its whole pass's
     *  wait. A sharded cell counts only the waits on its critical path —
     *  the plan scan's, the largest segment's and the replay's — so this
     *  never exceeds wallSeconds. About 0 for captured inputs — their
     *  capture is paid once, up front, in SweepResult::captureSeconds. */
    double decodeSeconds = 0.0;

    /** Split-and-patch shard segments this cell ran as (0 = unsharded). */
    unsigned shardSegments = 0;

    /** Of the shard segments, how many the patch merged with the
     *  O(boundary episodes) splice vs replayed sequentially
     *  (core/shard.hpp validate-or-replay). Spliced + replayed ==
     *  shardSegments when the cell was sharded. */
    unsigned shardSpliced = 0;
    unsigned shardReplayed = 0;

    /** Analysis throughput of this cell, in million instructions/sec. */
    double minstrPerSec = 0.0;

    bool ok() const { return status != Status::Failed; }
};

/** A finished sweep: cells in grid order plus aggregate bookkeeping. */
struct SweepResult
{
    std::vector<SweepCell> cells;

    /** Cells whose every attempt failed (error or deadline). */
    size_t cellsFailed = 0;

    /** Cells served from the result store without re-running. */
    size_t cellsSkipped = 0;

    /** Worker threads the sweep ran on. */
    unsigned jobs = 0;

    /** Wall-clock seconds for the whole sweep (captures + analyses). */
    double wallSeconds = 0.0;

    /** Of which, seconds spent capturing the inputs (serial, paid once). */
    double captureSeconds = 0.0;

    /** Total instructions analyzed across all cells. */
    uint64_t totalInstructions = 0;

    /** Fused groups the pending cells were scheduled as (passes over the
     *  inputs, before any mid-group fault demotes cells to solo). */
    size_t fusedGroups = 0;

    /** Aggregate throughput: totalInstructions / wallSeconds / 1e6. */
    double aggregateMinstrPerSec = 0.0;
};

/**
 * The input-major grid @p inputs × @p configs as a job list: job
 * i*configs.size()+j runs inputs[i] under configs[j], labelled labels[j]
 * (configs[j].describe() where @p labels runs short).
 */
std::vector<SweepJob>
gridJobs(const std::vector<std::string> &inputs,
         const std::vector<core::AnalysisConfig> &configs,
         const std::vector<std::string> &labels);

/**
 * Progress observer, called (serialized) after each cell completes:
 * cells done, cells total, aggregate million instructions/sec so far.
 * A throwing observer is disabled after its first throw (with a warning);
 * it can never abort the sweep.
 */
using SweepProgressFn =
    std::function<void(size_t done, size_t total, double minstrPerSec)>;

class SweepEngine
{
  public:
    struct Options
    {
        /** Worker threads; 0 = the hardware concurrency. */
        unsigned jobs = 0;

        /** Configs fused into one pass over a shared trace. 1 = no fusion
         *  (every cell is its own pass, the pre-grouping behavior);
         *  0 = auto, ceil(pending / jobs) so each worker's share of an
         *  input becomes a single pass — except over decode-gated
         *  streamed inputs, where the share is taken over the decoder
         *  cap instead of the worker count (SweepScheduler::Options). */
        unsigned groupSize = 1;

        /** Re-run a failed cell up to this many extra times. Cancelled /
         *  deadline-expired attempts are final and never retried. */
        unsigned maxRetries = 0;

        /** Per-attempt cooperative deadline in seconds; a cell past it is
         *  cut off at the next cancellation checkpoint and marked Failed.
         *  0 = no deadline. */
        double cellDeadlineSeconds = 0.0;

        /** Split each solo cell's trace into up to this many segments
         *  analyzed on that many threads and patched into the exact solo
         *  result (core/shard.hpp split-and-patch): how ONE trace × ONE
         *  config uses more than one core. Applies to every config, over
         *  pooled `.ptrc` inputs and shared captures alike; 1 = off. */
        unsigned shards = 1;

        /** Result store (engine/result_store.hpp) to resolve cells
         *  through, opened or created: cells it holds are served without
         *  re-running, and each new Ok cell is stored as it completes, so
         *  rerunning an interrupted grid resumes it. Empty = no store. */
        std::string journalPath;

        /** Render stored cells with profile buckets. Part of the store
         *  key; must match the final report's profiles setting for the
         *  served cells to splice into it. */
        bool journalProfiles = true;

        /** Optional progress observer (never called concurrently). */
        SweepProgressFn progress;
    };

    SweepEngine();
    explicit SweepEngine(Options opt);

    /** Worker threads run() will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run the full cross product @p inputs × @p configs.
     *
     * Cells come back in input-major grid order: cell i*configs.size()+j
     * holds inputs[i] under configs[j]. @p configLabels (optional, parallel
     * to @p configs) annotates each config axis point for reports.
     */
    SweepResult run(TraceRepository &repo,
                    const std::vector<std::string> &inputs,
                    const std::vector<core::AnalysisConfig> &configs,
                    const std::vector<std::string> &configLabels = {}) const;

    /** Run an explicit job list; cells come back in job order. */
    SweepResult runJobs(TraceRepository &repo,
                        std::vector<SweepJob> jobs) const;

  private:
    Options opt_;
    unsigned jobs_;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SWEEP_HPP
