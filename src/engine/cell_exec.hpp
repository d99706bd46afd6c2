/**
 * @file
 * Cell execution: the fault-isolated solo and fused analysis paths that
 * SweepScheduler's workers run for every grid — paragraph-sweep's, the
 * explorer's and the daemon's alike.
 *
 * These functions own the per-cell semantics: the attempts loop,
 * per-attempt deadline tokens, the rule that cancellation is final while
 * ordinary failures retry, and the fused-group demotion rule (an engine
 * that throws mid-group re-runs its cell solo without consuming an
 * attempt; a group-level input error demotes every member). Grouping
 * changes how many passes a grid takes, never what a cell contains: that
 * is what makes a daemon-served cell byte-identical to the same cell from
 * a paragraph-sweep run, at any --jobs or --group.
 *
 * Every unsharded cell, solo or fused, runs core::analyzeManyGuarded's
 * one block-fed loop over TraceRepository::blocks(): a solo cell is a
 * fused pass of one, and its decodeSeconds is that pass's wait on its
 * block source whatever the input kind.
 *
 * A sharded solo cell runs one driver whatever its input kind: the cell's
 * trace becomes a core::RecordSpans source — the capture as one chunk, or
 * a pooled `.ptrc` as block slices off the shared decode pool — and the
 * driver plans with core::planPatchPlan, runs the segments in parallel and
 * patches them with core::patchSegments, replaying from the same spans.
 * Other streamed inputs have no random access and run unsharded.
 */

#ifndef PARAGRAPH_ENGINE_CELL_EXEC_HPP
#define PARAGRAPH_ENGINE_CELL_EXEC_HPP

#include <functional>
#include <vector>

#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"

namespace paragraph {
namespace engine {

/** Per-cell execution knobs (SweepEngine::Options carries the same). */
struct CellExecOptions
{
    /** Re-run a failed cell up to this many extra times (cancelled or
     *  deadline-expired attempts are final). */
    unsigned maxRetries = 0;

    /** Per-attempt cooperative deadline in seconds; 0 = none. */
    double cellDeadlineSeconds = 0.0;

    /** Split a solo cell's trace into up to this many independently-
     *  analyzed segments, run on that many threads and patched into the
     *  exact solo result (core/shard.hpp split-and-patch). Applies to
     *  every config — cuts are planned at stall syscalls and mispredicted
     *  branches (plain tiles when the trace offers neither), and each
     *  boundary is validated and spliced, or replayed sequentially when
     *  its splice conditions fail. 1 = off. */
    unsigned shards = 1;
};

/**
 * Run @p cell's attempts loop: guarded capture + analysis, retries for
 * ordinary failures, no retry after cancellation. On return the cell's
 * status, result, attempts, error text, and timing are final. Never
 * throws.
 */
void runCellSolo(TraceRepository &repo, SweepCell &cell,
                 const CellExecOptions &opt);

/**
 * Run @p cells — all carrying jobs for the same input — as one block-major
 * fused pass over the shared trace, applying the demotion rule for
 * failures. @p finish is invoked exactly once per cell with its position
 * in @p cells, after that cell's status is final (in group order). Never
 * throws.
 */
void runFusedCells(TraceRepository &repo,
                   const std::vector<SweepCell *> &cells,
                   const CellExecOptions &opt,
                   const std::function<void(size_t)> &finish);

/** Rough live-state bytes one engine with this config keeps resident:
 *  base live well + ordering window + profile/lifetime buckets. */
size_t configFootprint(const core::AnalysisConfig &cfg);

/** Cap on the summed configFootprint() of one fused group; the scheduler
 *  cuts a group early rather than exceed it. */
constexpr size_t kGroupMemoryBudget = size_t(1) << 30;

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_CELL_EXEC_HPP
