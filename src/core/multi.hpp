/**
 * @file
 * Single-pass multi-configuration analysis (trace-major, block-major).
 *
 * The paper's Figure 8 re-extracted the DDG once per window size — "each
 * point in the graph represents a full DDG extraction and analysis of up to
 * 100,000,000 instructions (and requires approximately 10 hours on a
 * DECstation 3100)". The analyses are independent, so one pass over the
 * trace can feed any number of differently-configured engines: trace
 * generation (simulation, file decompression) is paid once instead of once
 * per configuration.
 *
 * Execution is block-major: large shared blocks (trace::kBlockRecords
 * records) are fetched once, then each engine's bulk inner loop runs over
 * the whole block — engine-major within a block, so every live well stays
 * cache-hot instead of being re-warmed per record. Engines that hit their
 * own maxInstructions leave a compact live-engine list and stop costing
 * anything. There is one such loop, fed by a trace::BlockSource; the
 * capture and stream overloads only adapt their input to one (slices of
 * the buffer, or a trace::BlockPipeline decoding the next block on a
 * background thread while the engines consume the current one). A sweep
 * cell — solo or fused — runs this loop over
 * engine::TraceRepository::blocks(); a solo cell is a fused pass of one.
 *
 * Cancellation is honored: each engine's AnalysisConfig::cancel is polled
 * from its bulk loop at the same cadence as Paragraph::processAll. Any
 * engine's exception, the resulting CancelledError included, is contained
 * to its own outcome slot so sibling configurations still complete — the
 * sweep scheduler's fused groups are built on that.
 */

#ifndef PARAGRAPH_CORE_MULTI_HPP
#define PARAGRAPH_CORE_MULTI_HPP

#include <exception>
#include <vector>

#include "core/paragraph.hpp"
#include "trace/block_source.hpp"
#include "trace/buffer.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace core {

/** Per-config outcome of a guarded fused pass. */
struct MultiOutcome
{
    /** Valid only when error is empty. */
    AnalysisResult result;

    /** The engine's exception (CancelledError included); null when ok. */
    std::exception_ptr error;

    /** Seconds spent inside this engine's bulk loop and finish() — the
     *  per-config share of the fused pass (block decode overlaps and is
     *  not attributed). */
    double engineSeconds = 0.0;

    /** Seconds the fused pass spent waiting on its block source (decode,
     *  or contention on a shared decode pool; about 0 for a capture) —
     *  shared across the whole pass, so every outcome carries the same
     *  value. */
    double decodeSeconds = 0.0;
};

/**
 * Analyze one trace under several configurations in a single pass.
 *
 * Equivalent to running Paragraph::analyze once per configuration over a
 * reset source (a tested invariant), but the trace is produced only once.
 * Engines that hit their own maxInstructions simply stop consuming; when
 * every config is capped, the source is never drained past the largest cap
 * (the adapting trace::BlockPipeline is bounded there).
 *
 * An engine's exception is contained to its own MultiOutcome slot: the
 * failing engine is dropped from the pass and every sibling configuration
 * still completes. Source errors (a corrupt trace file, for instance)
 * affect all engines equally and are thrown.
 *
 * @return one outcome per configuration, in order.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(trace::TraceSource &src,
                   const std::vector<AnalysisConfig> &configs);

/**
 * Guarded fused pass over an in-memory capture: the BlockSource overload
 * fed trace::BufferBlocks slices of the buffer's contiguous storage — no
 * copies, no producer thread. Results are identical to the source overload.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(const trace::TraceBuffer &buffer,
                   const std::vector<AnalysisConfig> &configs);

/**
 * The fused loop itself, fed straight from a BlockSource (a capture's
 * slices, a shared decode cursor or a pipeline). Each handed-out block is
 * consumed by every live engine before the next is requested, and no block
 * is requested once every engine is done; results are identical to the
 * other overloads over the same records.
 */
std::vector<MultiOutcome>
analyzeManyGuarded(trace::BlockSource &blocks,
                   const std::vector<AnalysisConfig> &configs);

} // namespace core
} // namespace paragraph

#endif // PARAGRAPH_CORE_MULTI_HPP
