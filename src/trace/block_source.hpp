/**
 * @file
 * BlockSource: the block-granular pull interface every unsharded analysis
 * pass reads its trace through.
 *
 * Three producers serve the same next(const TraceRecord **) protocol: a
 * shared in-memory capture sliced in place (trace::BufferBlocks), the
 * shared decode pool's refcounted cached blocks (trace::SharedDecodeCursor)
 * and a private background decoder over a stream (trace::BlockPipeline).
 * engine::TraceRepository::blocks() picks one per input, and
 * core::analyzeManyGuarded feeds its engines from it without caring which
 * is behind it.
 */

#ifndef PARAGRAPH_TRACE_BLOCK_SOURCE_HPP
#define PARAGRAPH_TRACE_BLOCK_SOURCE_HPP

#include <cstddef>

#include "trace/record.hpp"

namespace paragraph {
namespace trace {

/// Records per block, for every BlockSource. Big enough that each engine's
/// bulk loop amortizes its live-well re-warm across tens of thousands of
/// records; small enough (a few MB) that the block itself stays in cache
/// while several engines walk it.
constexpr size_t kBlockRecords = 65536;

class BlockSource
{
  public:
    virtual ~BlockSource() = default;

    /**
     * Produce the next block of records.
     *
     * @param records receives a pointer valid until the next call (or until
     *        the source is destroyed). @return the block's record count;
     *        0 at end of trace. May throw decode errors.
     */
    virtual size_t next(const TraceRecord **records) = 0;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_BLOCK_SOURCE_HPP
