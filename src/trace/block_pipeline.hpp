/**
 * @file
 * BlockPipeline: double-buffered background block producer for a TraceSource.
 *
 * Trace decode is now a measurable serial fraction of a sweep cell —
 * `.ptrz` varint/zigzag decoding costs about as much as the analysis that
 * consumes it. The pipeline overlaps the two: a producer thread drains the
 * source into one block while the consumer (one or many fused analysis
 * engines) walks the other, so a decode-bound pass and an analysis-bound
 * pass each hide most of the other's latency.
 *
 * The protocol is strict double buffering. next() returns a pointer into
 * an internal block that stays valid until the following next() call; the
 * producer never refills a block the consumer still holds. Exceptions
 * thrown by the source (e.g. a corrupt `.ptrz` record) are captured on the
 * producer thread and rethrown from next() on the consumer thread.
 *
 * A bounded pipeline (Options::maxRecords) never drains the source past
 * its cap — required when several consumers share one replayable source,
 * and how engine::TraceRepository::blocks() applies its capture-time
 * record cap to a privately opened stream the pipeline owns.
 */

#ifndef PARAGRAPH_TRACE_BLOCK_PIPELINE_HPP
#define PARAGRAPH_TRACE_BLOCK_PIPELINE_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/block_source.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

class BlockPipeline : public BlockSource
{
  public:
    struct Options
    {
        /** Records per block (two blocks are allocated up front). */
        size_t blockRecords = kBlockRecords;

        /** Stop after this many records total; 0 = drain the source. */
        uint64_t maxRecords = 0;
    };

    explicit BlockPipeline(TraceSource &src) : BlockPipeline(src, Options{}) {}
    BlockPipeline(TraceSource &src, Options opt);

    /** A pipeline that owns @p src and destroys it after the producer
     *  has stopped. */
    BlockPipeline(std::unique_ptr<TraceSource> src, Options opt);

    /** Stops the producer and joins it; safe mid-trace. */
    ~BlockPipeline() override;

    BlockPipeline(const BlockPipeline &) = delete;
    BlockPipeline &operator=(const BlockPipeline &) = delete;

    /**
     * Block until the next block is decoded and return its length.
     *
     * @param records receives a pointer to the block's records, valid until
     *        the next call. @return 0 at end of trace. Rethrows any
     *        exception the producer hit while reading the source.
     */
    size_t next(const TraceRecord **records) override;

  private:
    struct Slot
    {
        std::vector<TraceRecord> buf;
        size_t count = 0;
        bool full = false;
    };

    std::unique_ptr<TraceSource> owned_; ///< set by the owning constructor
    TraceSource &src_;
    Options opt_;

    std::mutex mutex_;
    std::condition_variable cv_;
    Slot slots_[2];
    bool eof_ = false;
    bool stop_ = false;
    std::exception_ptr error_;

    size_t consumeIdx_ = 0;  ///< slot the consumer takes next
    bool outstanding_ = false; ///< consumer still holds consumeIdx_

    std::thread producer_;

    void produce();
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_BLOCK_PIPELINE_HPP
