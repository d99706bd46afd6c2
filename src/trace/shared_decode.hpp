/**
 * @file
 * SharedDecodePool: decode each trace block once, share it with every reader.
 *
 * BENCH_sweep.json's streamed `--jobs=8` regression had one root cause:
 * every worker analyzing the same `.ptrc` re-decoded the whole file through
 * a private BlockPipeline. The pool inverts that: one mapped file, one
 * decode of each 64K-record block (whichever consumer gets there first pays
 * it; everyone else waits on a condition variable instead of redoing the
 * work), and refcounted `shared_ptr<const DecodedBlock>` handout so a block
 * stays alive exactly as long as some engine is reading it. A small LRU
 * keeps recently decoded blocks warm for consumers running slightly apart
 * in the trace; trim() drops every unreferenced block when the trace
 * repository needs the bytes back for its budget.
 *
 * Blocks hold fully unpacked TraceRecords (the layout the placement loop
 * consumes; the mapped PackedRecords are the storage-efficient form), so a
 * handed-out span feeds Paragraph::processAll with zero further copies.
 *
 * Integrity: the pool verifies the v2 payload CRC over the mapped bytes
 * once at construction — eager, unlike the sequential reader's check at
 * end-of-stream, because a pass that stops early (every engine capped)
 * never reads the final block. The error text matches TraceFileReader's.
 */

#ifndef PARAGRAPH_TRACE_SHARED_DECODE_HPP
#define PARAGRAPH_TRACE_SHARED_DECODE_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/block_source.hpp"
#include "trace/mmap_io.hpp"
#include "trace/record.hpp"

namespace paragraph {
namespace trace {

/** One decoded block; immutable once published. */
struct DecodedBlock
{
    uint64_t firstRecord = 0;
    std::vector<TraceRecord> records;
};

class SharedDecodePool
{
  public:
    struct Options
    {
        /** Records per block (the fused block-major granule). */
        size_t blockRecords = kBlockRecords;

        /** Unreferenced decoded blocks kept warm (LRU beyond this). */
        size_t maxCachedBlocks = 8;

        /** Serve only the first maxRecords records; 0 = whole trace. */
        uint64_t maxRecords = 0;

        /** Verify the v2 payload CRC eagerly at construction. */
        bool verifyPayload = true;
    };

    SharedDecodePool(std::shared_ptr<const MmapTraceFile> file, Options opt);

    SharedDecodePool(const SharedDecodePool &) = delete;
    SharedDecodePool &operator=(const SharedDecodePool &) = delete;

    /** Records served (header count clipped by Options::maxRecords). */
    uint64_t recordCount() const { return count_; }

    size_t blockCount() const;
    const MmapTraceFile &file() const { return *file_; }
    std::string name() const { return file_->path(); }

    /**
     * The decoded block at @p index, decoding it (once) if needed.
     *
     * Concurrent callers for the same undecoded block: one decodes, the
     * rest wait. Decode errors propagate to every waiter and are not
     * cached, so a retry re-attempts the decode.
     */
    std::shared_ptr<const DecodedBlock> block(size_t index);

    /** Blocks currently cached (decoded and retained). */
    size_t cachedBlocks() const;

    /** Bytes held by cached blocks (for the repository's byte budget). */
    size_t cachedBytes() const;

    /** Total decode executions — the decode-once observability counter. */
    uint64_t blocksDecoded() const;

    /** Drop every cached block no consumer currently references. */
    void trim();

  private:
    std::shared_ptr<const MmapTraceFile> file_;
    Options opt_;
    uint64_t count_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable cv_;

    struct CacheEntry
    {
        std::shared_ptr<const DecodedBlock> block;
        uint64_t lastUse = 0;
    };

    std::unordered_map<size_t, CacheEntry> cache_;
    std::unordered_set<size_t> inProgress_;
    uint64_t useCounter_ = 0;
    uint64_t blocksDecoded_ = 0;

    void evictLocked();
};

/**
 * BlockSource view of a pool: hands out whole decoded blocks in order,
 * holding the current block's refcount until the next call. Many cursors
 * can walk the same pool concurrently; the first one to reach a block
 * decodes it for all.
 */
class SharedDecodeCursor : public BlockSource
{
  public:
    explicit SharedDecodeCursor(std::shared_ptr<SharedDecodePool> pool)
        : pool_(std::move(pool))
    {
    }

    size_t next(const TraceRecord **records) override;

  private:
    std::shared_ptr<SharedDecodePool> pool_;
    std::shared_ptr<const DecodedBlock> current_;
    size_t nextBlock_ = 0;
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_SHARED_DECODE_HPP
