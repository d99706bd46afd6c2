#include "trace/shared_decode.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "support/failpoint.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace trace {

SharedDecodePool::SharedDecodePool(std::shared_ptr<const MmapTraceFile> file,
                                   Options opt)
    : file_(std::move(file)), opt_(opt)
{
    PARA_ASSERT(opt_.blockRecords > 0, "zero block size");
    count_ = file_->recordCount();
    if (opt_.maxRecords != 0 && opt_.maxRecords < count_)
        count_ = opt_.maxRecords;
    if (opt_.verifyPayload)
        file_->verifyPayload();
}

size_t
SharedDecodePool::blockCount() const
{
    return static_cast<size_t>((count_ + opt_.blockRecords - 1) /
                               opt_.blockRecords);
}

std::shared_ptr<const DecodedBlock>
SharedDecodePool::block(size_t index)
{
    PARA_ASSERT(index < blockCount(), "block index out of range");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = cache_.find(index);
        if (it != cache_.end()) {
            it->second.lastUse = ++useCounter_;
            return it->second.block;
        }
        if (inProgress_.count(index) == 0)
            break;
        cv_.wait(lock);
    }

    // First consumer to reach this block decodes it for everyone.
    inProgress_.insert(index);
    lock.unlock();

    auto blk = std::make_shared<DecodedBlock>();
    blk->firstRecord = static_cast<uint64_t>(index) * opt_.blockRecords;
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(opt_.blockRecords, count_ - blk->firstRecord));
    blk->records.resize(n);
    try {
        if (PARA_FAILPOINT("trace.decode.block"))
            throw std::bad_alloc(); // simulated decode-time ENOMEM
        file_->decode(blk->firstRecord, n, blk->records.data());
    } catch (...) {
        lock.lock();
        inProgress_.erase(index);
        cv_.notify_all();
        throw;
    }

    lock.lock();
    inProgress_.erase(index);
    CacheEntry entry;
    entry.block = blk;
    entry.lastUse = ++useCounter_;
    cache_.emplace(index, std::move(entry));
    ++blocksDecoded_;
    evictLocked();
    cv_.notify_all();
    return blk;
}

void
SharedDecodePool::evictLocked()
{
    while (cache_.size() > opt_.maxCachedBlocks) {
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            // use_count 1 == only the cache holds it; consumers keep their
            // own shared_ptr, so an in-use block is never dropped from
            // under a reader — it just leaves the cache and dies when the
            // last reader releases it.
            if (it->second.block.use_count() > 1)
                continue;
            if (victim == cache_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == cache_.end())
            return; // everything still referenced; allow the overshoot
        cache_.erase(victim);
    }
}

size_t
SharedDecodePool::cachedBlocks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

size_t
SharedDecodePool::cachedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t bytes = 0;
    for (const auto &kv : cache_)
        bytes += kv.second.block->records.size() * sizeof(TraceRecord);
    return bytes;
}

uint64_t
SharedDecodePool::blocksDecoded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return blocksDecoded_;
}

void
SharedDecodePool::trim()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = cache_.begin(); it != cache_.end();) {
        if (it->second.block.use_count() > 1)
            ++it;
        else
            it = cache_.erase(it);
    }
}

size_t
SharedDecodeCursor::next(const TraceRecord **records)
{
    current_.reset(); // release the previous block before taking the next
    if (nextBlock_ >= pool_->blockCount()) {
        *records = nullptr;
        return 0;
    }
    current_ = pool_->block(nextBlock_++);
    *records = current_->records.data();
    return current_->records.size();
}

} // namespace trace
} // namespace paragraph
