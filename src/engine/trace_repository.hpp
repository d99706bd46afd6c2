/**
 * @file
 * TraceRepository: capture each sweep input once, share it with all workers.
 *
 * A (trace × config) sweep re-analyzes the same trace many times. Trace
 * *generation* — functional simulation of a workload or MiniC program,
 * assembly, or `.ptrc`/`.ptrz` decompression — is the expensive, inherently
 * serial part, so the repository performs it exactly once per input and
 * stores the result in an immutable, shared in-memory trace::TraceBuffer.
 *
 * The repository also decides, in one place, how an unsharded analysis
 * pass reads an input: blocks() hands out a trace::BlockSource over one of
 * three input kinds —
 *  - a captured input: in-place slices of the shared capture
 *    (trace::BufferBlocks), so any number of passes run over one capture
 *    concurrently without synchronization;
 *  - a streamed `.ptrc` (Options::streamFiles): a cursor over the input's
 *    shared decode pool, each block decoded once for every reader;
 *  - any other streamed file (`.ptrz`, or a `.ptrc` that cannot be
 *    mapped): a private trace::BlockPipeline over a freshly opened reader,
 *    capped at Options::maxRecords like a capture.
 * Only the sharded path (engine/cell_exec) needs random access, so it alone
 * reads a capture's records through get() directly; it never shards a
 * streamed input.
 *
 * Long-running holders (the paragraph-serve daemon keeps one repository
 * alive across every client's sweeps) bound the resident set with
 * Options::memoryBudget: least-recently-used captures are dropped from the
 * cache when a new capture would exceed the budget. Eviction is always
 * safe mid-analysis — get() hands out shared_ptrs, so an in-flight
 * analysis keeps its capture alive even after the cache lets go — and
 * entries pinned through pin() (held for the duration of a fused group)
 * are never evicted, so a group's trace cannot be captured twice by the
 * same request. traceCrc() exposes each capture's content identity (CRC-32
 * of the packed records, the value a trace-file header would carry), the
 * trace half of the serve result cache's content address.
 */

#ifndef PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
#define PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "trace/block_source.hpp"
#include "trace/buffer.hpp"
#include "trace/shared_decode.hpp"
#include "workloads/workload.hpp"

namespace paragraph {
namespace engine {

class TraceRepository;

/**
 * RAII pin on one cached capture: while alive, the entry cannot be
 * LRU-evicted (and the shared buffer is referenced regardless). Returned
 * by TraceRepository::pin(); release order does not matter.
 */
class TracePin
{
  public:
    TracePin() = default;
    TracePin(TracePin &&other) noexcept { *this = std::move(other); }
    TracePin &
    operator=(TracePin &&other) noexcept
    {
        release();
        repo_ = other.repo_;
        spec_ = std::move(other.spec_);
        buffer_ = std::move(other.buffer_);
        other.repo_ = nullptr;
        return *this;
    }
    TracePin(const TracePin &) = delete;
    TracePin &operator=(const TracePin &) = delete;
    ~TracePin() { release(); }

    /** The pinned capture (null for a default-constructed pin). */
    const std::shared_ptr<const trace::TraceBuffer> &buffer() const
    {
        return buffer_;
    }

    void release();

  private:
    friend class TraceRepository;
    TracePin(TraceRepository *repo, std::string spec,
             std::shared_ptr<const trace::TraceBuffer> buffer)
        : repo_(repo), spec_(std::move(spec)), buffer_(std::move(buffer)) {}

    TraceRepository *repo_ = nullptr;
    std::string spec_;
    std::shared_ptr<const trace::TraceBuffer> buffer_;
};

class TraceRepository
{
  public:
    struct Options
    {
        /** Scale used when an input names a bundled workload. */
        workloads::Scale scale = workloads::Scale::Full;

        /** Capture at most this many records per input; 0 = whole trace.
         *  Set this to the sweep's maxInstructions so memory stays bounded
         *  by what any analysis will actually consume. */
        uint64_t maxRecords = 0;

        /** Stream `.ptrc`/`.ptrz` trace-file inputs instead of capturing
         *  them: blocks() reads a `.ptrc` through its shared decode pool
         *  and re-opens any other file per pass (capped at maxRecords).
         *  Trades the one-time capture's memory footprint for a decode per
         *  analysis pass — the trace-major sweep scheduler amortizes that
         *  decode across every config fused into the pass. Non-file inputs
         *  (workloads, assembly, MiniC) are always captured, and get()
         *  still captures a trace file if asked directly. */
        bool streamFiles = false;

        /** Byte budget for cached captures; 0 = unlimited (the one-shot
         *  sweep CLI default). When a new capture would exceed it, the
         *  least-recently-used unpinned captures are dropped first. A
         *  single capture larger than the budget, or a budget fully
         *  occupied by pins, is allowed to overshoot — eviction never
         *  blocks and never touches pinned entries. */
        size_t memoryBudget = 0;
    };

    TraceRepository() = default;
    explicit TraceRepository(Options opt) : opt_(opt) {}

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * The shared capture for @p spec, producing it on first request.
     *
     * @p spec is resolved exactly like the `paragraph` CLI input argument:
     * `.ptrc`/`.ptrz` trace files are read back, `.s` assembly and
     * `.mc`/`.c` MiniC programs are simulated for their trace, and anything
     * else names a bundled workload analog. Thread-safe; throws FatalError
     * for unknown inputs.
     */
    std::shared_ptr<const trace::TraceBuffer> get(const std::string &spec);

    /** get() plus an eviction pin: the cache entry survives any budget
     *  pressure until the returned pin is released. */
    TracePin pin(const std::string &spec);

    /**
     * A fresh block source over @p spec's records, starting at record 0:
     * slices of the shared capture, a cursor over the shared decode pool
     * (streamed `.ptrc`), or a private pipeline over a re-opened file
     * capped at Options::maxRecords (any other streamed input). Every
     * unsharded analysis pass reads its input through this. Throws what
     * capture, mapping or opening throws.
     */
    std::unique_ptr<trace::BlockSource> blocks(const std::string &spec);

    /** True when @p spec is served by streaming (Options::streamFiles and
     *  the spec names a trace file). */
    bool streamingInput(const std::string &spec) const;

    /**
     * The shared decode pool for a streamed `.ptrc` input: every consumer
     * (fused group, solo cell, serve client) of the same input shares one
     * mmap and decodes each block exactly once between them. Sharded cells
     * never read it: a streamed input runs unsharded. Returns nullptr when
     * @p spec is not a streamed `.ptrc` (or cannot be mapped) — blocks()
     * then opens a private pipeline.
     * Thread-safe; the pool is cached for the repository's lifetime and
     * its block cache counts toward the byte budget via trim().
     */
    std::shared_ptr<trace::SharedDecodePool>
    decodePool(const std::string &spec);

    /** CRC-32 of @p spec's records in packed on-disk form. An uncapped v2
     *  `.ptrc` served by a decode pool answers with the payload CRC the
     *  pool verified when it opened; any other input has the CRC folded
     *  block by block over blocks() on first request (a streamed input is
     *  never resident as a whole). Remembered per spec even after the
     *  capture itself is evicted. */
    uint32_t traceCrc(const std::string &spec);

    /** Drop the cached capture for @p spec (in-flight sources keep theirs;
     *  pinned entries are not droppable until unpinned). */
    void release(const std::string &spec);

    /** Drop every unpinned cached capture. */
    void clear();

    /** Number of inputs currently cached. */
    size_t cachedInputs() const;

    /** Bytes of trace records currently cached. */
    size_t cachedBytes() const;

  private:
    friend class TracePin;

    struct Entry
    {
        std::shared_ptr<const trace::TraceBuffer> buffer;
        size_t bytes = 0;
        uint64_t lastUse = 0;
        unsigned pins = 0;
    };

    Options opt_;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> cache_;
    std::map<std::string, std::shared_ptr<trace::SharedDecodePool>> pools_;
    std::map<std::string, uint32_t> crcs_;
    uint64_t useCounter_ = 0;
    size_t cachedBytes_ = 0;

    /** Look up / produce the entry for @p spec (mutex_ held), bumping its
     *  LRU stamp and evicting as needed on insert. */
    Entry &fetch(const std::string &spec);

    /** Evict unpinned LRU entries until the budget holds (mutex_ held). */
    void enforceBudget();

    void unpin(const std::string &spec);

    /** Generate/load and capture one input (called with mutex_ held). */
    std::shared_ptr<const trace::TraceBuffer>
    capture(const std::string &spec) const;
};

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_TRACE_REPOSITORY_HPP
