/**
 * @file
 * ResultStore: the one persistence format for finished cells, and
 * resolveCells(), the one path that resolves jobs through it.
 *
 * The paper's grids cost hours per point, so a finished cell must never be
 * computed twice. paragraph-sweep (`--journal=FILE`) and paragraph-serve
 * (`--store=FILE`) both keep every Ok cell here under its *content*
 * address — the CRC-32 of the trace's packed records plus the CRC-32 of the
 * canonical config text (engine/config_key.hpp) plus the profiles flag that
 * selects the cell rendering. Nothing about the key involves input spec
 * strings, request shapes, or time, so any sweep asking for a cell that
 * any sweep has ever computed gets the original bytes back, even across
 * restarts — and a trace file regenerated under the same name never
 * matches the old trace's cells.
 *
 * Persistence is an append-only JSONL file: a schema header line, then one
 * self-contained entry per line, flushed as written. Loading tolerates torn
 * or corrupt lines (a crash mid-append loses at most the line being
 * written; everything else re-serves), and duplicate keys resolve to the
 * newest entry. The in-memory index holds every entry's file
 * position; entry *text* is kept hot only up to Options::memoryBudget bytes
 * (LRU), older entries re-read from disk on demand — the index stays small
 * even when the store grows far past RAM.
 */

#ifndef PARAGRAPH_ENGINE_RESULT_STORE_HPP
#define PARAGRAPH_ENGINE_RESULT_STORE_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sweep.hpp"

namespace paragraph {
namespace engine {

/**
 * When appended entries are pushed past the OS page cache to the device.
 * Every policy flushes stdio buffers per entry (a process crash never
 * loses an acknowledged append); the policy only controls fsync, i.e. what
 * a *machine* crash can take with it.
 */
enum class SyncPolicy
{
    None,     ///< never fsync; machine crash may lose recent entries
    Interval, ///< fsync at most once per syncIntervalSeconds, on append
    Cell,     ///< fsync after every appended entry
};

/** Content address of one cell result. */
struct ResultKey
{
    uint32_t traceCrc = 0;  ///< trace::traceBufferCrc of the input's records
    uint32_t configKey = 0; ///< engine::configKey of the analysis config
    bool profiles = false;  ///< cell rendered with profile buckets?

    bool
    operator<(const ResultKey &o) const
    {
        if (traceCrc != o.traceCrc)
            return traceCrc < o.traceCrc;
        if (configKey != o.configKey)
            return configKey < o.configKey;
        return profiles < o.profiles;
    }
};

class ResultStore
{
  public:
    struct Options
    {
        /** Byte budget for hot entry text; 0 = keep everything resident.
         *  The index (a few dozen bytes per entry) is never evicted. */
        size_t memoryBudget = 0;

        /** Device-durability policy for appended entries. */
        SyncPolicy syncPolicy = SyncPolicy::None;

        /** Minimum seconds between fsyncs under SyncPolicy::Interval. */
        double syncIntervalSeconds = 5.0;

        /** Compact automatically after this many appends; 0 = only when
         *  compact() is called explicitly. */
        size_t compactEveryAppends = 0;
    };

    /**
     * Open (creating if absent) the store at @p path and index every
     * parseable entry. Throws FatalError if the file cannot be opened or
     * carries the wrong schema header; damaged entry lines are warned
     * about and skipped.
     */
    explicit ResultStore(std::string path);
    ResultStore(std::string path, Options opt);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Fetch the cell text stored under @p key into @p cellJson. Serves
     * from the hot cache or re-reads the entry's line from disk.
     * @return false on a miss (or if the on-disk line has since been
     *         damaged — treated as a miss, the caller recomputes).
     */
    bool lookup(const ResultKey &key, std::string &cellJson);

    /**
     * Append @p cellJson under @p key and flush. A key already present is
     * left alone (first write wins — identical by construction, since the
     * key is the content address of everything that determines the text).
     */
    void insert(const ResultKey &key, const std::string &cellJson);

    /**
     * Rewrite the store as exactly one line per indexed key — dropping
     * superseded duplicates, damaged lines, and sealed torn fragments —
     * via a temp file that is fsynced and atomically renamed over the
     * store, so a crash at any point leaves either the old file or the
     * new one, never a mixture. Entries whose on-disk line can no longer
     * be read are dropped from the index with a warning.
     * @return false (with @p error set) if compaction could not complete;
     *         the existing store is untouched and stays in service.
     */
    bool compact(std::string &error);

    /** Entries indexed. */
    size_t entries() const;

    /** Bytes of entry text currently hot. */
    size_t hotBytes() const;

    /** Entries appended since open (survives compaction). */
    uint64_t appends() const;

    /** fsync calls issued by the durability policy. */
    uint64_t syncs() const;

    /** Completed compactions. */
    uint64_t compactions() const;

    /** Current size of the store file in bytes, or -1 if unknown. */
    long diskBytes() const;

  private:
    struct Entry
    {
        long offset = 0;   ///< byte offset of this entry's line
        size_t length = 0; ///< line length excluding the newline
        std::string hotText;
        bool hot = false;
        uint64_t lastUse = 0;
    };

    void touch(Entry &entry, std::string text);
    void enforceBudget();
    void syncLocked();
    bool compactLocked(std::string &error);

    std::string path_;
    Options opt_;
    mutable std::mutex mutex_;
    std::FILE *append_ = nullptr;
    std::FILE *read_ = nullptr;
    std::map<ResultKey, Entry> index_;
    size_t hotBytes_ = 0;
    uint64_t useCounter_ = 0;
    bool writeFailed_ = false;
    uint64_t appends_ = 0;
    uint64_t syncs_ = 0;
    uint64_t compactions_ = 0;
    size_t appendsSinceCompact_ = 0;
    std::chrono::steady_clock::time_point lastSync_{};
};

/**
 * Rewrite the grid coordinates of a stored cell fragment — its input name,
 * "input_index", "config_index" and config label — to @p job's. A fragment
 * is shared by content address across grids, so these fields belong to
 * whichever sweep computed it first; rebinding them keeps a spliced
 * document byte-identical to a fresh computation.
 */
void rebindSpliceIndices(std::string &cellJson, const SweepJob &job);

class SweepScheduler;

/** resolveCells() output: cells in job order, plus the fused groups the
 *  submitted misses ran as. */
struct ResolvedCells
{
    std::vector<SweepCell> cells;
    size_t fusedGroups = 0;
};

/**
 * Turn @p jobs into cells through @p store and @p scheduler: the one path
 * paragraph-sweep and paragraph-serve share. With a store, each job is
 * keyed by content address (TraceRepository::traceCrc + configKey +
 * @p profiles); a hit comes back Skipped with its stored fragment rebound
 * to the job's coordinates, a miss is submitted, and every miss that
 * finishes Ok is inserted the moment it is final. An input whose CRC
 * cannot be computed is submitted unkeyed, so the scheduler attributes its
 * error per cell. Without a store (@p store null) every job is submitted
 * and no key is computed.
 *
 * @p onCell (optional) sees each cell once its status is final: the hits
 * first, on the calling thread, then the misses from worker threads,
 * serialized. Blocks until every cell is final.
 */
ResolvedCells
resolveCells(TraceRepository &repo, ResultStore *store,
             SweepScheduler &scheduler, std::vector<SweepJob> jobs,
             bool profiles,
             const std::function<void(const SweepCell &)> &onCell = {});

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_RESULT_STORE_HPP
