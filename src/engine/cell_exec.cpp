#include "engine/cell_exec.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/multi.hpp"
#include "core/shard.hpp"
#include "trace/shared_decode.hpp"

namespace paragraph {
namespace engine {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Wraps a streaming source, accumulating the wall time spent producing
 * records — the decode share of a solo streamed cell without a shared
 * decode pool (`.ptrz`: stateful delta decode, one private decoder per
 * pass).
 */
class TimedSource : public trace::TraceSource
{
  public:
    explicit TimedSource(std::unique_ptr<trace::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    next(trace::TraceRecord &rec) override
    {
        auto t0 = std::chrono::steady_clock::now();
        bool ok = inner_->next(rec);
        seconds_ += secondsSince(t0);
        return ok;
    }

    size_t
    nextBatch(trace::TraceRecord *out, size_t max) override
    {
        auto t0 = std::chrono::steady_clock::now();
        size_t n = inner_->nextBatch(out, max);
        seconds_ += secondsSince(t0);
        return n;
    }

    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }
    double seconds() const { return seconds_; }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    double seconds_ = 0.0;
};

/**
 * Solo analysis fed block-by-block off the shared decode pool: zero
 * per-record virtual dispatch, blocks decoded once across every concurrent
 * consumer of the input. Block waits (decode or contention) accumulate
 * into @p decodeSeconds.
 */
core::AnalysisResult
analyzePooledSolo(std::shared_ptr<trace::SharedDecodePool> pool,
                  const core::AnalysisConfig &cfg, double *decodeSeconds)
{
    core::Paragraph analyzer(cfg);
    analyzer.begin();
    trace::SharedDecodeCursor cursor(std::move(pool));
    while (!analyzer.done()) {
        const trace::TraceRecord *records = nullptr;
        auto t0 = std::chrono::steady_clock::now();
        size_t n = cursor.next(&records);
        *decodeSeconds += secondsSince(t0);
        if (n == 0)
            break;
        analyzer.processAll(records, n);
    }
    return analyzer.finish();
}

/** Run @p nSegments segment jobs on up to @p shards threads, capturing the
 *  first exception (rethrown by the caller after joins). */
template <typename RunOne>
std::exception_ptr
runSegmentsParallel(size_t nSegments, unsigned shards, const RunOne &runOne)
{
    std::atomic<size_t> nextSeg{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    auto segmentWorker = [&]() {
        for (;;) {
            size_t s = nextSeg.fetch_add(1, std::memory_order_relaxed);
            if (s >= nSegments)
                return;
            try {
                runOne(s);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };
    unsigned nThreads =
        static_cast<unsigned>(std::min<size_t>(shards, nSegments));
    if (nThreads <= 1) {
        segmentWorker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(nThreads);
        for (unsigned t = 0; t < nThreads; ++t)
            threads.emplace_back(segmentWorker);
        for (std::thread &t : threads)
            t.join();
    }
    return firstError;
}

/**
 * Split-and-patch sharded analysis of a pooled streamed input: plan cuts
 * (after stalling syscalls and mispredicted branches; plain tiles when the
 * trace offers neither), run the segments on up to @p shards threads (each
 * engine thread-private, fed block slices from the shared pool), and patch
 * the exact solo-equivalent result — splicing boundaries whose validity
 * conditions hold and replaying the rest sequentially (core/shard.hpp).
 * Returns false — leaving @p cell untouched — when the trace is too small
 * to cut; the caller falls back to the solo pass. Throws what a segment
 * run throws (CancelledError included), for the caller's attempts loop.
 */
bool
analyzeSharded(const std::shared_ptr<trace::SharedDecodePool> &pool,
               const core::AnalysisConfig &cfg, unsigned shards,
               SweepCell &cell)
{
    uint64_t limit = pool->recordCount();
    if (cfg.maxInstructions && cfg.maxInstructions < limit)
        limit = cfg.maxInstructions;
    if (limit < 2 || shards < 2)
        return false;
    const size_t blockRecords = pool->blockRecords();
    const bool modeled =
        cfg.branchPredictor != core::PredictorKind::Perfect;

    // Plan pass: scan decoded blocks for candidate cuts — the record after
    // each stalling syscall and after each mispredicted branch, the latter
    // found by the sequential predictor pre-pass that also precomputes the
    // cut-invariant mispredict bitvector for the segment runs. The scan
    // warms the pool's block cache for those runs right behind it.
    double decode = 0.0;
    std::vector<size_t> candidates;
    std::vector<uint64_t> blockBranchPrefix;
    core::PredictorPrepass pre(cfg);
    {
        uint64_t pos = 0;
        size_t blockIdx = 0;
        while (pos < limit) {
            auto t0 = std::chrono::steady_clock::now();
            std::shared_ptr<const trace::DecodedBlock> blk =
                pool->block(blockIdx++);
            decode += secondsSince(t0);
            const size_t n = blk->records.size();
            if (n == 0)
                break;
            const size_t use =
                static_cast<size_t>(std::min<uint64_t>(n, limit - pos));
            if (modeled) {
                blockBranchPrefix.push_back(pre.branches());
                pre.feed(blk->records.data(), use);
            }
            if (cfg.sysCallsStall) {
                for (size_t i = 0; i < use && pos + i + 1 < limit; ++i) {
                    if (blk->records[i].isSysCall)
                        candidates.push_back(
                            static_cast<size_t>(pos + i + 1));
                }
            }
            pos += use;
        }
    }
    if (modeled) {
        for (size_t c : pre.mispredictCuts) {
            if (c > 0 && c < limit)
                candidates.push_back(c);
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());
    }
    const bool naturalCuts = !candidates.empty();
    std::vector<size_t> cuts = core::selectShardCuts(
        candidates, static_cast<size_t>(limit), shards);
    if (cuts.empty()) {
        // No natural boundary anywhere: plain equal tiles. The patch
        // validates every splice and replays on failure, so the cut
        // choice only affects speed, never correctness.
        for (unsigned k = 1; k < shards; ++k) {
            size_t p = static_cast<size_t>(limit * k / shards);
            if (p > 0 && p < limit)
                cuts.push_back(p);
        }
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    }
    if (cuts.empty()) {
        cell.decodeSeconds += decode; // the scan still decoded the trace
        return false;
    }

    std::vector<uint64_t> bounds;
    bounds.reserve(cuts.size() + 2);
    bounds.push_back(0);
    for (size_t c : cuts)
        bounds.push_back(c);
    bounds.push_back(limit);
    const size_t nSegments = bounds.size() - 1;

    // Per-segment branch ordinals (modeled predictors): conditional
    // branches before the segment's first record, from the block prefix
    // counts plus one in-block scan per cut (those blocks are cached).
    std::vector<uint64_t> branchBase(nSegments, 0);
    if (modeled) {
        for (size_t s = 1; s < nSegments; ++s) {
            size_t bi = static_cast<size_t>(bounds[s] / blockRecords);
            auto t0 = std::chrono::steady_clock::now();
            std::shared_ptr<const trace::DecodedBlock> blk =
                pool->block(bi);
            decode += secondsSince(t0);
            uint64_t base = blockBranchPrefix[bi];
            size_t off = static_cast<size_t>(
                bounds[s] - static_cast<uint64_t>(bi) * blockRecords);
            for (size_t i = 0; i < off; ++i) {
                if (blk->records[i].isCondBranch)
                    ++base;
            }
            branchBase[s] = base;
        }
    }

    std::vector<core::SegmentRun> segments(nSegments);
    std::vector<double> segDecode(nSegments, 0.0);

    auto feedSpan = [&](core::Paragraph &engine, size_t s,
                        double *decodeOut) {
        uint64_t pos = bounds[s];
        const uint64_t hi = bounds[s + 1];
        while (pos < hi) {
            size_t b = static_cast<size_t>(pos / blockRecords);
            auto t0 = std::chrono::steady_clock::now();
            std::shared_ptr<const trace::DecodedBlock> blk = pool->block(b);
            *decodeOut += secondsSince(t0);
            size_t off = static_cast<size_t>(
                pos - static_cast<uint64_t>(b) * blockRecords);
            size_t len = static_cast<size_t>(std::min<uint64_t>(
                hi - pos, blk->records.size() - off));
            engine.processAll(blk->records.data() + off, len);
            pos += len;
        }
    };

    auto runOne = [&](size_t s) {
        core::AnalysisConfig seg_cfg = cfg;
        seg_cfg.maxInstructions = 0; // the bounds slice exact spans
        core::Paragraph engine(seg_cfg);
        engine.beginSegment(&segments[s].log);
        segments[s].log.reserve(
            static_cast<size_t>(bounds[s + 1] - bounds[s]));
        if (modeled)
            engine.feedMispredicts(pre.bits.words.data(), branchBase[s]);
        feedSpan(engine, s, &segDecode[s]);
        segments[s].result = engine.finish();
    };

    std::exception_ptr firstError =
        runSegmentsParallel(nSegments, shards, runOne);
    for (double d : segDecode)
        decode += d;
    cell.decodeSeconds += decode;
    if (firstError)
        std::rethrow_exception(firstError);

    core::PatchOutcome outcome;
    if (core::shardableConfig(cfg) && naturalCuts) {
        // Firewall fast path: every stall cut is a total firewall, so all
        // splices validate by construction — skip the per-boundary checks.
        cell.result = core::stitchSegments(cfg, segments);
        outcome.spliced = static_cast<unsigned>(nSegments);
    } else {
        double replayDecode = 0.0;
        auto replay = [&](core::Paragraph &engine, size_t s) {
            feedSpan(engine, s, &replayDecode);
        };
        cell.result = core::patchSegments(
            cfg, segments, replay, modeled ? &pre.bits : nullptr,
            modeled ? &branchBase : nullptr, &outcome);
        cell.decodeSeconds += replayDecode;
    }
    cell.shardSegments = static_cast<unsigned>(nSegments);
    cell.shardSpliced = outcome.spliced;
    cell.shardReplayed = outcome.replayed;
    return true;
}

/**
 * Split-and-patch sharded analysis of a shared capture (contiguous
 * records): the same plan → parallel segments → validate-or-replay patch
 * as the streamed path, minus the block bookkeeping. Returns false when
 * the capture is too small to cut.
 */
bool
analyzeShardedCapture(const trace::TraceBuffer &buffer,
                      const core::AnalysisConfig &cfg, unsigned shards,
                      SweepCell &cell)
{
    uint64_t limit = buffer.size();
    if (cfg.maxInstructions && cfg.maxInstructions < limit)
        limit = cfg.maxInstructions;
    if (limit < 2 || shards < 2)
        return false;
    const trace::TraceRecord *records = buffer.records().data();
    const size_t n = static_cast<size_t>(limit);
    const bool modeled =
        cfg.branchPredictor != core::PredictorKind::Perfect;

    core::PatchPlan plan = core::planPatchPlan(cfg, records, n, shards);
    if (plan.cuts.empty())
        return false;

    std::vector<size_t> bounds;
    bounds.reserve(plan.cuts.size() + 2);
    bounds.push_back(0);
    for (size_t c : plan.cuts)
        bounds.push_back(c);
    bounds.push_back(n);
    const size_t nSegments = bounds.size() - 1;

    std::vector<core::SegmentRun> segments(nSegments);
    auto runOne = [&](size_t s) {
        core::runSegment(cfg, records + bounds[s],
                         bounds[s + 1] - bounds[s], segments[s],
                         modeled ? &plan.bits : nullptr,
                         modeled ? plan.branchBase[s] : 0);
    };
    std::exception_ptr firstError =
        runSegmentsParallel(nSegments, shards, runOne);
    if (firstError)
        std::rethrow_exception(firstError);

    core::PatchOutcome outcome;
    auto replay = [&](core::Paragraph &engine, size_t s) {
        engine.processAll(records + bounds[s], bounds[s + 1] - bounds[s]);
    };
    cell.result = core::patchSegments(
        cfg, segments, replay, modeled ? &plan.bits : nullptr,
        modeled ? &plan.branchBase : nullptr, &outcome);
    cell.shardSegments = static_cast<unsigned>(nSegments);
    cell.shardSpliced = outcome.spliced;
    cell.shardReplayed = outcome.replayed;
    return true;
}

} // namespace

size_t
configFootprint(const core::AnalysisConfig &cfg)
{
    size_t bytes = size_t(8) << 20;
    bytes += static_cast<size_t>(cfg.windowSize) * 8;
    bytes += cfg.profileBins * 40;
    return bytes;
}

void
runCellSolo(TraceRepository &repo, SweepCell &cell,
            const CellExecOptions &opt)
{
    unsigned maxAttempts = 1 + opt.maxRetries;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        cell.attempts = attempt;
        cell.decodeSeconds = 0.0;
        cell.shardSegments = 0;
        cell.shardSpliced = 0;
        cell.shardReplayed = 0;
        try {
            core::AnalysisConfig cfg = cell.job.config;
            core::CancelToken deadline;
            if (opt.cellDeadlineSeconds > 0.0) {
                deadline.setDeadline(opt.cellDeadlineSeconds);
                deadline.chain(cfg.cancel);
                cfg.cancel = &deadline;
            }
            auto cellStart = std::chrono::steady_clock::now();
            if (repo.streamingInput(cell.job.input)) {
                std::shared_ptr<trace::SharedDecodePool> pool =
                    repo.decodePool(cell.job.input);
                bool done = false;
                if (pool && opt.shards > 1)
                    done = analyzeSharded(pool, cfg, opt.shards, cell);
                if (!done && pool) {
                    cell.result = analyzePooledSolo(std::move(pool), cfg,
                                                    &cell.decodeSeconds);
                } else if (!done) {
                    TimedSource src(repo.makeSource(cell.job.input));
                    core::Paragraph analyzer(cfg);
                    cell.result = analyzer.analyze(src);
                    cell.decodeSeconds = src.seconds();
                }
            } else {
                // Analyze the shared capture directly (bulk path): no
                // cursor object, no virtual dispatch per record.
                std::shared_ptr<const trace::TraceBuffer> buffer =
                    repo.get(cell.job.input);
                bool done = false;
                if (opt.shards > 1) {
                    done = analyzeShardedCapture(*buffer, cfg, opt.shards,
                                                 cell);
                }
                if (!done) {
                    core::Paragraph analyzer(cfg);
                    cell.result = analyzer.analyze(*buffer);
                }
            }
            cell.wallSeconds = secondsSince(cellStart);
            cell.minstrPerSec =
                cell.wallSeconds > 0.0
                    ? static_cast<double>(cell.result.instructions) / 1e6 /
                          cell.wallSeconds
                    : 0.0;
            cell.status = SweepCell::Status::Ok;
            cell.errorMessage.clear();
            break;
        } catch (const core::CancelledError &e) {
            // Deadline / cancellation: final, never retried —
            // a second attempt would just burn the deadline again.
            cell.status = SweepCell::Status::Failed;
            cell.errorMessage = e.what();
            cell.result = core::AnalysisResult();
            break;
        } catch (const std::exception &e) {
            cell.status = SweepCell::Status::Failed;
            cell.errorMessage = e.what();
            cell.result = core::AnalysisResult();
        }
    }
}

void
runFusedCells(TraceRepository &repo,
              const std::vector<SweepCell *> &cells,
              const CellExecOptions &opt,
              const std::function<void(size_t)> &finish)
{
    const std::string &input = cells.front()->job.input;

    std::deque<core::CancelToken> deadlines;
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.reserve(cells.size());
    for (SweepCell *cell : cells) {
        core::AnalysisConfig cfg = cell->job.config;
        if (opt.cellDeadlineSeconds > 0.0) {
            deadlines.emplace_back();
            deadlines.back().setDeadline(opt.cellDeadlineSeconds);
            deadlines.back().chain(cfg.cancel);
            cfg.cancel = &deadlines.back();
        }
        cfgs.push_back(std::move(cfg));
    }

    std::vector<core::MultiOutcome> outcomes;
    bool groupFailed = false;
    try {
        if (repo.streamingInput(input)) {
            // Pooled `.ptrc`: the fused pass pulls whole decoded blocks
            // off the shared pool — blocks decoded once across every
            // group and solo cell on this input.
            std::shared_ptr<trace::SharedDecodePool> pool =
                repo.decodePool(input);
            if (pool) {
                trace::SharedDecodeCursor cursor(std::move(pool));
                outcomes = core::analyzeManyGuarded(cursor, cfgs);
            } else {
                std::unique_ptr<trace::TraceSource> src =
                    repo.makeSource(input);
                outcomes = core::analyzeManyGuarded(*src, cfgs);
            }
        } else {
            std::shared_ptr<const trace::TraceBuffer> buffer =
                repo.get(input);
            outcomes = core::analyzeManyGuarded(*buffer, cfgs);
        }
    } catch (const std::exception &) {
        groupFailed = true;
    }

    for (size_t k = 0; k < cells.size(); ++k) {
        SweepCell &cell = *cells[k];
        if (!groupFailed && !outcomes[k].error) {
            cell.result = std::move(outcomes[k].result);
            cell.status = SweepCell::Status::Ok;
            cell.errorMessage.clear();
            cell.attempts = 1;
            cell.wallSeconds = outcomes[k].engineSeconds;
            cell.decodeSeconds = outcomes[k].decodeSeconds;
            cell.shardSegments = 0;
            cell.shardSpliced = 0;
            cell.shardReplayed = 0;
            cell.minstrPerSec =
                cell.wallSeconds > 0.0
                    ? static_cast<double>(cell.result.instructions) / 1e6 /
                          cell.wallSeconds
                    : 0.0;
            finish(k);
            continue;
        }
        if (!groupFailed) {
            try {
                std::rethrow_exception(outcomes[k].error);
            } catch (const core::CancelledError &e) {
                // Cancellation is final in either mode: a solo re-run
                // would just burn the deadline a second time.
                cell.status = SweepCell::Status::Failed;
                cell.errorMessage = e.what();
                cell.result = core::AnalysisResult();
                cell.attempts = 1;
                finish(k);
                continue;
            } catch (const std::exception &) {
                // Ordinary failure: fall through to the solo re-run (the
                // demotion itself consumes no attempt).
            }
        }
        runCellSolo(repo, cell, opt);
        finish(k);
    }
}

} // namespace engine
} // namespace paragraph
