// Tests for core::analyzeManyGuarded (single-pass multi-configuration
// analysis).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/cancel_token.hpp"
#include "core/multi.hpp"
#include "tests/core/trace_helpers.hpp"
#include "workloads/workload.hpp"

using namespace paragraph;
using namespace paragraph::core;
using namespace paragraph::testhelpers;

namespace {

/**
 * Assert two AnalysisResults are byte-identical in every deterministic
 * field — scalars, profile bins, distribution counts, storage profile —
 * i.e. everything except wall-clock timing. Doubles are compared exactly:
 * the same records through the same placement rule must produce
 * bit-identical arithmetic.
 */
void
expectIdenticalResults(const AnalysisResult &a, const AnalysisResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.placedOps, b.placedOps);
    EXPECT_EQ(a.sysCalls, b.sysCalls);
    EXPECT_EQ(a.firewalls, b.firewalls);
    EXPECT_EQ(a.preExistingValues, b.preExistingValues);
    EXPECT_EQ(a.storageDelayedOps, b.storageDelayedOps);
    EXPECT_EQ(a.fuDelayedOps, b.fuDelayedOps);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.branchMispredictions, b.branchMispredictions);
    EXPECT_EQ(a.criticalPathLength, b.criticalPathLength);
    EXPECT_EQ(a.availableParallelism, b.availableParallelism);
    EXPECT_EQ(a.liveWellPeak, b.liveWellPeak);
    EXPECT_EQ(a.liveWellFinal, b.liveWellFinal);
    EXPECT_EQ(a.liveWellPeakBytes, b.liveWellPeakBytes);

    ASSERT_EQ(a.profile.numBins(), b.profile.numBins());
    EXPECT_EQ(a.profile.bucketWidth(), b.profile.bucketWidth());
    EXPECT_EQ(a.profile.maxLevel(), b.profile.maxLevel());
    EXPECT_EQ(a.profile.totalOps(), b.profile.totalOps());
    for (size_t i = 0; i < a.profile.numBins(); ++i)
        ASSERT_EQ(a.profile.binCount(i), b.profile.binCount(i))
            << "profile bin " << i;

    ASSERT_EQ(a.lifetimes.exactRange(), b.lifetimes.exactRange());
    EXPECT_EQ(a.lifetimes.totalCount(), b.lifetimes.totalCount());
    EXPECT_EQ(a.lifetimes.overflowCount(), b.lifetimes.overflowCount());
    EXPECT_EQ(a.lifetimes.maxSample(), b.lifetimes.maxSample());
    for (uint64_t v = 0; v < a.lifetimes.exactRange(); ++v)
        ASSERT_EQ(a.lifetimes.count(v), b.lifetimes.count(v))
            << "lifetime " << v;

    EXPECT_EQ(a.sharing.totalCount(), b.sharing.totalCount());
    for (uint64_t v = 0; v < a.sharing.exactRange(); ++v)
        ASSERT_EQ(a.sharing.count(v), b.sharing.count(v))
            << "sharing " << v;

    EXPECT_EQ(a.storageProfile.intervals(), b.storageProfile.intervals());
    EXPECT_EQ(a.storageProfile.bucketWidth(),
              b.storageProfile.bucketWidth());
    auto sa = a.storageProfile.series();
    auto sb = b.storageProfile.series();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].firstLevel, sb[i].firstLevel);
        EXPECT_EQ(sa[i].lastLevel, sb[i].lastLevel);
        EXPECT_EQ(sa[i].liveValues, sb[i].liveValues);
    }
}

/** randomTrace with its Control records made real conditional branches, so
 *  branch-prediction firewalls actually fire. */
TraceBuffer
randomTraceWithCondBranches(uint64_t seed, size_t length)
{
    TraceBuffer buf = randomTrace(seed, length);
    Prng coin(seed ^ 0x9e3779b97f4a7c15ULL);
    for (trace::TraceRecord &rec : buf.records()) {
        if (rec.cls == isa::OpClass::Control) {
            rec.isCondBranch = true;
            rec.branchTaken = coin.nextBelow(2) == 0;
        }
    }
    return buf;
}

/** One fused pass over @p src; every engine must finish without error. */
std::vector<AnalysisResult>
fusedResults(trace::TraceSource &src,
             const std::vector<AnalysisConfig> &configs)
{
    std::vector<AnalysisResult> results;
    for (MultiOutcome &o : analyzeManyGuarded(src, configs)) {
        EXPECT_FALSE(o.error);
        results.push_back(std::move(o.result));
    }
    return results;
}

} // namespace

TEST(AnalyzeMany, MatchesIndividualRunsOnRandomTraces)
{
    TraceBuffer buf = randomTrace(17, 5000);
    std::vector<AnalysisConfig> configs = {
        AnalysisConfig::dataflowConservative(),
        AnalysisConfig::dataflowOptimistic(),
        AnalysisConfig::noRenaming(),
        AnalysisConfig::windowed(16),
        AnalysisConfig::windowed(1024),
    };
    trace::BufferSource shared(buf);
    auto together = fusedResults(shared, configs);
    ASSERT_EQ(together.size(), configs.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        trace::BufferSource solo(buf);
        AnalysisResult alone = Paragraph(configs[i]).analyze(solo);
        EXPECT_EQ(together[i].criticalPathLength, alone.criticalPathLength)
            << configs[i].describe();
        EXPECT_EQ(together[i].placedOps, alone.placedOps);
        EXPECT_EQ(together[i].instructions, alone.instructions);
        EXPECT_DOUBLE_EQ(together[i].lifetimes.mean(),
                         alone.lifetimes.mean());
    }
}

TEST(AnalyzeMany, ByteIdenticalUnderWindowFuAndPredictorCombinations)
{
    // The shared-pass invariant must hold not just for the renaming
    // switches but for configs that combine finite windows, functional-unit
    // throttling, and branch-prediction firewalls — each keeps per-engine
    // mutable state (window queue, FU schedule, predictor tables) that a
    // shared pass could corrupt if it leaked across engines.
    TraceBuffer buf = randomTraceWithCondBranches(23, 6000);

    std::vector<AnalysisConfig> configs;

    AnalysisConfig winFu = AnalysisConfig::windowed(64);
    winFu.totalFuLimit = 4;
    configs.push_back(winFu);

    AnalysisConfig winPred = AnalysisConfig::windowed(256);
    winPred.branchPredictor = PredictorKind::Bimodal;
    configs.push_back(winPred);

    AnalysisConfig perClass = AnalysisConfig::windowed(128);
    perClass.fuLimit[static_cast<size_t>(isa::OpClass::IntAlu)] = 2;
    perClass.fuLimit[static_cast<size_t>(isa::OpClass::Load)] = 1;
    perClass.pipelinedFus = true;
    perClass.branchPredictor = PredictorKind::NeverTaken;
    configs.push_back(perClass);

    AnalysisConfig everything = AnalysisConfig::noRenaming();
    everything.windowSize = 32;
    everything.totalFuLimit = 2;
    everything.branchPredictor = PredictorKind::AlwaysWrong;
    everything.sysCallsStall = false;
    configs.push_back(everything);

    AnalysisConfig cappedMix = AnalysisConfig::windowed(512);
    cappedMix.totalFuLimit = 8;
    cappedMix.branchPredictor = PredictorKind::Bimodal;
    cappedMix.maxInstructions = 4000;
    configs.push_back(cappedMix);

    trace::BufferSource shared(buf);
    auto together = fusedResults(shared, configs);
    ASSERT_EQ(together.size(), configs.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].describe());
        trace::BufferSource solo(buf);
        AnalysisResult alone = Paragraph(configs[i]).analyze(solo);
        expectIdenticalResults(together[i], alone);
        // These configs are built to exercise every machinery piece.
        if (configs[i].totalFuLimit || configs[i].fuLimit[0] ||
            configs[i].fuLimit[static_cast<size_t>(isa::OpClass::Load)]) {
            EXPECT_GT(alone.fuDelayedOps, 0u);
        }
        if (configs[i].branchPredictor != PredictorKind::Perfect) {
            EXPECT_GT(alone.condBranches, 0u);
        }
    }
}

TEST(AnalyzeMany, PerEngineInstructionCapsAreIndependent)
{
    TraceBuffer buf = randomTrace(18, 3000);
    AnalysisConfig short_cfg = AnalysisConfig::dataflowConservative();
    short_cfg.maxInstructions = 100;
    AnalysisConfig long_cfg = AnalysisConfig::dataflowConservative();
    long_cfg.maxInstructions = 1000;
    trace::BufferSource src(buf);
    auto results = fusedResults(src, {short_cfg, long_cfg});
    EXPECT_EQ(results[0].instructions, 100u);
    EXPECT_EQ(results[1].instructions, 1000u);
}

TEST(AnalyzeMany, StopsReadingWhenAllEnginesAreDone)
{
    TraceBuffer buf = randomTrace(19, 3000);
    AnalysisConfig cfg = AnalysisConfig::dataflowConservative();
    cfg.maxInstructions = 50;
    trace::BufferSource src(buf);
    fusedResults(src, {cfg, cfg});
    // The shared source must not have been drained past the caps (plus the
    // one record in flight when every engine reported done).
    trace::TraceRecord rec;
    size_t remaining = 0;
    while (src.next(rec))
        ++remaining;
    EXPECT_GE(remaining, buf.size() - 52);
}

TEST(AnalyzeMany, EmptyConfigListYieldsNothing)
{
    TraceBuffer buf = randomTrace(20, 100);
    trace::BufferSource src(buf);
    EXPECT_TRUE(analyzeManyGuarded(src, {}).empty());
}

TEST(AnalyzeMany, GuardedPassContainsCancellationToItsOwnSlot)
{
    // AnalysisConfig::cancel is honored from inside the fused block-major
    // loop, and the CancelledError is parked in the cancelled engine's
    // outcome while every sibling runs to completion — fused sweep groups
    // depend on this to keep one timed-out cell from voiding its group.
    TraceBuffer buf = randomTrace(22, 5000);
    CancelToken poisoned;
    poisoned.cancel();
    AnalysisConfig cancelled = AnalysisConfig::dataflowConservative();
    cancelled.cancel = &poisoned;
    AnalysisConfig healthy = AnalysisConfig::dataflowConservative();

    auto outcomes = analyzeManyGuarded(buf, {healthy, cancelled, healthy});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].error);
    ASSERT_TRUE(outcomes[1].error);
    EXPECT_THROW(std::rethrow_exception(outcomes[1].error), CancelledError);
    EXPECT_FALSE(outcomes[2].error);

    AnalysisResult alone =
        Paragraph(healthy).analyze(buf);
    expectIdenticalResults(outcomes[0].result, alone);
    expectIdenticalResults(outcomes[2].result, alone);
}

TEST(AnalyzeMany, DecodeSharesSumToThePassWait)
{
    // The fused pass waits on its block source once for every config, so
    // each outcome carries an equal share of that wait: the shares sum to
    // no more than the call's wall time, however many configs ride along.
    struct SlowBlocks : trace::BlockSource
    {
        TraceBuffer buf = randomTrace(23, 4000);
        size_t pos = 0;

        size_t
        next(const TraceRecord **records) override
        {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            const size_t n = std::min<size_t>(500, buf.size() - pos);
            *records = buf.records().data() + pos;
            pos += n;
            return n;
        }
    } blocks;
    const std::vector<AnalysisConfig> configs(
        4, AnalysisConfig::dataflowConservative());

    auto t0 = std::chrono::steady_clock::now();
    auto outcomes = analyzeManyGuarded(blocks, configs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    ASSERT_EQ(outcomes.size(), configs.size());
    double decode = 0.0;
    for (const MultiOutcome &o : outcomes) {
        EXPECT_FALSE(o.error);
        EXPECT_GT(o.decodeSeconds, 0.0);
        decode += o.decodeSeconds;
    }
    EXPECT_LE(decode, wall);
}

TEST(AnalyzeMany, WorkloadWindowSweepMatchesSoloRuns)
{
    auto &suite = workloads::WorkloadSuite::instance();
    const auto &w = suite.find("nasker");
    std::vector<AnalysisConfig> configs = {AnalysisConfig::windowed(64),
                                           AnalysisConfig::windowed(4096)};
    auto shared_src = suite.makeSource(w, workloads::Scale::Small);
    auto together = fusedResults(*shared_src, configs);
    for (size_t i = 0; i < configs.size(); ++i) {
        auto solo_src = suite.makeSource(w, workloads::Scale::Small);
        AnalysisResult alone = Paragraph(configs[i]).analyze(*solo_src);
        EXPECT_EQ(together[i].criticalPathLength,
                  alone.criticalPathLength);
        EXPECT_EQ(together[i].placedOps, alone.placedOps);
    }
}
