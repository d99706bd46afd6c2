// Engine-level split-and-patch sharding: a captured `.ptrc` cell run with
// --shard=N must render the byte-identical JSON document of the unsharded
// run for EVERY config — the splice/replay equivalence proved
// record-by-record in tests/core/shard_test.cpp, here end-to-end through
// TraceRepository's captured buffer, the sweep scheduler, and the JSON
// writer. Streamed inputs (a pooled `.ptrc`, a `.ptrz`) never shard. Plus
// the CLI surface: --shard / --stats argument parsing and the --stats
// timing fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/paragraph.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "trace/buffer.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

#include "../core/trace_helpers.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

/** A syscall-bearing random trace persisted as a `.ptrc` file. */
class ShardExec : public ::testing::Test
{
  protected:
    std::string path_;

    void SetUp() override
    {
        // Per-test file name: ctest runs each test as its own process, so
        // sibling tests of this fixture can be live at the same instant.
        path_ = (std::filesystem::temp_directory_path() /
                 (std::string("para_shard_exec_") +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name() +
                  ".ptrc"))
                    .string();
        trace::TraceBuffer buf = testhelpers::randomTrace(17, 20000);
        trace::TraceFileWriter writer(path_);
        trace::BufferSource replay(buf, "shard-exec");
        writer.writeAll(replay);
        writer.close();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** One sweep over @p path (default: the fixture's `.ptrc`), streamed
     *  (@p streamFiles) or captured; returns its no-timing document. */
    std::string
    runSweep(bool streamFiles, unsigned shards,
             const std::vector<core::AnalysisConfig> &cfgs,
             SweepResult *outResult = nullptr, std::string path = {})
    {
        TraceRepository::Options repoOpt;
        repoOpt.streamFiles = streamFiles;
        TraceRepository repo(repoOpt);

        SweepEngine::Options opt;
        opt.jobs = 1;
        opt.groupSize = 1;
        opt.shards = shards;
        SweepEngine sweeper(opt);
        SweepResult result =
            sweeper.run(repo, {path.empty() ? path_ : path}, cfgs);

        SweepJsonOptions json;
        json.timing = false;
        std::string doc = sweepToJson(result, json);
        if (outResult)
            *outResult = std::move(result);
        return doc;
    }
};

} // namespace

TEST_F(ShardExec, ShardedSweepIsByteIdenticalToSolo)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());
    core::AnalysisConfig windowed = core::AnalysisConfig::dataflowConservative();
    windowed.windowSize = 64;
    cfgs.push_back(windowed);
    core::AnalysisConfig plain; // no renaming defaults, still shardable
    cfgs.push_back(plain);

    SweepResult sharded;
    std::string solo = runSweep(false, 1, cfgs);
    std::string split = runSweep(false, 4, cfgs, &sharded);
    EXPECT_EQ(solo, split);

    // And the sharded run really did shard: a 1%-syscall 20K trace has
    // hundreds of firewall candidates, so every cell splits. Every config
    // here stalls with perfect prediction, so every cut is a total
    // firewall and every segment splices.
    ASSERT_EQ(sharded.cells.size(), cfgs.size());
    for (const SweepCell &cell : sharded.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_GE(cell.shardSegments, 2u);
        EXPECT_LE(cell.shardSegments, 4u);
        EXPECT_EQ(cell.shardReplayed, 0u);
    }
}

TEST_F(ShardExec, FormerlyGatedConfigsShardByteIdentically)
{
    // Every config the old firewall-only gate excluded: modeled
    // predictors, non-stalling syscalls, and FU limits all shard now via
    // split-and-patch, still byte-identical to solo.
    std::vector<core::AnalysisConfig> cfgs;
    core::AnalysisConfig bimodal = core::AnalysisConfig::dataflowConservative();
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    cfgs.push_back(bimodal);
    core::AnalysisConfig nostall = core::AnalysisConfig::dataflowConservative();
    nostall.sysCallsStall = false;
    cfgs.push_back(nostall);
    core::AnalysisConfig fu = core::AnalysisConfig::dataflowConservative();
    fu.totalFuLimit = 2;
    cfgs.push_back(fu);

    SweepResult sharded;
    std::string solo = runSweep(false, 1, cfgs);
    std::string split = runSweep(false, 4, cfgs, &sharded);
    EXPECT_EQ(solo, split);
    ASSERT_EQ(sharded.cells.size(), cfgs.size());
    for (const SweepCell &cell : sharded.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_GE(cell.shardSegments, 2u);
        EXPECT_LE(cell.shardSegments, 4u);
        EXPECT_EQ(cell.shardSpliced + cell.shardReplayed,
                  cell.shardSegments);
    }
}

TEST_F(ShardExec, MoreShardsThanSegmentsClampAndStayExact)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());
    core::AnalysisConfig bimodal = cfgs[0];
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    cfgs.push_back(bimodal);

    SweepResult sharded;
    std::string solo = runSweep(false, 1, cfgs);
    std::string split = runSweep(false, 64, cfgs, &sharded);
    EXPECT_EQ(solo, split);
    for (const SweepCell &cell : sharded.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_GE(cell.shardSegments, 2u);
        EXPECT_LE(cell.shardSegments, 64u);
    }
}

TEST_F(ShardExec, StreamedCellsRunUnsharded)
{
    // A streamed input — a `.ptrc` read off the shared decode pool, or a
    // `.ptrz` — never shards: --shard=4 takes the same unsharded pass as
    // --shard=1, so no cell reports segments and the documents match.
    const std::string ptrz = path_ + ".ptrz";
    {
        trace::TraceFileReader reader(path_);
        trace::CompressedTraceWriter writer(ptrz);
        writer.writeAll(reader);
        writer.close();
    }
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());
    core::AnalysisConfig bimodal = cfgs[0];
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    cfgs.push_back(bimodal);

    for (const std::string &path : {path_, ptrz}) {
        SCOPED_TRACE(path);
        SweepResult sharded;
        std::string solo = runSweep(true, 1, cfgs, nullptr, path);
        std::string split = runSweep(true, 4, cfgs, &sharded, path);
        EXPECT_EQ(solo, split);
        ASSERT_EQ(sharded.cells.size(), cfgs.size());
        for (const SweepCell &cell : sharded.cells) {
            EXPECT_TRUE(cell.ok()) << cell.errorMessage;
            EXPECT_EQ(cell.shardSegments, 0u);
            EXPECT_LE(cell.decodeSeconds, cell.wallSeconds);
        }
    }
    std::remove(ptrz.c_str());
}

TEST_F(ShardExec, StatsEmitDecodeAnalyzeSplitAndSegments)
{
    std::vector<core::AnalysisConfig> cfgs;
    cfgs.push_back(core::AnalysisConfig::dataflowConservative());

    TraceRepository::Options repoOpt;
    repoOpt.streamFiles = true;
    TraceRepository repo(repoOpt);
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.shards = 2;
    SweepEngine sweeper(opt);
    SweepResult result = sweeper.run(repo, {path_}, cfgs);

    SweepJsonOptions json;
    json.stats = true;
    std::string doc = sweepToJson(result, json);
    EXPECT_NE(doc.find("\"decode_seconds\""), std::string::npos);
    EXPECT_NE(doc.find("\"analyze_seconds\""), std::string::npos);
    EXPECT_NE(doc.find("\"shard_segments\""), std::string::npos);

    // --no-timing still wins: stats ride inside the timing object.
    json.timing = false;
    doc = sweepToJson(result, json);
    EXPECT_EQ(doc.find("decode_seconds"), std::string::npos);
    EXPECT_EQ(doc.find("shard_segments"), std::string::npos);
}

TEST(ShardArgs, ShardAndStatsFlagsParse)
{
    SweepArgs opt;
    std::string error;
    EXPECT_TRUE(parseSweepArgs({"--shard=4", "--stats", "xlisp"}, opt,
                               error))
        << error;
    EXPECT_EQ(opt.shards, 4u);
    EXPECT_TRUE(opt.json.stats);

    SweepArgs bad;
    EXPECT_FALSE(parseSweepArgs({"--shard=0", "xlisp"}, bad, error));
    EXPECT_FALSE(parseSweepArgs({"--shard=none", "xlisp"}, bad, error));
}

TEST(ShardArgs, DefaultIsUnsharded)
{
    SweepArgs opt;
    std::string error;
    ASSERT_TRUE(parseSweepArgs({"xlisp"}, opt, error)) << error;
    EXPECT_EQ(opt.shards, 1u);
    EXPECT_FALSE(opt.json.stats);
}
