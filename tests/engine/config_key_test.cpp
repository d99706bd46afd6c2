// Config fingerprinting (engine/config_key.hpp): the canonical text and
// CRC-32 key that content-address analysis configs in the result store
// behind paragraph-sweep --journal and paragraph-serve. The key must be
// stable run to run, sensitive to every semantic field, and collision-free
// across the config shapes the project actually sweeps.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/config.hpp"
#include "engine/config_key.hpp"
#include "engine/sweep.hpp"

using namespace paragraph;
using core::AnalysisConfig;

TEST(ConfigKey, IsDeterministicAndVersioned)
{
    AnalysisConfig cfg;
    std::string text = engine::canonicalConfigText(cfg);
    EXPECT_EQ(text.rfind("paragraph-config-v1", 0), 0u)
        << "canonical text must lead with its format version";
    EXPECT_EQ(text, engine::canonicalConfigText(cfg));
    EXPECT_EQ(engine::configKey(cfg), engine::configKey(cfg));
}

TEST(ConfigKey, CancelTokenIsNotPartOfTheIdentity)
{
    // The cancel pointer is plumbing, not analysis semantics: the same
    // config with and without a token must cache under the same address.
    AnalysisConfig cfg;
    uint32_t bare = engine::configKey(cfg);
    core::CancelToken token;
    cfg.cancel = &token;
    EXPECT_EQ(engine::configKey(cfg), bare);
}

TEST(ConfigKey, EverySemanticFieldChangesTheKey)
{
    AnalysisConfig base;
    uint32_t baseKey = engine::configKey(base);

    auto differs = [&](AnalysisConfig cfg, const char *what) {
        EXPECT_NE(engine::configKey(cfg), baseKey) << what;
    };

    AnalysisConfig c = base;
    c.sysCallsStall = !c.sysCallsStall;
    differs(c, "sysCallsStall");

    c = base;
    c.renameRegisters = !c.renameRegisters;
    differs(c, "renameRegisters");

    c = base;
    c.renameData = !c.renameData;
    differs(c, "renameData");

    c = base;
    c.renameStack = !c.renameStack;
    differs(c, "renameStack");

    c = base;
    c.windowSize = c.windowSize + 1;
    differs(c, "windowSize");

    c = base;
    c.branchPredictor = core::PredictorKind::AlwaysWrong;
    differs(c, "branchPredictor");

    c = base;
    c.predictorTableBits = c.predictorTableBits + 1;
    differs(c, "predictorTableBits");

    c = base;
    c.fuLimit[0] = c.fuLimit[0] + 1;
    differs(c, "fuLimit");

    c = base;
    c.totalFuLimit = c.totalFuLimit + 1;
    differs(c, "totalFuLimit");

    c = base;
    c.pipelinedFus = !c.pipelinedFus;
    differs(c, "pipelinedFus");

    c = base;
    c.latency[0] = c.latency[0] + 1;
    differs(c, "latency");

    c = base;
    c.maxInstructions = c.maxInstructions + 1;
    differs(c, "maxInstructions");

    c = base;
    c.profileBins = c.profileBins + 1;
    differs(c, "profileBins");

    c = base;
    c.collectLifetimes = !c.collectLifetimes;
    differs(c, "collectLifetimes");

    c = base;
    c.collectSharing = !c.collectSharing;
    differs(c, "collectSharing");

    c = base;
    c.collectStorageProfile = !c.collectStorageProfile;
    differs(c, "collectStorageProfile");

    c = base;
    c.useLastUseEviction = !c.useLastUseEviction;
    differs(c, "useLastUseEviction");
}

TEST(ConfigKey, FuzzOracleMatrixIsCollisionFree)
{
    // The eight config shapes the fuzz oracle crosses every generated
    // trace with (src/fuzz/invariant_oracle.cpp buildMatrix) must all land
    // on distinct keys — these are the configs most likely to coexist in
    // one result store.
    std::vector<AnalysisConfig> matrix;
    AnalysisConfig base;
    matrix.push_back(base);

    AnalysisConfig w = base;
    w.windowSize = 16;
    matrix.push_back(w);
    w.windowSize = 64;
    matrix.push_back(w);

    AnalysisConfig rn = base;
    rn.renameRegisters = rn.renameData = rn.renameStack = false;
    matrix.push_back(rn);
    rn.renameRegisters = true;
    matrix.push_back(rn);

    AnalysisConfig sc = base;
    sc.sysCallsStall = false;
    matrix.push_back(sc);

    AnalysisConfig fu = base;
    fu.totalFuLimit = 2;
    matrix.push_back(fu);

    AnalysisConfig bp = base;
    bp.branchPredictor = core::PredictorKind::AlwaysWrong;
    matrix.push_back(bp);

    ASSERT_EQ(matrix.size(), 8u);
    std::set<uint32_t> keys;
    std::set<std::string> texts;
    for (const AnalysisConfig &cfg : matrix) {
        keys.insert(engine::configKey(cfg));
        texts.insert(engine::canonicalConfigText(cfg));
    }
    EXPECT_EQ(texts.size(), matrix.size()) << "canonical texts collided";
    EXPECT_EQ(keys.size(), matrix.size()) << "CRC-32 keys collided";
}

TEST(ConfigKey, JournalEntriesMatchOnFingerprintNotJustLabel)
{
    // Two different configs can share a label (labels elide axes at their
    // defaults); the result store behind --journal must never serve a cell
    // whose config fingerprint disagrees with the job it is asked to
    // satisfy.
    std::string path = (std::filesystem::temp_directory_path() /
                        "para_config_key_store.jsonl")
                           .string();
    std::filesystem::remove(path);

    engine::SweepJob job;
    job.input = "xlisp";
    job.configLabel = "window=16";
    job.config.windowSize = 16;
    job.config.maxInstructions = 2000;

    engine::SweepEngine::Options opt;
    opt.journalPath = path;
    auto run = [&opt](const engine::SweepJob &j) {
        engine::TraceRepository::Options ro;
        ro.scale = workloads::Scale::Small;
        engine::TraceRepository repo(ro);
        return engine::SweepEngine(opt).runJobs(repo, {j});
    };
    EXPECT_EQ(run(job).cellsSkipped, 0u);
    EXPECT_EQ(run(job).cellsSkipped, 1u);

    // Same input, same label, different analysis: a miss, computed fresh.
    engine::SweepJob other = job;
    other.config.sysCallsStall = !other.config.sysCallsStall;
    engine::SweepResult r = run(other);
    EXPECT_EQ(r.cellsSkipped, 0u);
    ASSERT_EQ(r.cells.size(), 1u);
    EXPECT_EQ(r.cells[0].status, engine::SweepCell::Status::Ok);
    std::filesystem::remove(path);
}
