// Fault-tolerance tests for the sweep engine: per-cell isolation (one bad
// input or poisoned config never voids the grid), retry and deadline
// semantics, progress-callback containment, and checkpoint/resume through
// the result store (`--journal`) — including the byte-identity guarantee
// that a resumed sweep's JSON equals an uninterrupted run's.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "engine/result_store.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

constexpr const char *badInput = "no-such-workload";

TraceRepository::Options
smallScale()
{
    TraceRepository::Options opt;
    opt.scale = workloads::Scale::Small;
    opt.maxRecords = 2000;
    return opt;
}

std::vector<core::AnalysisConfig>
fourConfigs()
{
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 64u, 256u, 0u}) {
        core::AnalysisConfig cfg;
        cfg.windowSize = w;
        cfg.maxInstructions = 2000;
        configs.push_back(cfg);
    }
    return configs;
}

std::vector<std::string>
fourLabels()
{
    return {"w16", "w64", "w256", "winf"};
}

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() / stem).string();
}

SweepJsonOptions
noTiming()
{
    SweepJsonOptions opt;
    opt.timing = false;
    return opt;
}

} // namespace

TEST(SweepFaults, BadInputFailsItsCellsOnly)
{
    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 4;
    SweepResult sweep =
        SweepEngine(opt).run(repo, inputs, fourConfigs(), fourLabels());

    ASSERT_EQ(sweep.cells.size(), 12u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        if (cell.job.input == badInput) {
            EXPECT_EQ(cell.status, SweepCell::Status::Failed);
            EXPECT_NE(cell.errorMessage.find("unknown workload"),
                      std::string::npos)
                << cell.errorMessage;
        } else {
            EXPECT_EQ(cell.status, SweepCell::Status::Ok);
            EXPECT_TRUE(cell.errorMessage.empty());
            EXPECT_GT(cell.result.instructions, 0u);
        }
    }
}

TEST(SweepFaults, SurvivingCellsMatchCleanRunByteForByte)
{
    TraceRepository repoClean(smallScale());
    SweepResult clean = SweepEngine(SweepEngine::Options{}).run(
        repoClean, {"xlisp", "matrix300"}, fourConfigs(), fourLabels());

    TraceRepository repoFaulty(smallScale());
    SweepResult faulty = SweepEngine(SweepEngine::Options{}).run(
        repoFaulty, {"xlisp", "matrix300", badInput}, fourConfigs(),
        fourLabels());

    // The bad input rides on a third input-axis row, so the surviving
    // cells occupy the same grid positions as the clean run's.
    ASSERT_EQ(clean.cells.size(), 8u);
    for (size_t i = 0; i < clean.cells.size(); ++i) {
        EXPECT_EQ(cellToJson(clean.cells[i], noTiming()),
                  cellToJson(faulty.cells[i], noTiming()))
            << "cell " << i;
    }
}

TEST(SweepFaults, PoisonedConfigFailsWithoutRetry)
{
    core::CancelToken poisoned;
    poisoned.cancel("injected poison");

    std::vector<core::AnalysisConfig> configs = fourConfigs();
    configs[1].cancel = &poisoned;

    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.maxRetries = 3; // must NOT burn retries on a cancelled cell
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, configs,
                                             fourLabels());

    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 1u);
    const SweepCell &failed = sweep.cells[1];
    EXPECT_EQ(failed.status, SweepCell::Status::Failed);
    EXPECT_EQ(failed.errorMessage, "injected poison");
    EXPECT_EQ(failed.attempts, 1u);
}

TEST(SweepFaults, RetriesAreCountedForOrdinaryFailures)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.maxRetries = 2;
    SweepResult sweep = SweepEngine(opt).run(repo, {badInput},
                                             fourConfigs(), fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_EQ(cell.attempts, 3u); // 1 + maxRetries, all consumed
    }
}

TEST(SweepFaults, ExpiredDeadlineTimesCellsOut)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.cellDeadlineSeconds = 1e-9; // expires before the first checkpoint
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_NE(cell.errorMessage.find("deadline"), std::string::npos)
            << cell.errorMessage;
        EXPECT_EQ(cell.attempts, 1u); // timeouts are final, never retried
    }
}

TEST(SweepFaults, ThrowingProgressCallbackDoesNotAbortTheSweep)
{
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.progress = [](size_t, size_t, double) {
        throw std::runtime_error("observer bug");
    };
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 0u);
    for (const SweepCell &cell : sweep.cells)
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);
}

TEST(SweepFaults, FusedGroupDeadlineTimesOutEachCellIndependently)
{
    // All four cells share one fused pass (--group semantics); every cell
    // carries its own deadline token, so a group-wide timeout reports four
    // individual final timeouts — exactly like the ungrouped sweep — and
    // cancellation is never demoted to a solo re-run.
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.groupSize = 4;
    opt.cellDeadlineSeconds = 1e-9; // expires before the first checkpoint
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(),
                                             fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    EXPECT_EQ(sweep.cellsFailed, 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_NE(cell.errorMessage.find("deadline"), std::string::npos)
            << cell.errorMessage;
        EXPECT_EQ(cell.attempts, 1u); // timeouts are final, never retried
    }
}

TEST(SweepFaults, FusedGroupBadInputBurnsRetriesLikeSolo)
{
    // A group-level error (unreadable input) demotes every member to the
    // solo attempts loop, and the demotion itself consumes no attempt:
    // the attempt counters must match an ungrouped sweep exactly.
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.groupSize = 4;
    opt.maxRetries = 2;
    SweepResult sweep = SweepEngine(opt).run(repo, {badInput},
                                             fourConfigs(), fourLabels());
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_EQ(cell.status, SweepCell::Status::Failed);
        EXPECT_EQ(cell.attempts, 3u); // 1 + maxRetries, all consumed
    }
}

TEST(SweepFaults, FusedSweepJsonMatchesUngroupedSweep)
{
    // The whole point of trace-major grouping is that it changes only the
    // wall clock: with timing fields off, a fused sweep's document — bad
    // input and all — is byte-identical to the group-of-one sweep's.
    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};

    TraceRepository repoSolo(smallScale());
    SweepEngine::Options solo;
    solo.groupSize = 1;
    solo.maxRetries = 1;
    SweepResult soloRun = SweepEngine(solo).run(repoSolo, inputs,
                                                fourConfigs(), fourLabels());

    for (unsigned group : {0u, 2u, 4u}) { // 0 = auto
        TraceRepository repoFused(smallScale());
        SweepEngine::Options fused;
        fused.groupSize = group;
        fused.maxRetries = 1;
        SweepResult fusedRun = SweepEngine(fused).run(
            repoFused, inputs, fourConfigs(), fourLabels());
        EXPECT_EQ(sweepToJson(fusedRun, noTiming()),
                  sweepToJson(soloRun, noTiming()))
            << "group=" << group;
    }
}

TEST(SweepJournalTest, FusedSweepJournalResumeMatchesSoloDocument)
{
    // Storing and serving are per-cell even when cells run fused: a fused
    // sweep's store resumes into the same document an ungrouped sweep
    // produces.
    std::string journalPath = tempPath("para_fault_fused_journal.jsonl");
    std::remove(journalPath.c_str());

    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};

    TraceRepository repoSolo(smallScale());
    SweepEngine::Options solo;
    solo.groupSize = 1;
    SweepResult soloRun = SweepEngine(solo).run(repoSolo, inputs,
                                                fourConfigs(), fourLabels());

    SweepEngine::Options fused;
    fused.groupSize = 4;
    fused.journalPath = journalPath;
    TraceRepository repo1(smallScale());
    SweepResult run1 = SweepEngine(fused).run(repo1, inputs, fourConfigs(),
                                              fourLabels());
    EXPECT_EQ(sweepToJson(run1, noTiming()), sweepToJson(soloRun, noTiming()));
    EXPECT_EQ(ResultStore(journalPath).entries(), 8u); // ok cells only

    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(fused).run(repo2, inputs, fourConfigs(),
                                              fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 8u);
    EXPECT_EQ(run2.cellsFailed, 4u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(soloRun, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, ResumeSkipsOkCellsAndReproducesTheDocument)
{
    std::string journalPath = tempPath("para_fault_journal.jsonl");
    std::remove(journalPath.c_str());

    std::vector<std::string> inputs = {"xlisp", badInput, "matrix300"};
    SweepEngine::Options opt;
    opt.journalPath = journalPath;

    // First (interrupted-equivalent) run: store every ok cell, bad input
    // fails its row.
    TraceRepository repo1(smallScale());
    SweepResult run1 = SweepEngine(opt).run(repo1, inputs, fourConfigs(),
                                            fourLabels());
    EXPECT_EQ(run1.cellsFailed, 4u);
    EXPECT_EQ(run1.cellsSkipped, 0u);

    // Rerun on the same store: only the failed cells may re-run.
    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(opt).run(repo2, inputs, fourConfigs(),
                                            fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 8u);
    EXPECT_EQ(run2.cellsFailed, 4u);

    // The resumed document must be byte-identical to the full run's
    // (timing excluded: stored cells carry none).
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, JournalMismatchedGridIsNotResumed)
{
    std::string journalPath = tempPath("para_fault_mismatch.jsonl");
    std::remove(journalPath.c_str());

    SweepEngine::Options opt;
    opt.journalPath = journalPath;
    TraceRepository repo1(smallScale());
    SweepEngine(opt).run(repo1, {"xlisp"}, fourConfigs(), fourLabels());

    // Same cell indices, different input: nothing may be served.
    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(opt).run(repo2, {"matrix300"},
                                            fourConfigs(), fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 0u);
    for (const SweepCell &cell : run2.cells)
        EXPECT_EQ(cell.status, SweepCell::Status::Ok);

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, TruncatedJournalLinesAreSkippedNotFatal)
{
    std::string journalPath = tempPath("para_fault_torn.jsonl");
    std::remove(journalPath.c_str());

    SweepEngine::Options opt;
    opt.journalPath = journalPath;
    TraceRepository repo1(smallScale());
    SweepResult run1 = SweepEngine(opt).run(repo1, {"xlisp"}, fourConfigs(),
                                            fourLabels());

    // Simulate a crash mid-append: chop the tail off the last line, which
    // is far longer than 10 bytes, so it can no longer parse.
    std::uintmax_t size = std::filesystem::file_size(journalPath);
    std::filesystem::resize_file(journalPath, size - 10);

    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(opt).run(repo2, {"xlisp"}, fourConfigs(),
                                            fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 3u);
    EXPECT_EQ(run2.cellsFailed, 0u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, TrailingGarbageAfterValidEntriesIsSkipped)
{
    // A crash can leave anything after the last good line: binary junk,
    // torn JSON, or well-formed objects missing required fields. None of
    // it may void the entries already stored.
    std::string journalPath = tempPath("para_fault_garbage.jsonl");
    std::remove(journalPath.c_str());

    SweepEngine::Options opt;
    opt.journalPath = journalPath;
    TraceRepository repo1(smallScale());
    SweepResult run1 = SweepEngine(opt).run(repo1, {"xlisp"}, fourConfigs(),
                                            fourLabels());

    {
        std::ofstream out(journalPath, std::ios::app | std::ios::binary);
        out << "{\"trace_crc\": 7, \"config_key\": 1";   // torn mid-write
        out << std::string("\x00\xff\x01garbage\x7f", 12) // binary junk
            << "\n";
        out << "not json at all\n";
        out << "{\"trace_crc\": 9}\n"; // parses, but fields are missing
        out << "{\"trace_crc\": 1, \"config_key\": 2, \"profiles\": "
               "\"maybe\", \"cell\": \"{}\"}\n"; // wrong field type
        out << "\n"; // blank lines are fine anywhere
    }

    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(opt).run(repo2, {"xlisp"}, fourConfigs(),
                                            fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 4u);
    EXPECT_EQ(run2.cellsFailed, 0u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, StoreAppendFailureWarnsAndTheSweepCompletes)
{
    // Losing a checkpoint must not fail the sweep: a failed append turns
    // storing off for the rest of the run with a warning, every cell still
    // completes, and a rerun recomputes what was never stored.
    std::string journalPath = tempPath("para_fault_append.jsonl");
    std::remove(journalPath.c_str());

    SweepEngine::Options opt;
    opt.journalPath = journalPath;
    std::string error;
    ASSERT_TRUE(failpoint::configure("store.append.fail=once", error))
        << error;
    TraceRepository repo1(smallScale());
    SweepResult run1 = SweepEngine(opt).run(repo1, {"xlisp"}, fourConfigs(),
                                            fourLabels());
    failpoint::reset();
    EXPECT_EQ(run1.cellsFailed, 0u);
    EXPECT_EQ(ResultStore(journalPath).entries(), 0u);

    TraceRepository repo2(smallScale());
    SweepResult run2 = SweepEngine(opt).run(repo2, {"xlisp"}, fourConfigs(),
                                            fourLabels());
    EXPECT_EQ(run2.cellsSkipped, 0u);
    EXPECT_EQ(sweepToJson(run2, noTiming()), sweepToJson(run1, noTiming()));

    std::remove(journalPath.c_str());
}

TEST(SweepJournalTest, NotAJournalIsFatal)
{
    // Anything but a result store is refused with the file's name in the
    // error — including a line-per-grid-index journal from before the
    // store was the one persistence format.
    std::string path = tempPath("para_fault_notjournal.jsonl");
    for (const char *header :
         {"{\"schema\": \"something-else\"}\n",
          "{\"schema\": \"paragraph-sweep-journal-v1\", \"profiles\": "
          "true}\n"}) {
        {
            std::ofstream out(path);
            out << header;
        }
        SweepEngine::Options opt;
        opt.journalPath = path;
        TraceRepository repo(smallScale());
        try {
            SweepEngine(opt).run(repo, {"xlisp"}, fourConfigs(), fourLabels());
            ADD_FAILURE() << "expected FatalError for " << header;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(SweepCliFaults, FaultySweepExitsZeroAndResumeReproducesIt)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "para_cli_fault").string();
    fs::create_directories(dir);
    std::string cleanOut = dir + "/clean.json";
    std::string faultyOut = dir + "/faulty.json";
    std::string resumedOut = dir + "/resumed.json";
    std::string journal = dir + "/journal.jsonl";
    std::remove(journal.c_str());

    std::string base = std::string(PARAGRAPH_SWEEP_CLI_PATH) +
                       " --small --max=2000 --windows=16,64,256,0"
                       " --no-timing --quiet";
    auto runCmd = [](const std::string &cmd) {
        return std::system(cmd.c_str());
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };

    // A sweep with one bad input must still exit 0 and name the failures.
    int status = runCmd(base + " --inputs=xlisp," + badInput +
                        ",matrix300 --journal=" + journal +
                        " --out=" + faultyOut + " 2>/dev/null");
    ASSERT_EQ(status, 0);
    std::string faulty = slurp(faultyOut);
    EXPECT_NE(faulty.find("\"cells_failed\": 4"), std::string::npos);
    EXPECT_NE(faulty.find("unknown workload"), std::string::npos);

    // Rerunning on the same store reproduces the document byte-for-byte.
    status = runCmd(base + " --inputs=xlisp," + badInput +
                    ",matrix300 --journal=" + journal +
                    " --out=" + resumedOut + " 2>/dev/null");
    ASSERT_EQ(status, 0);
    EXPECT_EQ(slurp(resumedOut), faulty);

    // And the clean two-input sweep agrees with the surviving cells: same
    // document except for the failed row and the cell/fail counters.
    status = runCmd(base + " --inputs=xlisp,matrix300 --out=" + cleanOut +
                    " 2>/dev/null");
    ASSERT_EQ(status, 0);
    std::string clean = slurp(cleanOut);
    EXPECT_NE(clean.find("\"cells_failed\": 0"), std::string::npos);

    fs::remove_all(dir);
}
