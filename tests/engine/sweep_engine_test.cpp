// Tests for the parallel sweep engine: shared trace capture
// (engine::TraceRepository), the threaded grid runner (engine::SweepEngine),
// and the stable JSON writer (engine::sweep_json).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "core/paragraph.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "engine/trace_repository.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

using namespace paragraph;
using namespace paragraph::engine;

namespace {

TraceRepository::Options
smallScale()
{
    TraceRepository::Options opt;
    opt.scale = workloads::Scale::Small;
    return opt;
}

/**
 * Assert two AnalysisResults are identical in every deterministic field,
 * including the full profile bins and distribution counts. Doubles are
 * compared exactly: identical analysis must produce bit-identical output.
 */
void
expectIdenticalResults(const core::AnalysisResult &a,
                       const core::AnalysisResult &b)
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

    ASSERT_EQ(a.profile.numBins(), b.profile.numBins());
    EXPECT_EQ(a.profile.bucketWidth(), b.profile.bucketWidth());
    EXPECT_EQ(a.profile.maxLevel(), b.profile.maxLevel());
    for (size_t i = 0; i < a.profile.numBins(); ++i)
        ASSERT_EQ(a.profile.binCount(i), b.profile.binCount(i)) << i;

    EXPECT_EQ(a.lifetimes.totalCount(), b.lifetimes.totalCount());
    EXPECT_EQ(a.lifetimes.maxSample(), b.lifetimes.maxSample());
    EXPECT_EQ(a.lifetimes.mean(), b.lifetimes.mean());
    EXPECT_EQ(a.sharing.totalCount(), b.sharing.totalCount());
    EXPECT_EQ(a.sharing.mean(), b.sharing.mean());
    EXPECT_EQ(a.storageProfile.intervals(), b.storageProfile.intervals());
    EXPECT_EQ(a.storageProfile.peakLive(), b.storageProfile.peakLive());
}

} // namespace

TEST(TraceRepository, CapturesOnceAndShares)
{
    TraceRepository repo(smallScale());
    auto first = repo.get("xlisp");
    auto second = repo.get("xlisp");
    EXPECT_EQ(first.get(), second.get()); // same capture, not a re-run
    EXPECT_EQ(repo.cachedInputs(), 1u);
    EXPECT_GT(first->size(), 0u);

    repo.release("xlisp");
    EXPECT_EQ(repo.cachedInputs(), 0u);
    // The released capture stays alive through our shared_ptr.
    EXPECT_GT(first->size(), 0u);
}

TEST(TraceRepository, SourcesReplayTheSharedCapture)
{
    TraceRepository repo(smallScale());
    auto buf = repo.get("matrix300");
    auto blocks = repo.blocks("matrix300");

    const trace::TraceRecord *records = nullptr;
    size_t n = 0;
    while (size_t got = blocks->next(&records)) {
        // In-place slices of the shared capture, not copies.
        EXPECT_EQ(records, buf->records().data() + n);
        n += got;
    }
    EXPECT_EQ(n, buf->size());

    // A second blocks() call starts at record 0.
    auto again = repo.blocks("matrix300");
    ASSERT_GT(again->next(&records), 0u);
    EXPECT_EQ(records[0], (*buf)[0]);
}

TEST(TraceRepository, MaxRecordsCapsTheCapture)
{
    TraceRepository::Options opt = smallScale();
    opt.maxRecords = 100;
    TraceRepository repo(opt);
    EXPECT_EQ(repo.get("xlisp")->size(), 100u);
}

TEST(TraceRepository, OpensTraceFilesByExtension)
{
    namespace fs = std::filesystem;
    std::string path = (fs::temp_directory_path() / "repo_cap.ptrz").string();

    TraceRepository repo(smallScale());
    auto live = repo.get("xlisp");
    {
        trace::CompressedTraceWriter writer(path);
        trace::SharedBufferSource src(live, "xlisp");
        writer.writeAll(src);
        writer.close();
    }

    auto fromFile = repo.get(path);
    ASSERT_EQ(fromFile->size(), live->size());
    EXPECT_EQ(fromFile->records(), live->records());
    fs::remove(path);
}

TEST(TraceRepository, UnknownInputThrows)
{
    TraceRepository repo(smallScale());
    EXPECT_THROW(repo.get("no-such-workload"), FatalError);
}

TEST(TraceRepository, PooledTraceCrcIsTheVerifiedPayloadCrc)
{
    // An uncapped v2 `.ptrc` is keyed by the payload CRC its decode pool
    // verified on open; it must equal the CRC of a full capture, the value
    // every other input (and every stored cell) is keyed by. A capped pool
    // never verified the whole payload, so it keeps the capture path and
    // is keyed by the capped records.
    namespace fs = std::filesystem;
    size_t traces = 0;
    for (const auto &entry : fs::directory_iterator(PARAGRAPH_GOLDEN_DIR)) {
        if (entry.path().extension() != ".ptrc")
            continue;
        ++traces;
        const std::string path = entry.path().string();
        TraceRepository captured(smallScale());
        const uint32_t whole = trace::traceBufferCrc(*captured.get(path));
        EXPECT_EQ(captured.traceCrc(path), whole) << path;

        TraceRepository::Options opt = smallScale();
        opt.streamFiles = true;
        TraceRepository pooled(opt);
        auto pool = pooled.decodePool(path);
        ASSERT_NE(pool, nullptr) << path;
        EXPECT_EQ(pool->file().storedPayloadCrc(), whole) << path;
        EXPECT_EQ(pooled.traceCrc(path), whole) << path;

        opt.maxRecords = 100;
        TraceRepository capped(opt);
        TraceRepository::Options headOpt = smallScale();
        headOpt.maxRecords = 100;
        TraceRepository head(headOpt);
        const uint32_t headCrc = trace::traceBufferCrc(*head.get(path));
        EXPECT_NE(headCrc, whole) << path;
        EXPECT_EQ(capped.traceCrc(path), headCrc) << path;
    }
    EXPECT_EQ(traces, 2u);
}

TEST(TraceRepository, StreamingSourcesMatchTheCaptureWithoutCaching)
{
    // streamFiles serves trace files by re-opening them per block source:
    // the records (and the maxRecords cap) must match a capture exactly,
    // but nothing is held in the cache.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "repo_stream.ptrz").string();

    TraceRepository capRepo(smallScale());
    auto live = capRepo.get("xlisp");
    {
        trace::CompressedTraceWriter writer(path);
        trace::SharedBufferSource src(live, "xlisp");
        writer.writeAll(src);
        writer.close();
    }

    TraceRepository::Options opt = smallScale();
    opt.maxRecords = 150;
    opt.streamFiles = true;
    TraceRepository streamRepo(opt);
    EXPECT_TRUE(streamRepo.streamingInput(path));
    EXPECT_FALSE(streamRepo.streamingInput("xlisp"));

    auto blocks = streamRepo.blocks(path);
    const trace::TraceRecord *records = nullptr;
    size_t n = 0;
    while (size_t got = blocks->next(&records)) {
        for (size_t i = 0; i < got; ++i)
            EXPECT_EQ(records[i], (*live)[n + i]);
        n += got;
    }
    EXPECT_EQ(n, 150u); // capped exactly like a capture would be
    EXPECT_EQ(streamRepo.cachedInputs(), 0u);

    // A second blocks() call starts at record 0.
    auto again = streamRepo.blocks(path);
    ASSERT_GT(again->next(&records), 0u);
    EXPECT_EQ(records[0], (*live)[0]);
    EXPECT_EQ(streamRepo.cachedInputs(), 0u);
    fs::remove(path);
}

TEST(SweepEngine, StreamingSweepJsonMatchesCapturedSweep)
{
    // A streamed trace-file sweep — solo or fused — must serialize to the
    // same document as the captured sweep of the same file.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "sweep_stream.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource src(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }

    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowConservative(),
    };
    SweepJsonOptions json;
    json.timing = false;

    TraceRepository::Options capOpt = smallScale();
    capOpt.maxRecords = 1500;
    TraceRepository capRepo(capOpt);
    SweepEngine::Options soloOpt;
    soloOpt.jobs = 2;
    std::string captured = sweepToJson(
        SweepEngine(soloOpt).run(capRepo, {path}, configs), json);

    for (unsigned group : {1u, 4u}) {
        TraceRepository::Options streamOpt = capOpt;
        streamOpt.streamFiles = true;
        TraceRepository streamRepo(streamOpt);
        SweepEngine::Options opt;
        opt.jobs = 2;
        opt.groupSize = group;
        std::string streamed = sweepToJson(
            SweepEngine(opt).run(streamRepo, {path}, configs), json);
        EXPECT_EQ(streamed, captured) << "group=" << group;
        EXPECT_EQ(streamRepo.cachedInputs(), 0u) << "group=" << group;
    }
    fs::remove(path);
}

TEST(SweepEngine, EveryInputKindAndGroupingMatchesSoloAnalyze)
{
    // Every way TraceRepository::blocks() reads a cell's trace — slices of
    // a capture, the shared decode pool, a private pipeline over an
    // unmappable `.ptrc` or over a `.ptrz` — solo or fused, capped or not,
    // must render each cell exactly as an independent Paragraph::analyze
    // over the captured buffer.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sweep_input_kinds";
    fs::create_directories(dir);
    const std::string ptrc = (dir / "xlisp.ptrc").string();
    const std::string ptrz = (dir / "xlisp.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource plain(seed.get("xlisp"), "xlisp");
        trace::TraceFileWriter writer(ptrc);
        writer.writeAll(plain);
        writer.close();
        trace::SharedBufferSource packed(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter zwriter(ptrz);
        zwriter.writeAll(packed);
        zwriter.close();
    }

    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowConservative(),
    };
    SweepJsonOptions json;
    json.timing = false;

    struct Kind
    {
        const char *name;
        std::string path;
        bool stream;
        bool pooled;
        const char *failpoint;
    };
    const Kind kinds[] = {
        {"captured .ptrc", ptrc, false, false, nullptr},
        {"pooled .ptrc", ptrc, true, true, nullptr},
        {"unmapped .ptrc", ptrc, true, false, "trace.mmap.map=after:0"},
        {"streamed .ptrz", ptrz, true, false, nullptr},
    };
    struct ResetFailpoints
    {
        ~ResetFailpoints() { failpoint::reset(); }
    } resetAtExit;

    for (uint64_t maxRecords : {uint64_t(0), uint64_t(1500)}) {
        TraceRepository::Options refOpt = smallScale();
        refOpt.maxRecords = maxRecords;
        TraceRepository ref(refOpt);
        for (const Kind &kind : kinds) {
            for (unsigned group : {1u, 4u}) {
                SCOPED_TRACE(std::string(kind.name) + " group=" +
                             std::to_string(group) +
                             " maxRecords=" + std::to_string(maxRecords));
                std::string error;
                if (kind.failpoint) {
                    ASSERT_TRUE(failpoint::configure(kind.failpoint, error))
                        << error;
                }
                TraceRepository::Options ro = refOpt;
                ro.streamFiles = kind.stream;
                TraceRepository repo(ro);
                EXPECT_EQ(repo.decodePool(kind.path) != nullptr,
                          kind.pooled);
                SweepEngine::Options opt;
                opt.jobs = 2;
                opt.groupSize = group;
                SweepResult sweep =
                    SweepEngine(opt).run(repo, {kind.path}, configs);
                failpoint::reset();

                EXPECT_EQ(sweep.fusedGroups, configs.size() / group);
                ASSERT_EQ(sweep.cells.size(), configs.size());
                auto buffer = ref.get(kind.path);
                if (maxRecords) {
                    ASSERT_EQ(buffer->size(), maxRecords);
                }
                for (const SweepCell &cell : sweep.cells) {
                    EXPECT_TRUE(cell.ok()) << cell.errorMessage;
                    SweepCell solo = cell;
                    solo.result =
                        core::Paragraph(cell.job.config).analyze(*buffer);
                    EXPECT_EQ(cellToJson(cell, json), cellToJson(solo, json))
                        << cell.job.configLabel;
                }
            }
        }
    }
    fs::remove_all(dir);
}

TEST(SweepEngine, FusedStreamedCellsKeepDecodeWithinWall)
{
    // The four cells of one fused `.ptrz` pass share its block wait: each
    // carries an equal share, and its wall time includes that share, so no
    // cell reports more decode than wall time.
    const std::string ptrz = (std::filesystem::temp_directory_path() /
                              "sweep_fused_decode.ptrz")
                                 .string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource packed(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter zwriter(ptrz);
        zwriter.writeAll(packed);
        zwriter.close();
    }
    TraceRepository::Options ro = smallScale();
    ro.streamFiles = true;
    TraceRepository repo(ro);
    SweepEngine::Options opt;
    opt.jobs = 1;
    opt.groupSize = 4;
    SweepResult sweep = SweepEngine(opt).run(
        repo, {ptrz},
        {core::AnalysisConfig::windowed(16), core::AnalysisConfig::windowed(64),
         core::AnalysisConfig::windowed(256),
         core::AnalysisConfig::dataflowConservative()});
    std::remove(ptrz.c_str());

    EXPECT_EQ(sweep.fusedGroups, 1u);
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (const SweepCell &cell : sweep.cells) {
        EXPECT_TRUE(cell.ok()) << cell.errorMessage;
        EXPECT_GT(cell.decodeSeconds, 0.0);
        EXPECT_LE(cell.decodeSeconds, cell.wallSeconds)
            << cell.job.configLabel;
    }
}

TEST(SweepEngine, AutoGroupRespectsDecoderCapOnGatedStreams)
{
    // Auto grouping (--group=0) over a decode-gated stream (`.ptrz`: one
    // private decoder per pass, at most two concurrent) must divide the
    // bucket among the decoders that can run, not among all workers:
    // ceil(pending / jobs) at --jobs=8 gave eight near-solo passes that
    // serialized two-at-a-time, each paying a full decode.
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "sweep_autogroup.ptrz").string();
    {
        TraceRepository seed(smallScale());
        trace::SharedBufferSource src(seed.get("xlisp"), "xlisp");
        trace::CompressedTraceWriter writer(path);
        writer.writeAll(src);
        writer.close();
    }

    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 0u}) {
        configs.push_back(w ? core::AnalysisConfig::windowed(w)
                            : core::AnalysisConfig::dataflowConservative());
    }
    SweepJsonOptions json;
    json.timing = false;

    TraceRepository::Options capOpt = smallScale();
    capOpt.maxRecords = 1500;
    TraceRepository capRepo(capOpt);
    SweepEngine::Options soloOpt;
    soloOpt.jobs = 2;
    std::string captured = sweepToJson(
        SweepEngine(soloOpt).run(capRepo, {path}, configs), json);

    TraceRepository::Options streamOpt = capOpt;
    streamOpt.streamFiles = true;
    TraceRepository streamRepo(streamOpt);
    SweepEngine::Options opt;
    opt.jobs = 8;
    opt.groupSize = 0; // auto
    SweepResult sweep = SweepEngine(opt).run(streamRepo, {path}, configs);
    // Two decoders' shares of eight configs: two fused passes of four —
    // not eight near-solo passes (the old ceil(8 / jobs) target).
    EXPECT_EQ(sweep.fusedGroups, 2u);
    EXPECT_EQ(sweepToJson(sweep, json), captured);
    fs::remove(path);
}

TEST(SweepEngine, AutoGroupKeepsWorkerSharesOnCapturedInputs)
{
    // Captured inputs share the repository cache and are never
    // decode-gated: the auto target stays one pass per worker's share.
    std::vector<core::AnalysisConfig> configs;
    for (uint64_t w : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 0u}) {
        configs.push_back(w ? core::AnalysisConfig::windowed(w)
                            : core::AnalysisConfig::dataflowConservative());
    }
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 8;
    opt.groupSize = 0; // auto: ceil(8 / 8) = 1 config per pass
    SweepResult sweep = SweepEngine(opt).run(repo, {"xlisp"}, configs);
    EXPECT_EQ(sweep.fusedGroups, configs.size());
}

TEST(SweepEngine, AutoGroupTakesTheWorkerShareOverTheWholeGrid)
{
    // The auto target is fixed per submission, ceil(12 cells / 2 jobs) = 6,
    // which covers each input's 4-config bucket: one pass per input. A
    // per-bucket target, ceil(4 / 2) = 2, would cut six passes instead.
    std::vector<std::string> inputs = {"xlisp", "matrix300", "tomcatv"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowConservative(),
    };
    SweepJsonOptions json;
    json.timing = false;

    TraceRepository repo(smallScale());
    SweepEngine::Options autoOpt;
    autoOpt.jobs = 2;
    autoOpt.groupSize = 0;
    SweepResult fused = SweepEngine(autoOpt).run(repo, inputs, configs);
    EXPECT_EQ(fused.fusedGroups, inputs.size());

    SweepEngine::Options soloOpt = autoOpt;
    soloOpt.groupSize = 1;
    SweepResult solo = SweepEngine(soloOpt).run(repo, inputs, configs);
    EXPECT_EQ(solo.fusedGroups, inputs.size() * configs.size());
    EXPECT_EQ(sweepToJson(fused, json), sweepToJson(solo, json));
}

TEST(SweepEngine, CellsMatchSoloAnalyzeRunsByteForByte)
{
    // The acceptance grid shape: window sizes crossed with two workloads,
    // every cell checked against an independent serial Paragraph::analyze.
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(64),
        core::AnalysisConfig::windowed(1024),
        core::AnalysisConfig::dataflowConservative(),
        core::AnalysisConfig::noRenaming(),
    };

    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 4;
    SweepResult sweep = SweepEngine(opt).run(repo, inputs, configs);
    ASSERT_EQ(sweep.cells.size(), inputs.size() * configs.size());

    for (const SweepCell &cell : sweep.cells) {
        SCOPED_TRACE(cell.job.input + " / " + cell.job.configLabel);
        trace::SharedBufferSource solo(repo.get(cell.job.input));
        core::AnalysisResult alone =
            core::Paragraph(cell.job.config).analyze(solo);
        expectIdenticalResults(cell.result, alone);
    }
}

TEST(SweepEngine, CellsComeBackInInputMajorGridOrder)
{
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::dataflowConservative(),
    };
    TraceRepository repo(smallScale());
    SweepEngine::Options opt;
    opt.jobs = 3;
    SweepResult sweep = SweepEngine(opt).run(repo, inputs, configs);
    ASSERT_EQ(sweep.cells.size(), 4u);
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            const SweepCell &cell = sweep.cells[i * configs.size() + j];
            EXPECT_EQ(cell.job.input, inputs[i]);
            EXPECT_EQ(cell.job.inputIndex, i);
            EXPECT_EQ(cell.job.configIndex, j);
        }
    }
}

TEST(SweepEngine, JsonIsIdenticalForAnyWorkerCount)
{
    // The determinism invariant behind the whole design: workers share no
    // mutable analysis state, so a 1-thread and an 8-thread sweep of the
    // same grid serialize to byte-identical JSON (timing omitted).
    std::vector<std::string> inputs = {"xlisp", "matrix300"};
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(256),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::dataflowOptimistic(),
    };

    SweepJsonOptions json;
    json.timing = false;

    TraceRepository repo1(smallScale());
    SweepEngine::Options serialOpt;
    serialOpt.jobs = 1;
    std::string serial = sweepToJson(
        SweepEngine(serialOpt).run(repo1, inputs, configs), json);

    TraceRepository repo8(smallScale());
    SweepEngine::Options threadedOpt;
    threadedOpt.jobs = 8;
    std::string threaded = sweepToJson(
        SweepEngine(threadedOpt).run(repo8, inputs, configs), json);

    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("\"schema\": \"paragraph-sweep-v3\""),
              std::string::npos);
    EXPECT_EQ(serial.find("wall_seconds"), std::string::npos);
}

TEST(SweepEngine, ProgressReportsEveryCellExactlyOnce)
{
    std::atomic<size_t> calls{0};
    std::atomic<size_t> lastDone{0};
    SweepEngine::Options opt;
    opt.jobs = 4;
    opt.progress = [&](size_t done, size_t total, double) {
        ++calls;
        lastDone = done;
        EXPECT_EQ(total, 6u);
    };
    TraceRepository repo(smallScale());
    std::vector<core::AnalysisConfig> configs = {
        core::AnalysisConfig::windowed(4),
        core::AnalysisConfig::windowed(16),
        core::AnalysisConfig::windowed(64),
    };
    SweepResult sweep =
        SweepEngine(opt).run(repo, {"xlisp", "matrix300"}, configs);
    EXPECT_EQ(calls.load(), 6u);
    EXPECT_EQ(lastDone.load(), 6u);
    EXPECT_EQ(sweep.jobs, 4u);
    EXPECT_GT(sweep.totalInstructions, 0u);
}

TEST(SweepJson, RendersStableNumbersAndStrings)
{
    EXPECT_EQ(jsonDouble(0.0), "0");
    EXPECT_EQ(jsonDouble(2.5), "2.5");
    EXPECT_EQ(jsonDouble(1.0 / 3.0), "0.3333333333333333");
    // Round-trip: parsing the rendering recovers the exact double.
    double v = 3.0651797117314357;
    EXPECT_EQ(std::strtod(jsonDouble(v).c_str(), nullptr), v);

    EXPECT_EQ(jsonString("plain"), "\"plain\"");
    EXPECT_EQ(jsonString("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(SweepArgs, FuLimitsBeyond32BitsAreRejectedNotTruncated)
{
    // The engine's FU limit is 32 bits wide: 4294967304 must be refused by
    // name, not silently run as fus=8.
    SweepArgs opt;
    std::string error;
    EXPECT_FALSE(parseSweepArgs({"--fus=2,4294967304", "xlisp"}, opt, error));
    EXPECT_NE(error.find("4294967304"), std::string::npos) << error;

    SweepArgs widest;
    ASSERT_TRUE(parseSweepArgs({"--fus=4294967295", "xlisp"}, widest, error))
        << error;
    EXPECT_EQ(widest.fus, std::vector<uint32_t>{4294967295u});
}
