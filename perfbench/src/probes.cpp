// Layer probes of the traced run. Each probe calls one layer's public
// functions on the workload's own inputs (captures capped at a probe size),
// so every traced run reports every per-layer metric whether or not its
// timed part exercises that layer. Metrics the timed part already measured
// are kept; a probe only fills the gaps.

#include <cstdio>
#include <thread>

#include "core/multi.hpp"
#include "core/paragraph.hpp"
#include "core/shard.hpp"
#include "engine/sweep_json.hpp"
#include "serve/client.hpp"
#include "serve/result_store.hpp"
#include "trace/compressed_io.hpp"
#include "trace/mmap_io.hpp"
#include "trace/shared_decode.hpp"

#include "layers.hpp"

namespace perfbench {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

void
setDefault(Report &out, const std::string &name, double value,
           const std::string &unit)
{
    if (!out.has(name))
        out.set(name, value, unit);
}

struct ProbeTrace
{
    AnalogInput in;
    std::shared_ptr<trace::TraceBuffer> buffer;
    std::string ptrc;
    std::string ptrz;
};

/** minic, casm, sim and trace writing: compile and capture every input,
 *  then write each capture as .ptrc and .ptrz. */
std::vector<ProbeTrace>
probeCaptureAndWrite(const std::vector<AnalogInput> &inputs, uint64_t cap,
                     const Args &args, Report &out)
{
    ScopedSpan span("bench", "probe: compile, capture, write");
    double minicS = 0, casmS = 0, simS = 0, ptrcS = 0, ptrzS = 0;
    uint64_t records = 0, ptrcBytes = 0, ptrzBytes = 0;
    std::vector<ProbeTrace> traces;
    for (size_t i = 0; i < inputs.size(); ++i) {
        ProbeTrace t;
        t.in = inputs[i];
        Compiled c = compileAnalog(*t.in.workload);
        minicS += c.minicSeconds;
        casmS += c.casmSeconds;
        double s = 0;
        t.buffer = captureAnalog(*c.program, t.in, cap, &s);
        simS += s;
        records += t.buffer->size();
        std::string stem = args.workdir + "/probe-" + std::to_string(i) +
                           "-" + t.in.workload->name;
        t.ptrc = stem + ".ptrc";
        t.ptrz = stem + ".ptrz";
        ptrcS += writePtrc(*t.buffer, t.ptrc);
        ptrzS += writePtrz(*t.buffer, t.ptrz);
        ptrcBytes += fileBytes(t.ptrc);
        ptrzBytes += fileBytes(t.ptrz);
        traces.push_back(std::move(t));
    }
    setDefault(out, "minic.compile_ms", minicS * 1e3, "ms");
    setDefault(out, "casm.assemble_ms", casmS * 1e3, "ms");
    setDefault(out, "sim.capture_s", simS, "s");
    setDefault(out, "sim.minstr_per_s", records / 1e6 / simS, "Minstr/s");
    setDefault(out, "trace.ptrc_write_mb_per_s", ptrcBytes / kMB / ptrcS,
               "MB/s");
    setDefault(out, "trace.ptrz_write_mb_per_s", ptrzBytes / kMB / ptrzS,
               "MB/s");
    return traces;
}

/** trace reading: open + payload CRC, decode, .ptrz decode, and the
 *  decode pool drained by one cursor per worker. */
void
probeTraceRead(const std::vector<ProbeTrace> &traces, const Args &args,
               Report &out, Checker &checks)
{
    ScopedSpan span("bench", "probe: trace read");
    double openS = 0, crcS = 0, decodeS = 0, ptrzS = 0;
    uint64_t records = 0, payloadBytes = 0;
    uint64_t blocksDecoded = 0, blocks = 0;
    for (const ProbeTrace &t : traces) {
        std::shared_ptr<trace::MmapTraceFile> file;
        {
            ScopedSpan s("trace", "MmapTraceFile open " + t.ptrc);
            double t0 = now();
            file = std::make_shared<trace::MmapTraceFile>(t.ptrc);
            double t1 = now();
            file->verifyPayload();
            double t2 = now();
            openS += t2 - t0;
            crcS += t2 - t1;
        }
        payloadBytes += file->recordCount() * sizeof(trace::PackedRecord);
        records += file->recordCount();

        std::vector<trace::TraceRecord> block(65536);
        bool same = file->recordCount() == t.buffer->size();
        {
            ScopedSpan s("trace", "MmapTraceFile decode " + t.ptrc);
            double t0 = now();
            for (uint64_t first = 0; first < file->recordCount();
                 first += block.size()) {
                size_t n = static_cast<size_t>(std::min<uint64_t>(
                    block.size(), file->recordCount() - first));
                file->decode(first, n, block.data());
                for (size_t k = 0; same && k < n; k += 997)
                    same = block[k] == (*t.buffer)[first + k];
            }
            decodeS += now() - t0;
        }
        checks.expect(same, ".ptrc decode matches capture: " + t.ptrc);

        {
            ScopedSpan s("trace", "CompressedTraceReader " + t.ptrz);
            double t0 = now();
            trace::CompressedTraceReader reader(t.ptrz);
            uint64_t n = 0;
            bool ok = true;
            size_t got;
            while ((got = reader.nextBatch(block.data(), block.size())) > 0) {
                if (ok && n < t.buffer->size())
                    ok = block[0] == (*t.buffer)[n];
                n += got;
            }
            ptrzS += now() - t0;
            checks.expect(ok && n == t.buffer->size(),
                          ".ptrz decode matches capture: " + t.ptrz);
        }

        {
            ScopedSpan s("trace", "SharedDecodePool drain " + t.ptrc);
            auto pool = std::make_shared<trace::SharedDecodePool>(
                file, trace::SharedDecodePool::Options{});
            parallelFor(args.jobs, args.jobs, [&](size_t) {
                trace::SharedDecodeCursor cursor(pool);
                const trace::TraceRecord *recs = nullptr;
                while (cursor.next(&recs) > 0) {
                }
            });
            blocksDecoded += pool->blocksDecoded();
            blocks += pool->blockCount();
        }
    }
    setDefault(out, "trace.ptrc_open_s", openS, "s");
    setDefault(out, "trace.crc_mb_per_s", payloadBytes / kMB / crcS, "MB/s");
    setDefault(out, "trace.ptrc_decode_mrec_per_s", records / 1e6 / decodeS,
               "Mrec/s");
    setDefault(out, "trace.ptrz_decode_mrec_per_s", records / 1e6 / ptrzS,
               "Mrec/s");
    setDefault(out, "trace.blocks_decoded_per_block",
               blocks ? double(blocksDecoded) / double(blocks) : 0.0,
               "ratio");
}

/** core analysis: one Paragraph::analyze per probe config, and the fused
 *  multi-config pass over the paper-repro config group. */
void
probeCore(const std::vector<ProbeTrace> &traces, Report &out)
{
    ScopedSpan span("bench", "probe: core analysis");
    for (auto &[name, cfg] : probeConfigs()) {
        double secs = 0;
        uint64_t instr = 0;
        for (const ProbeTrace &t : traces) {
            ScopedSpan s("core", "Paragraph::analyze " + name);
            double t0 = now();
            core::Paragraph analyzer(cfg);
            instr += analyzer.analyze(*t.buffer).instructions;
            secs += now() - t0;
        }
        setDefault(out, "core.analyze_minstr_per_s." + name,
                   instr / 1e6 / secs, "Minstr/s");
    }
    std::vector<core::AnalysisConfig> group = paperConfigs(nullptr);
    double secs = 0;
    uint64_t instr = 0;
    for (const ProbeTrace &t : traces) {
        ScopedSpan s("core", "analyzeManyGuarded paper group");
        double t0 = now();
        for (const core::MultiOutcome &o :
             core::analyzeManyGuarded(*t.buffer, group))
            instr += o.result.instructions;
        secs += now() - t0;
    }
    setDefault(out, "core.fused_minstr_per_s", instr / 1e6 / secs,
               "Minstr/s");
}

/** core sharding: the pre-pass, plan, segments and patch of one sharded
 *  cell, on the longest probe trace, checked against the solo result. */
void
probeShard(const std::vector<ProbeTrace> &traces, const Args &args,
           Report &out, Checker &checks)
{
    ScopedSpan span("bench", "probe: shard pipeline");
    const ProbeTrace *longest = &traces.front();
    for (const ProbeTrace &t : traces) {
        if (t.buffer->size() > longest->buffer->size())
            longest = &t;
    }
    const core::AnalysisConfig cfg = bimodalFu8Config();
    const trace::TraceRecord *records = longest->buffer->records().data();
    const size_t n = longest->buffer->size();
    const unsigned shards = std::max(2u, args.jobs);

    double t0 = now();
    {
        ScopedSpan s("core", "PredictorPrepass");
        core::PredictorPrepass pre(cfg);
        pre.feed(records, n);
    }
    double t1 = now();
    core::PatchPlan plan;
    {
        ScopedSpan s("core", "planPatchPlan");
        plan = core::planPatchPlan(cfg, records, n, shards);
    }
    double t2 = now();

    std::vector<size_t> bounds{0};
    for (size_t c : plan.cuts)
        bounds.push_back(c);
    bounds.push_back(n);
    const size_t segments = bounds.size() - 1;
    std::vector<core::SegmentRun> runs(segments);
    std::vector<double> segSeconds(segments, 0.0);
    const int64_t parent = Tracer::instance().current();
    parallelFor(segments, shards, [&](size_t s) {
        ScopedSpan seg("core", "runSegment " + std::to_string(s), 0, parent);
        double a = now();
        core::runSegment(cfg, records + bounds[s], bounds[s + 1] - bounds[s],
                         runs[s], &plan.bits, plan.branchBase[s]);
        segSeconds[s] = now() - a;
    });
    double t3 = now();
    core::PatchOutcome outcome;
    core::AnalysisResult patched;
    {
        ScopedSpan s("core", "patchSegments");
        patched = core::patchSegments(
            cfg, runs,
            [&](core::Paragraph &engine, size_t s) {
                engine.processAll(records + bounds[s],
                                  bounds[s + 1] - bounds[s]);
            },
            &plan.bits, &plan.branchBase, &outcome);
    }
    double t4 = now();

    core::AnalysisResult solo;
    {
        ScopedSpan s("core", "Paragraph::analyze solo reference");
        core::Paragraph analyzer(cfg);
        solo = analyzer.analyze(*longest->buffer);
    }
    std::string diff;
    checks.expect(core::shardedResultsEqual(solo, patched, &diff),
                  "split-and-patch equals solo: " + diff);

    double segMax = 0, segSum = 0;
    for (double s : segSeconds) {
        segMax = std::max(segMax, s);
        segSum += s;
    }
    setDefault(out, "core.prepass_s", t1 - t0, "s");
    setDefault(out, "core.plan_s", t2 - t1, "s");
    setDefault(out, "core.segment_max_s", segMax, "s");
    setDefault(out, "core.segment_sum_s", segSum, "s");
    setDefault(out, "core.patch_s", t4 - t3, "s");
    setDefault(out, "core.splice_ratio",
               segments ? double(outcome.spliced) / double(segments) : 0.0,
               "ratio");
}

/** engine: a captured and a streamed sweep over the probe traces, and the
 *  bimodal/8-FU cell alone at shard=1 from the pooled .ptrc. */
void
probeEngine(const std::vector<ProbeTrace> &traces, const Args &args,
            Report &out, Checker &checks)
{
    ScopedSpan span("bench", "probe: engine");
    std::vector<std::string> inputs;
    for (const ProbeTrace &t : traces)
        inputs.push_back(t.ptrc);
    std::vector<core::AnalysisConfig> configs;
    for (auto &[name, cfg] : probeConfigs())
        configs.push_back(cfg);

    engine::SweepEngine::Options opt;
    opt.jobs = args.jobs;
    opt.groupSize = 0;
    engine::SweepEngine sweeper(opt);

    // @p first: the probe trace at input index 0 of @p sweep.
    auto checkCells = [&](const engine::SweepResult &sweep, const char *what,
                          size_t first = 0) {
        for (const engine::SweepCell &cell : sweep.cells) {
            const ProbeTrace &t = traces[first + cell.job.inputIndex];
            checks.expect(cell.status == engine::SweepCell::Status::Ok &&
                              cellJson(cell) ==
                                  soloCellJson(*t.buffer, cell.job),
                          std::string(what) + " cell equals solo: " +
                              cell.job.input + " " + cell.job.configLabel);
        }
    };

    {
        engine::TraceRepository repo;
        engine::SweepResult sweep;
        {
            ScopedSpan s("engine", "SweepEngine::run captured probe grid");
            sweep = sweeper.run(repo, inputs, configs);
        }
        double busy = 0;
        for (const engine::SweepCell &cell : sweep.cells)
            busy += cell.wallSeconds;
        setDefault(out, "engine.capture_s", sweep.captureSeconds, "s");
        setDefault(out, "engine.sweep_s", sweep.wallSeconds, "s");
        setDefault(out, "engine.worker_busy_frac",
                   busy / (sweep.jobs * sweep.wallSeconds), "fraction");
        setDefault(out, "engine.fused_groups",
                   static_cast<double>(sweep.fusedGroups), "count");
        checkCells(sweep, "captured probe sweep");
    }
    {
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        engine::SweepResult sweep;
        {
            ScopedSpan s("engine", "SweepEngine::run streamed probe grid");
            sweep = sweeper.run(repo, inputs, configs);
        }
        double decode = 0;
        for (const engine::SweepCell &cell : sweep.cells)
            decode += cell.decodeSeconds;
        setDefault(out, "engine.cell_decode_s", decode, "s");
        checkCells(sweep, "streamed probe sweep");
    }
    {
        size_t longest = 0;
        for (size_t i = 0; i < traces.size(); ++i) {
            if (traces[i].buffer->size() > traces[longest].buffer->size())
                longest = i;
        }
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        engine::SweepEngine::Options so;
        so.jobs = args.jobs;
        so.shards = 1;
        engine::SweepEngine solo(so);
        engine::SweepResult sweep;
        {
            ScopedSpan s("engine", "SweepEngine::run solo cell shard=1");
            sweep = solo.run(repo, {traces[longest].ptrc},
                             {bimodalFu8Config()});
        }
        setDefault(out, "engine.solo_cell_s", sweep.wallSeconds, "s");
        checkCells(sweep, "solo shard=1", longest);
    }
}

/** serve: ResultStore inserts and lookups, then an in-process daemon with
 *  ping round trips and a cold-then-warm sweep. */
void
probeServe(const std::vector<ProbeTrace> &traces, const Args &args,
           Report &out, Checker &checks)
{
    ScopedSpan span("bench", "probe: serve");
    // A realistic cell fragment to store.
    engine::SweepJob job;
    job.input = traces.front().ptrc;
    job.config = core::AnalysisConfig::dataflowConservative();
    job.configLabel = "probe";
    std::string fragment = soloCellJson(*traces.front().buffer, job);

    {
        serve::ResultStore store(args.workdir + "/probe-store.jsonl");
        const unsigned n = args.reduced ? 50 : 400;
        std::vector<double> insertUs, lookupUs;
        bool same = true;
        for (unsigned i = 0; i < n; ++i) {
            serve::ResultKey key{0x5eed0000u + i, i, true};
            ScopedSpan s("serve", "ResultStore::insert");
            double t0 = now();
            store.insert(key, fragment);
            insertUs.push_back((now() - t0) * 1e6);
        }
        for (unsigned i = 0; i < n; ++i) {
            serve::ResultKey key{0x5eed0000u + i, i, true};
            std::string text;
            ScopedSpan s("serve", "ResultStore::lookup");
            double t0 = now();
            bool hit = store.lookup(key, text);
            lookupUs.push_back((now() - t0) * 1e6);
            same = same && hit && text == fragment;
        }
        checks.expect(same, "ResultStore returns what was inserted");
        setDefault(out, "serve.store_insert_us", median(insertUs), "us");
        setDefault(out, "serve.store_lookup_us", median(lookupUs), "us");
    }

    serve::ServeServer::Options so;
    so.socketPath = args.workdir + "/probe.sock";
    so.storePath = args.workdir + "/probe-serve-store.jsonl";
    so.jobs = 2;
    InProcessServer server(so);
    checks.expect(server.started(), "probe daemon starts: " + server.error());
    if (!server.started())
        return;
    serve::ServeClient client(so.socketPath);
    std::string error, line;
    checks.expect(client.connect(error), "probe client connects: " + error);

    std::vector<double> pingUs;
    serve::ServeRequest ping;
    ping.op = serve::ServeRequest::Op::Ping;
    const std::string pingLine = serve::renderServeRequest(ping);
    for (int i = 0; i < (args.reduced ? 20 : 200); ++i) {
        ScopedSpan s("serve", "ping", static_cast<uint64_t>(i + 1));
        double t0 = now();
        bool ok = client.roundTrip(pingLine, line, error);
        pingUs.push_back((now() - t0) * 1e6);
        serve::ServeResponse resp;
        checks.expect(ok && serve::parseServeResponse(line, resp, error) &&
                          resp.ok(),
                      "probe ping: " + error);
    }
    setDefault(out, "serve.ping_us", median(pingUs), "us");

    serve::ServeRequest sweep;
    sweep.op = serve::ServeRequest::Op::Sweep;
    for (const ProbeTrace &t : traces)
        sweep.inputs.push_back(t.ptrc);
    sweep.windows = {64, 0};
    const std::string sweepLine = serve::renderServeRequest(sweep);
    uint64_t cached = 0, total = 0, requests = 0, busy = 0;
    double bytes = 0;
    std::string reference;
    {
        engine::TraceRepository repo;
        reference = referenceSweepDoc(repo, sweep, so.jobs);
    }
    for (int pass = 0; pass < 2; ++pass) {
        ScopedSpan s("serve", pass ? "sweep warm" : "sweep cold",
                     static_cast<uint64_t>(1000 + pass));
        bool ok = client.roundTrip(sweepLine, line, error);
        serve::ServeResponse resp;
        ok = ok && serve::parseServeResponse(line, resp, error);
        ++requests;
        busy += resp.busy();
        cached += resp.cellsCached;
        total += resp.cellsTotal;
        bytes = static_cast<double>(line.size());
        checks.expect(ok && resp.ok() && resp.document == reference,
                      "probe served document equals sweepToJson");
    }
    setDefault(out, "serve.response_kb", bytes / 1024.0, "KB");
    setDefault(out, "serve.store_hit_ratio",
               total ? double(cached) / double(total) : 0.0, "ratio");
    setDefault(out, "serve.busy_frac", double(busy) / double(requests),
               "fraction");
}

} // namespace

void
runProbes(const std::vector<AnalogInput> &inputs, uint64_t cap,
          const Args &args, Report &out, Checker &checks)
{
    std::vector<ProbeTrace> traces =
        probeCaptureAndWrite(inputs, cap, args, out);
    probeTraceRead(traces, args, out, checks);
    probeCore(traces, out);
    probeShard(traces, args, out, checks);
    probeEngine(traces, args, out, checks);
    probeServe(traces, args, out, checks);
    for (const ProbeTrace &t : traces) {
        std::remove(t.ptrc.c_str());
        std::remove(t.ptrz.c_str());
    }
}

} // namespace perfbench
