// serve-mixed: an in-process daemon (2 workers, on-disk result store in the
// run's scratch directory) under a closed loop of 2 client threads. The
// seeded request stream mixes warm one-cell sweeps (cells the store already
// holds), cold ones (cells never served before) and a few stats and health
// requests, in the shares a measured client session showed. Set-up captures
// seeded --small traces of three analogs, writes them as .ptrc files and
// primes the daemon with the warm grids.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <map>
#include <set>
#include <tuple>
#include <thread>

#include "serve/client.hpp"

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

enum class Kind { Warm, Cold, Stats, Health };

struct Request
{
    Kind kind = Kind::Warm;
    std::string line;
    uint64_t cellInstructions = 0; ///< trace length of the one cell
};

struct Sample
{
    Kind kind = Kind::Warm;
    double ms = 0.0;
    size_t bytes = 0;
    uint64_t cellsCached = 0, cellsTotal = 0, instr = 0;
    bool ok = false, busy = false;
    size_t request = 0; ///< index into the request sequence
    double at = 0.0;    ///< send time, seconds since the loop started
};

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Warm: return "warm";
    case Kind::Cold: return "cold";
    case Kind::Stats: return "stats";
    case Kind::Health: return "health";
    }
    return "?";
}

serve::ServeRequest
sweepRequest(const std::string &input, std::vector<uint64_t> windows,
             std::vector<uint64_t> fus)
{
    serve::ServeRequest req;
    req.op = serve::ServeRequest::Op::Sweep;
    req.inputs = {input};
    req.windows = std::move(windows);
    req.fus = std::move(fus);
    req.small = true;
    return req;
}

} // namespace

Outcome
runServeMixed(const Args &args)
{
    // One malloc arena for the whole process, set before any thread
    // starts. With glibc's default of an arena per contending thread, the
    // freed response buffers stay cached in whichever arenas the daemon's
    // and clients' threads happened to use: peak RSS then varied from 98
    // to 143 MB between runs. With one arena it reads 91-94 MB, and
    // throughput and latencies did not move beyond run-to-run noise.
    mallopt(M_ARENA_MAX, 1);
    Outcome out;
    Prng rng(args.seed);
    const std::vector<AnalogInput> inputs =
        seededInputs({"xlisp", "cc1", "spice2g6"}, true, rng);

    // Warm grids: per input, a window sweep at unlimited FUs and a small
    // FU sweep; all served during set-up.
    std::vector<serve::ServeRequest> warm;
    std::vector<std::string> files;
    for (const AnalogInput &in : inputs)
        files.push_back(args.workdir + "/" + in.workload->name + ".ptrc");
    for (const std::string &f : files) {
        warm.push_back(sweepRequest(f, {16, 256, 0}, {0}));
        warm.push_back(sweepRequest(f, {0}, {2, 8}));
    }

    // Set-up (five times; setup_s is the median, and the last daemon serves
    // the timed part).
    std::vector<double> setups;
    std::unique_ptr<InProcessServer> server;
    std::vector<uint64_t> lengths(inputs.size());
    double minicS = 0, casmS = 0, simS = 0, ptrcS = 0;
    uint64_t ptrcBytes = 0, records = 0;
    serve::ServeServer::Options so;
    so.socketPath = args.workdir + "/serve.sock";
    so.storePath = args.workdir + "/store.jsonl";
    so.jobs = 2;
    so.small = true;
    // A bounded hot cache, as a long-running daemon would have: the cold
    // cells then cannot grow the process for as long as the run lasts.
    so.storeMemoryBudget = size_t(32) << 20;
    for (int r = 0; r < 5; ++r) {
        server.reset();
        std::filesystem::remove(so.storePath);
        double t0 = now();
        ScopedSpan span("bench", "serve-mixed set-up");
        minicS = casmS = simS = ptrcS = 0;
        ptrcBytes = records = 0;
        for (size_t i = 0; i < inputs.size(); ++i) {
            Compiled c = compileAnalog(*inputs[i].workload);
            minicS += c.minicSeconds;
            casmS += c.casmSeconds;
            double s = 0;
            auto buffer = captureAnalog(*c.program, inputs[i], 0, &s);
            simS += s;
            lengths[i] = buffer->size();
            records += buffer->size();
            ptrcS += writePtrc(*buffer, files[i]);
            ptrcBytes += fileBytes(files[i]);
        }
        server = std::make_unique<InProcessServer>(so);
        if (!server->started())
            break;
        serve::ServeClient client(so.socketPath);
        std::string error, line;
        bool ok = client.connect(error);
        for (const serve::ServeRequest &req : warm) {
            ScopedSpan s("serve", "prime warm grid");
            ok = ok && client.roundTrip(serve::renderServeRequest(req), line,
                                        error);
        }
        out.checks.expect(ok, "priming the warm grids: " + error);
        setups.push_back(now() - t0);
    }
    out.checks.expect(server && server->started(),
                      "daemon starts: " + (server ? server->error() : ""));
    if (!server || !server->started())
        return out;

    // The seeded request sequence, dealt in shuffled decks so that every
    // stretch of it has the same mix. The mix copies a measured client
    // session (perfbench/README.md, "Request mix"): a coarse explore, a
    // Fig. 8 explore and a full coarse sweep of each trace against a primed
    // daemon looked up 295 cells, found 164 (56%) in the store and computed
    // 131, of which 22% at unlimited FUs and 39% each at 2 and 8 FUs, with
    // windows spread evenly over the powers of two from 1 to 65536. Every
    // request here is one cell, so the request mix is the cell mix. A deck
    // holds 30 warm requests (each primed cell twice), 23 cold ones (5 at
    // unlimited FUs, 9 at 2 and 9 at 8 FUs), one stats and one health
    // request. A cold cell's input is drawn at random and its window from a
    // random octave below 65536; no cold (input, window, FUs) repeats, and
    // none is a primed cell.
    const size_t nDecks = args.reduced ? 8 : 800;
    std::vector<Request> sequence;
    std::set<std::tuple<size_t, uint64_t, uint64_t>> served;
    std::vector<Request> warmCells;
    for (size_t i = 0; i < files.size(); ++i) {
        for (const serve::ServeRequest &grid : warm) {
            if (grid.inputs.front() != files[i])
                continue;
            for (uint64_t w : grid.windows) {
                for (uint64_t fu : grid.fus) {
                    warmCells.push_back(
                        {Kind::Warm,
                         serve::renderServeRequest(
                             sweepRequest(files[i], {w}, {fu})),
                         lengths[i]});
                    served.insert({i, w, fu});
                }
            }
        }
    }
    serve::ServeRequest statsReq, healthReq;
    statsReq.op = serve::ServeRequest::Op::Stats;
    healthReq.op = serve::ServeRequest::Op::Health;
    const std::pair<uint64_t, int> coldShape[] = {{0, 5}, {2, 9}, {8, 9}};
    for (size_t d = 0; d < nDecks; ++d) {
        std::vector<Request> deck;
        for (int copy = 0; copy < 2; ++copy)
            deck.insert(deck.end(), warmCells.begin(), warmCells.end());
        for (const auto &[fu, count] : coldShape) {
            for (int c = 0; c < count; ++c) {
                size_t input;
                uint64_t w;
                do {
                    input = rng.nextBelow(files.size());
                    uint64_t octave = rng.nextBelow(16);
                    w = (uint64_t(1) << octave) +
                        rng.nextBelow(uint64_t(1) << octave);
                } while (!served.insert({input, w, fu}).second);
                serve::ServeRequest req = sweepRequest(files[input], {w}, {fu});
                deck.push_back({Kind::Cold, serve::renderServeRequest(req),
                                lengths[input]});
            }
        }
        deck.push_back({Kind::Stats, serve::renderServeRequest(statsReq), 0});
        deck.push_back(
            {Kind::Health, serve::renderServeRequest(healthReq), 0});
        for (size_t i = deck.size(); i > 1; --i)
            std::swap(deck[i - 1], deck[rng.nextBelow(i)]);
        for (Request &r : deck)
            sequence.push_back(std::move(r));
    }

    // Closed loop: 2 clients, each sends its next request when the last one
    // completed. Runs for --seconds, and on until the sample floors hold.
    // The first document served for each request line is remembered (warm
    // documents in full; cold ones, served once each, as length and hash,
    // so the check does not grow the process by a document per cold
    // request). Every later response to a line must repeat it byte for byte.
    const size_t minCold = args.reduced ? 10 : 100;
    const size_t minWarm = args.reduced ? 50 : 1000;
    struct Served
    {
        size_t size = 0;  ///< cold lines only
        size_t hash = 0;  ///< cold lines only
        std::string text; ///< warm lines only
    };
    std::map<std::string, Served> firstDoc;
    uint64_t docMismatches = 0;
    auto runLoop = [&](size_t firstRequest, double seconds, bool floors,
                       std::vector<Sample> &samples, double &wall,
                       int64_t parent) {
        std::atomic<size_t> next{firstRequest};
        std::atomic<size_t> coldDone{0}, warmDone{0};
        std::mutex mutex;
        const double start = now();
        auto client = [&](int id) {
            ScopedSpan span("bench", "client " + std::to_string(id), 0,
                            parent);
            serve::ServeClient conn(so.socketPath);
            std::string error, line;
            if (!conn.connect(error)) {
                std::lock_guard<std::mutex> lock(mutex);
                out.checks.expect(false, "client connects: " + error);
                return;
            }
            std::vector<Sample> mine;
            for (;;) {
                double elapsed = now() - start;
                bool floorsMet = !floors || (coldDone >= minCold &&
                                             warmDone >= minWarm);
                if (elapsed >= seconds &&
                    (floorsMet || elapsed >= 3 * seconds))
                    break;
                size_t k = next++;
                if (k >= sequence.size())
                    break;
                const Request &req = sequence[k];
                Sample s;
                s.kind = req.kind;
                s.request = k;
                bool sent;
                double t0 = now();
                s.at = t0 - start;
                {
                    ScopedSpan rs("serve", kindName(req.kind), k + 1);
                    sent = conn.roundTrip(req.line, line, error);
                }
                s.ms = (now() - t0) * 1e3;
                s.bytes = line.size();
                serve::ServeResponse resp;
                bool parsed;
                {
                    ScopedSpan ps("serve", "parseServeResponse", k + 1);
                    parsed = sent &&
                             serve::parseServeResponse(line, resp, error);
                }
                if (parsed) {
                    s.ok = resp.ok();
                    s.busy = resp.busy();
                    s.cellsCached = resp.cellsCached;
                    s.cellsTotal = resp.cellsTotal;
                }
                if (req.kind == Kind::Cold)
                    ++coldDone;
                else if (req.kind == Kind::Warm)
                    ++warmDone;
                if (s.ok && req.kind == Kind::Cold) {
                    s.instr = req.cellInstructions;
                    Served doc;
                    doc.size = resp.document.size();
                    doc.hash = std::hash<std::string>()(resp.document);
                    std::lock_guard<std::mutex> lock(mutex);
                    auto [it, fresh] = firstDoc.try_emplace(req.line, doc);
                    if (!fresh && (it->second.size != doc.size ||
                                   it->second.hash != doc.hash))
                        ++docMismatches;
                } else if (s.ok && req.kind == Kind::Warm) {
                    s.instr = req.cellInstructions;
                    std::lock_guard<std::mutex> lock(mutex);
                    auto [it, fresh] = firstDoc.try_emplace(req.line);
                    if (fresh)
                        it->second.text = std::move(resp.document);
                    else if (it->second.text != resp.document)
                        ++docMismatches;
                }
                mine.push_back(s);
            }
            std::lock_guard<std::mutex> lock(mutex);
            samples.insert(samples.end(), mine.begin(), mine.end());
        };
        parallelFor(2, 2, [&](size_t id) { client(static_cast<int>(id)); });
        wall = now() - start;
    };

    // One untimed second first, so the daemon's caches and the clients'
    // buffers are warm; its responses are still checked.
    std::vector<Sample> warmup, samples;
    double wall = 0;
    runLoop(0, 1.0, false, warmup, wall, -1);
    size_t resume = 0;
    for (const Sample &s : warmup)
        resume = std::max(resume, s.request + 1);
    runLoop(resume, args.seconds, true, samples, wall, -1);
    std::vector<Sample> tracedSamples;
    double tracedWall = 0;
    int64_t tracedRoot = -1;
    if (args.trace) {
        // The traced loop continues the same sequence, so its cold windows
        // are still unserved and cold stays cold.
        for (const Sample &s : samples)
            resume = std::max(resume, s.request + 1);
        Tracer::instance().setEnabled(true);
        ScopedSpan root("bench", "serve-mixed timed part (traced)");
        tracedRoot = root.id();
        runLoop(resume, args.seconds, true, tracedSamples, tracedWall,
                root.id());
    }
    server.reset();

    // Output checks: every response ok, and every served document equal to
    // engine::sweepToJson(..., timing=false) of a fresh run of its grid.
    for (const std::vector<Sample> *ss : {&warmup, &samples, &tracedSamples}) {
        for (const Sample &s : *ss) {
            out.checks.expect(s.ok, std::string(kindName(s.kind)) +
                                        " request answered ok");
        }
    }
    out.checks.expect(docMismatches == 0,
                      "repeated requests serve identical documents");
    std::vector<const std::pair<const std::string, Served> *> docs;
    for (const auto &kv : firstDoc)
        docs.push_back(&kv);
    // Each reference is compared as soon as it is rendered and then
    // dropped, so the check does not hold a document per cold request.
    std::vector<char> matches(docs.size(), 0);
    {
        engine::TraceRepository repo;
        parallelFor(docs.size(), args.jobs, [&](size_t k) {
            serve::ServeRequest req;
            std::string error;
            if (!serve::parseServeRequest(docs[k]->first, req, error))
                return;
            std::string ref = referenceSweepDoc(repo, req, so.jobs);
            if (args.corruptReference && k == 0)
                ref += " ";
            const Served &got = docs[k]->second;
            matches[k] = !ref.empty() &&
                         (got.text.empty()
                              ? got.size == ref.size() &&
                                    got.hash == std::hash<std::string>()(ref)
                              : got.text == ref);
        });
    }
    for (size_t k = 0; k < docs.size(); ++k) {
        out.checks.expect(matches[k], "served document equals sweepToJson: " +
                                          docs[k]->first);
    }

    auto latencies = [](const std::vector<Sample> &ss, int kind) {
        std::vector<double> v;
        for (const Sample &s : ss) {
            if (kind < 0 || static_cast<int>(s.kind) == kind)
                v.push_back(s.ms);
        }
        return v;
    };
    if (!args.trace) {
        // One-second windows of the timed loop; each end-to-end figure is
        // the interquartile mean over the windows: a burst of host noise in
        // a few windows cannot move it, and a slower stretch of several
        // seconds moves it in proportion rather than all or nothing.
        const size_t n = std::max<size_t>(1, static_cast<size_t>(wall));
        // The latencies are those of the two kinds of request a user waits
        // for: latency_p50_ms is the warm p50 and latency_p90_ms the cold
        // p90, each taken per window (over windows with at least 10 samples
        // of that kind) before the interquartile mean.
        std::vector<std::vector<double>> warmLat(n), coldLat(n);
        std::vector<double> count(n, 0.0), instr(n, 0.0);
        for (const Sample &s : samples) {
            size_t w = std::min(n - 1, static_cast<size_t>(s.at));
            if (s.kind == Kind::Warm)
                warmLat[w].push_back(s.ms);
            else if (s.kind == Kind::Cold)
                coldLat[w].push_back(s.ms);
            count[w] += 1;
            instr[w] += static_cast<double>(s.instr);
        }
        std::vector<double> minstrW, opsW, p50W, p90W;
        for (size_t w = 0; w < n; ++w) {
            double span = w + 1 < n ? 1.0 : wall - static_cast<double>(w);
            minstrW.push_back(instr[w] / 1e6 / span);
            opsW.push_back(count[w] / span);
            if (warmLat[w].size() >= 10)
                p50W.push_back(percentile(warmLat[w], 50));
            if (coldLat[w].size() >= 10)
                p90W.push_back(percentile(coldLat[w], 90));
        }
        // A short (--reduced) loop may have no such window: fall back to
        // the whole loop.
        if (p50W.empty())
            p50W.push_back(percentile(latencies(samples, int(Kind::Warm)), 50));
        if (p90W.empty())
            p90W.push_back(percentile(latencies(samples, int(Kind::Cold)), 90));
        reportEndToEnd(out, median(setups), interquartileMean(minstrW),
                       interquartileMean(opsW), interquartileMean(p50W),
                       interquartileMean(p90W),
                       std::to_string(samples.size()) + " requests in " +
                           std::to_string(n) + " one-second windows");
        for (const AnalogInput &in : inputs)
            out.notes.push_back("input " + describeInput(in));
        std::vector<double> cold = latencies(samples, int(Kind::Cold));
        std::vector<double> hot = latencies(samples, int(Kind::Warm));
        char line[240];
        std::snprintf(line, sizeof line,
                      "serve_cold_p50_ms %.4f ms  serve_cold_p90_ms %.4f ms "
                      "(%zu cold)  serve_warm_p50_ms %.4f ms  "
                      "serve_warm_p99_ms %.4f ms (%zu warm)",
                      percentile(cold, 50), percentile(cold, 90), cold.size(),
                      percentile(hot, 50), percentile(hot, 99), hot.size());
        out.notes.push_back(line);
        std::snprintf(line, sizeof line,
                      "serve_req_per_s %.4f req/s (%zu requests in %.3f s, "
                      "2 closed-loop clients)",
                      samples.size() / wall, samples.size(), wall);
        out.notes.push_back(line);
        return out;
    }

    Report &layer = out.perLayer;
    layer.set("minic.compile_ms", minicS * 1e3, "ms");
    layer.set("casm.assemble_ms", casmS * 1e3, "ms");
    layer.set("sim.capture_s", simS, "s");
    layer.set("sim.minstr_per_s", records / 1e6 / simS, "Minstr/s");
    layer.set("trace.ptrc_write_mb_per_s", ptrcBytes / 1048576.0 / ptrcS,
              "MB/s");
    uint64_t cached = 0, total = 0, busy = 0, sweeps = 0;
    double bytes = 0;
    for (const Sample &s : tracedSamples) {
        busy += s.busy;
        if (s.kind == Kind::Warm || s.kind == Kind::Cold) {
            cached += s.cellsCached;
            total += s.cellsTotal;
            bytes += static_cast<double>(s.bytes);
            ++sweeps;
        }
    }
    layer.set("serve.store_hit_ratio",
              total ? double(cached) / double(total) : 0.0, "ratio");
    layer.set("serve.busy_frac",
              tracedSamples.empty()
                  ? 0.0
                  : double(busy) / double(tracedSamples.size()),
              "fraction");
    layer.set("serve.response_kb", sweeps ? bytes / sweeps / 1024.0 : 0.0,
              "KB");
    std::vector<AnalogInput> probeInputs = inputs;
    {
        ScopedSpan root("bench", "probes");
        runProbes(probeInputs, args.reduced ? 100000 : 1000000, args, layer,
                  out.checks);
        out.notes.push_back(selfTimeLine("probes", root.id()));
    }
    finishTraced(out, args, wall / std::max<size_t>(samples.size(), 1),
                 tracedWall / std::max<size_t>(tracedSamples.size(), 1),
                 tracedRoot);
    return out;
}

} // namespace perfbench
