// trace-files: analysis streamed from trace files. Set-up captures seeded
// traces of two analogs and writes each as .ptrc and .ptrz. A timed round
// has three legs: a window x FU x predictor grid streamed from the pooled
// .ptrc with a resume journal, the same grid streamed from the .ptrz, and
// a pair of single cells at --shard=nproc from the pooled .ptrc (the
// conservative-dataflow firewall fast path, and bimodal prediction with
// 8 FUs, which takes the pre-pass plus full split-and-patch).

#include <cstdio>
#include <filesystem>

#include "engine/sweep_args.hpp"

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct TraceSet
{
    std::vector<AnalogInput> inputs;
    std::vector<std::shared_ptr<trace::TraceBuffer>> buffers;
    std::vector<std::string> ptrc;
    std::vector<std::string> ptrz;
    double minicSeconds = 0, casmSeconds = 0, simSeconds = 0;
    double ptrcSeconds = 0, ptrzSeconds = 0;
    uint64_t ptrcBytes = 0, ptrzBytes = 0, records = 0;
};

TraceSet
setUp(const std::vector<AnalogInput> &inputs, const Args &args)
{
    ScopedSpan span("bench", "trace-files set-up");
    TraceSet set;
    set.inputs = inputs;
    for (const AnalogInput &in : inputs) {
        Compiled c = compileAnalog(*in.workload);
        set.minicSeconds += c.minicSeconds;
        set.casmSeconds += c.casmSeconds;
        double s = 0;
        set.buffers.push_back(captureAnalog(*c.program, in, 0, &s));
        set.simSeconds += s;
        set.records += set.buffers.back()->size();
        std::string stem = args.workdir + "/" + in.workload->name;
        set.ptrc.push_back(stem + ".ptrc");
        set.ptrz.push_back(stem + ".ptrz");
        set.ptrcSeconds += writePtrc(*set.buffers.back(), set.ptrc.back());
        set.ptrzSeconds += writePtrz(*set.buffers.back(), set.ptrz.back());
        set.ptrcBytes += fileBytes(set.ptrc.back());
        set.ptrzBytes += fileBytes(set.ptrz.back());
    }
    return set;
}

/** Everything a round produced that the checks and metrics need. */
struct Rounds
{
    std::vector<double> ptrcGridSeconds, ptrzGridSeconds;
    uint64_t ptrcGridInstr = 0, ptrzGridInstr = 0;
    std::vector<double> shardSeconds[2];
    uint64_t shardInstr = 0;
    /** Wall time of each command: a grid run or a single-cell run. */
    std::vector<double> latencyMs;
    /** Per-round throughputs; the run reports their medians. */
    std::vector<double> roundMinstr, roundOps;
    uint64_t cells = 0;
    double decodeSeconds = 0;
    double wall = 0;
    engine::SweepResult lastPtrcGrid;
    /** Every cell produced, with the index of its reference result. */
    struct Produced
    {
        size_t reference;
        engine::SweepJob job;
        std::string json; ///< no-timing cell JSON
    };
    std::vector<Produced> produced;
};

} // namespace

Outcome
runTraceFiles(const Args &args)
{
    Outcome out;
    Prng rng(args.seed);
    const std::vector<AnalogInput> inputs =
        seededInputs({"xlisp", "cc1"}, args.reduced, rng);

    std::vector<double> setups;
    TraceSet set;
    for (int r = 0; r < 3; ++r) {
        double t0 = now();
        set = setUp(inputs, args);
        setups.push_back(now() - t0);
    }

    // The grid: window x FU x predictor, labelled as paragraph-sweep does.
    engine::SweepArgs axes;
    axes.windows = {64, 1024, 0};
    axes.fus = {0, 8};
    axes.predictors = {"perfect", "bimodal"};
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    std::string error;
    if (!engine::buildSweepConfigAxis(axes, configs, labels, error)) {
        out.checks.expect(false, "grid axes: " + error);
        return out;
    }
    const core::AnalysisConfig shardConfigs[2] = {
        core::AnalysisConfig::dataflowConservative(), bimodalFu8Config()};
    const char *const shardLabels[2] = {"shard-firewall", "shard-bimodal-fu8"};
    const size_t nGrid = set.inputs.size() * configs.size();
    const unsigned shards = std::max(2u, args.jobs);
    const std::string journal = args.workdir + "/grid.journal";

    auto gridLeg = [&](const std::vector<std::string> &files, bool withJournal,
                       const char *what, Rounds &r,
                       std::vector<double> &legSeconds, uint64_t &legInstr,
                       engine::SweepResult *keep) {
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        engine::SweepEngine::Options opt;
        opt.jobs = args.jobs;
        opt.groupSize = 0;
        if (withJournal) {
            std::filesystem::remove(journal);
            opt.journalPath = journal;
        }
        engine::SweepEngine sweeper(opt);
        double t0 = now();
        engine::SweepResult sweep;
        {
            ScopedSpan span("engine", std::string("SweepEngine::run ") + what);
            sweep = sweeper.run(repo, files, configs, labels);
        }
        double secs = now() - t0;
        legSeconds.push_back(secs);
        r.wall += secs;
        r.latencyMs.push_back(secs * 1e3);
        for (const engine::SweepCell &cell : sweep.cells) {
            legInstr += cell.result.instructions;
            r.decodeSeconds += cell.decodeSeconds;
            r.produced.push_back({cell.job.inputIndex * configs.size() +
                                      cell.job.configIndex,
                                  cell.job,
                                  cell.ok() ? cellJson(cell) : "failed"});
        }
        r.cells += sweep.cells.size();
        if (keep)
            *keep = std::move(sweep);
    };

    auto shardCell = [&](int which, unsigned nShards, Rounds &r,
                         std::vector<double> &seconds) {
        engine::TraceRepository::Options ro;
        ro.streamFiles = true;
        engine::TraceRepository repo(ro);
        engine::SweepEngine::Options opt;
        opt.jobs = args.jobs;
        opt.shards = nShards;
        engine::SweepEngine sweeper(opt);
        double t0 = now();
        engine::SweepResult sweep;
        {
            ScopedSpan span("engine", std::string("SweepEngine::run ") +
                                          shardLabels[which] + " shard=" +
                                          std::to_string(nShards));
            sweep = sweeper.run(repo, {set.ptrc.front()},
                                {shardConfigs[which]}, {shardLabels[which]});
        }
        double secs = now() - t0;
        seconds.push_back(secs);
        const engine::SweepCell &cell = sweep.cells.front();
        r.produced.push_back({nGrid + static_cast<size_t>(which), cell.job,
                              cell.ok() ? cellJson(cell) : "failed"});
        return std::pair<double, uint64_t>(secs, cell.result.instructions);
    };

    const int pairsPerRound = args.reduced ? 1 : 2;
    auto timed = [&](Rounds &r) {
        double start = now();
        do {
            const double wall0 = r.wall;
            const uint64_t cells0 = r.cells;
            const uint64_t instr0 =
                r.ptrcGridInstr + r.ptrzGridInstr + r.shardInstr;
            ScopedSpan round("bench", "trace-files round");
            gridLeg(set.ptrc, true, "ptrc grid", r, r.ptrcGridSeconds,
                    r.ptrcGridInstr, &r.lastPtrcGrid);
            gridLeg(set.ptrz, false, "ptrz grid", r, r.ptrzGridSeconds,
                    r.ptrzGridInstr, nullptr);
            for (int k = 0; k < pairsPerRound; ++k) {
                for (int which = 0; which < 2; ++which) {
                    auto [secs, instr] =
                        shardCell(which, shards, r, r.shardSeconds[which]);
                    r.wall += secs;
                    r.shardInstr += instr;
                    r.latencyMs.push_back(secs * 1e3);
                    ++r.cells;
                }
            }
            const double wall = r.wall - wall0;
            const uint64_t instr =
                r.ptrcGridInstr + r.ptrzGridInstr + r.shardInstr - instr0;
            r.roundMinstr.push_back(instr / 1e6 / wall);
            r.roundOps.push_back((r.cells - cells0) / wall);
        } while (now() - start < args.seconds);
    };

    Rounds rounds;
    timed(rounds);
    Rounds traced;
    int64_t tracedRoot = -1;
    std::vector<double> soloSeconds[2];
    if (args.trace) {
        Tracer::instance().setEnabled(true);
        {
            ScopedSpan root("bench", "trace-files timed part (traced)");
            tracedRoot = root.id();
            timed(traced);
        }
        // The same two cells at shard=1: the base of the shard speed-up.
        ScopedSpan solo("bench", "solo cells shard=1");
        for (int which = 0; which < 2; ++which)
            shardCell(which, 1, traced, soloSeconds[which]);
    }

    // Output checks: every cell against the captured solo cell, that is
    // Paragraph::analyze on the captured buffer under the cell's own job.
    std::vector<core::AnalysisResult> reference(nGrid + 2);
    parallelFor(reference.size(), args.jobs, [&](size_t k) {
        const bool grid = k < nGrid;
        core::Paragraph analyzer(grid ? configs[k % configs.size()]
                                      : shardConfigs[k - nGrid]);
        reference[k] = analyzer.analyze(
            *set.buffers[grid ? k / configs.size() : 0]);
    });
    if (args.corruptReference)
        reference.front().criticalPathLength += 1;
    auto check = [&](const Rounds &r) {
        for (const Rounds::Produced &p : r.produced) {
            engine::SweepCell expected;
            expected.job = p.job;
            expected.result = reference[p.reference];
            out.checks.expect(cellJson(expected) == p.json,
                              "cell byte-identical to the captured solo cell: " +
                                  p.job.input + " " + p.job.configLabel);
        }
    };
    check(rounds);
    check(traced);
    std::filesystem::remove(journal);

    auto sum = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return s;
    };
    const double ptrcGrid =
        rounds.ptrcGridInstr / 1e6 / sum(rounds.ptrcGridSeconds);
    const double ptrzGrid =
        rounds.ptrzGridInstr / 1e6 / sum(rounds.ptrzGridSeconds);
    const double shardCellS =
        median(rounds.shardSeconds[0]) + median(rounds.shardSeconds[1]);

    if (!args.trace) {
        reportEndToEnd(out, median(setups),
                       interquartileMean(rounds.roundMinstr),
                       interquartileMean(rounds.roundOps),
                       percentile(rounds.latencyMs, 50),
                       percentile(rounds.latencyMs, 90),
                       std::to_string(rounds.roundOps.size()) +
                           " round(s), " + std::to_string(rounds.cells) +
                           " cells, " +
                           std::to_string(rounds.latencyMs.size()) +
                           " commands");
        char line[200];
        for (const AnalogInput &in : set.inputs)
            out.notes.push_back("input " + describeInput(in));
        std::snprintf(line, sizeof line,
                      "ptrc_grid_minstr_per_s %.4f Minstr/s  "
                      "ptrz_grid_minstr_per_s %.4f Minstr/s  "
                      "(%zu round(s), %zu cells per grid)",
                      ptrcGrid, ptrzGrid, rounds.ptrcGridSeconds.size(),
                      nGrid);
        out.notes.push_back(line);
        std::snprintf(line, sizeof line,
                      "shard_cell_s %.4f s (shard=%u; firewall %.4f s + "
                      "bimodal/8-FU %.4f s, medians of %zu)",
                      shardCellS, shards, median(rounds.shardSeconds[0]),
                      median(rounds.shardSeconds[1]),
                      rounds.shardSeconds[0].size());
        out.notes.push_back(line);
        return out;
    }

    Report &layer = out.perLayer;
    layer.set("minic.compile_ms", set.minicSeconds * 1e3, "ms");
    layer.set("casm.assemble_ms", set.casmSeconds * 1e3, "ms");
    layer.set("sim.capture_s", set.simSeconds, "s");
    layer.set("sim.minstr_per_s", set.records / 1e6 / set.simSeconds,
              "Minstr/s");
    layer.set("trace.ptrc_write_mb_per_s",
              set.ptrcBytes / 1048576.0 / set.ptrcSeconds, "MB/s");
    layer.set("trace.ptrz_write_mb_per_s",
              set.ptrzBytes / 1048576.0 / set.ptrzSeconds, "MB/s");
    const engine::SweepResult &grid = traced.lastPtrcGrid;
    double busy = 0;
    for (const engine::SweepCell &cell : grid.cells)
        busy += cell.wallSeconds;
    layer.set("engine.sweep_s", grid.wallSeconds, "s");
    layer.set("engine.worker_busy_frac",
              busy / (grid.jobs * grid.wallSeconds), "fraction");
    layer.set("engine.fused_groups", static_cast<double>(grid.fusedGroups),
              "count");
    layer.set("engine.cell_decode_s",
              traced.decodeSeconds / traced.ptrcGridSeconds.size(), "s");
    layer.set("engine.solo_cell_s",
              median(soloSeconds[0]) + median(soloSeconds[1]), "s");
    {
        ScopedSpan root("bench", "probes");
        runProbes(set.inputs, args.reduced ? 100000 : 1000000, args, layer,
                  out.checks);
        out.notes.push_back(selfTimeLine("probes", root.id()));
    }
    const double tracedWall =
        sum(traced.ptrcGridSeconds) + sum(traced.ptrzGridSeconds) +
        sum(traced.shardSeconds[0]) + sum(traced.shardSeconds[1]);
    const double untracedWall =
        sum(rounds.ptrcGridSeconds) + sum(rounds.ptrzGridSeconds) +
        sum(rounds.shardSeconds[0]) + sum(rounds.shardSeconds[1]);
    // Per-round wall, so rounds of unequal count compare.
    finishTraced(out, args, untracedWall / rounds.ptrcGridSeconds.size(),
                 tracedWall / traced.ptrcGridSeconds.size(), tracedRoot);
    return out;
}

} // namespace perfbench
