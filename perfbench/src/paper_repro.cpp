// paper-repro: the paper's reproduction as a closed batch. Every pass goes
// from MiniC source to the last cell of Tables 3-4 and Figs. 7-8 for the
// ten analogs at their default (paper) inputs, on one SweepEngine with
// jobs = nproc and auto fusion. The seed only permutes the order in which
// the cells are submitted.

#include <cstdio>

#include "core/baseline.hpp"
#include "engine/sweep.hpp"

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Pass
{
    double seconds = 0.0;
    double minicSeconds = 0.0;
    double casmSeconds = 0.0;
    std::unique_ptr<engine::TraceRepository> repo;
    engine::SweepResult sweep;
    std::vector<std::unique_ptr<casm::Program>> programs;
};

/** One pass from source to the last cell, into @p pass. The previous
 *  pass held there is released first, so that two passes' captures are
 *  never resident together. */
void
runPass(const std::vector<std::string> &names,
        const std::vector<engine::SweepJob> &grid, paragraph::workloads::Scale scale,
        unsigned jobs, Pass &pass)
{
    pass = Pass();
    ScopedSpan root("bench", "paper-repro pass");
    double t0 = now();
    auto &suite = paragraph::workloads::WorkloadSuite::instance();
    for (const std::string &name : names) {
        Compiled c = compileAnalog(suite.find(name));
        pass.minicSeconds += c.minicSeconds;
        pass.casmSeconds += c.casmSeconds;
        pass.programs.push_back(std::move(c.program));
    }
    engine::TraceRepository::Options ro;
    ro.scale = scale;
    pass.repo = std::make_unique<engine::TraceRepository>(ro);
    engine::SweepEngine::Options opt;
    opt.jobs = jobs;
    opt.groupSize = 0;
    engine::SweepEngine sweeper(opt);
    {
        ScopedSpan span("engine", "SweepEngine::runJobs");
        double runStart = now();
        pass.sweep = sweeper.runJobs(*pass.repo, grid);
        Tracer::instance().add("sim", "capture (SweepResult::captureSeconds)",
                               runStart, runStart + pass.sweep.captureSeconds,
                               span.id());
    }
    pass.seconds = now() - t0;
}

} // namespace

Outcome
runPaperRepro(const Args &args)
{
    Outcome out;
    auto &suite = paragraph::workloads::WorkloadSuite::instance();
    const auto scale = args.reduced ? paragraph::workloads::Scale::Small
                                    : paragraph::workloads::Scale::Full;
    std::vector<std::string> names;
    if (args.reduced) {
        names = {"xlisp", "nasker", "tomcatv"};
    } else {
        for (const auto &w : suite.all())
            names.push_back(w.name);
    }
    std::vector<std::string> labels;
    const std::vector<core::AnalysisConfig> configs = paperConfigs(&labels);

    std::vector<engine::SweepJob> grid;
    for (size_t i = 0; i < names.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            engine::SweepJob job;
            job.input = names[i];
            job.config = configs[j];
            job.configLabel = labels[j];
            job.inputIndex = i;
            job.configIndex = j;
            grid.push_back(std::move(job));
        }
    }
    Prng rng(args.seed);
    for (size_t i = grid.size(); i > 1; --i)
        std::swap(grid[i - 1], grid[rng.nextBelow(i)]);

    // Set-up: the same cell list at small scale, eleven times (the first
    // also compiles the suite's programs); setup_s is the median. One
    // repetition takes about 0.3 s, so a median of fewer varies by a
    // quarter from run to run.
    std::vector<double> setups;
    for (int r = 0; r < 11; ++r) {
        double t0 = now();
        engine::TraceRepository::Options ro;
        ro.scale = paragraph::workloads::Scale::Small;
        engine::TraceRepository repo(ro);
        engine::SweepEngine::Options opt;
        opt.jobs = args.jobs;
        opt.groupSize = 0;
        engine::SweepEngine(opt).runJobs(repo, grid);
        setups.push_back(now() - t0);
    }

    // Timed part: whole passes until --seconds have elapsed (at least one).
    auto timed = [&](std::vector<double> &passSeconds,
                     std::vector<double> &minstr,
                     std::vector<double> &opsPerSec,
                     std::vector<double> &latencyMs, Pass &pass) {
        double start = now();
        do {
            runPass(names, grid, scale, args.jobs, pass);
            uint64_t instr = 0;
            for (const engine::SweepCell &cell : pass.sweep.cells) {
                instr += cell.result.instructions;
                out.checks.expect(cell.status == engine::SweepCell::Status::Ok,
                                  "cell ok: " + cell.job.input + " " +
                                      cell.job.configLabel + " " +
                                      cell.errorMessage);
            }
            passSeconds.push_back(pass.seconds);
            latencyMs.push_back(pass.seconds * 1e3);
            minstr.push_back(instr / 1e6 / pass.seconds);
            opsPerSec.push_back(pass.sweep.cells.size() / pass.seconds);
        } while (now() - start < args.seconds);
    };

    Pass pass;
    std::vector<double> passSeconds, minstr, opsPerSec, latencyMs;
    timed(passSeconds, minstr, opsPerSec, latencyMs, pass);
    int64_t tracedRoot = -1;
    std::vector<double> tSeconds;
    if (args.trace) {
        Tracer::instance().setEnabled(true);
        std::vector<double> tMinstr, tOps, tLatency;
        ScopedSpan root("bench", "paper-repro timed part (traced)");
        tracedRoot = root.id();
        timed(tSeconds, tMinstr, tOps, tLatency, pass);
    }

    // Output checks, outside the timed part.
    for (size_t i = 0; i < names.size(); ++i) {
        const casm::Program &ours = *pass.programs[i];
        const casm::Program &suites = suite.program(suite.find(names[i]));
        out.checks.expect(ours.text == suites.text && ours.data == suites.data,
                          "compiled program matches the suite's: " + names[i]);
    }
    std::vector<const engine::SweepCell *> byPos(names.size() * configs.size());
    for (const engine::SweepCell &cell : pass.sweep.cells)
        byPos[cell.job.inputIndex * configs.size() + cell.job.configIndex] =
            &cell;
    // Every unlimited-window, unlimited-FU cell of Tables 3-4 against the
    // independent critical-path analyzer.
    const size_t nOracle = names.size() * kPaperUnlimitedConfigs;
    std::vector<core::BaselineResult> oracle(nOracle);
    parallelFor(nOracle, args.jobs, [&](size_t k) {
        size_t i = k / kPaperUnlimitedConfigs, j = k % kPaperUnlimitedConfigs;
        trace::SharedBufferSource src(pass.repo->get(names[i]), names[i]);
        core::CriticalPathAnalyzer analyzer(configs[j]);
        oracle[k] = analyzer.analyze(src);
    });
    if (args.corruptReference)
        oracle.front().criticalPathLength += 1;
    for (size_t k = 0; k < nOracle; ++k) {
        size_t i = k / kPaperUnlimitedConfigs, j = k % kPaperUnlimitedConfigs;
        const engine::SweepCell *cell = byPos[i * configs.size() + j];
        out.checks.expect(
            cell && cell->result.criticalPathLength ==
                        oracle[k].criticalPathLength &&
                cell->result.placedOps == oracle[k].placedOps,
            "critical path / placed ops match CriticalPathAnalyzer: " +
                names[i] + " " + labels[j]);
    }

    if (!args.trace) {
        reportEndToEnd(out, median(setups), median(minstr), median(opsPerSec),
                       percentile(latencyMs, 50), percentile(latencyMs, 90),
                       std::to_string(minstr.size()) + " pass(es) of " +
                           std::to_string(grid.size()) + " cells");
        char line[160];
        std::snprintf(line, sizeof line,
                      "repro_minstr_per_s %.4f Minstr/s (median of %zu "
                      "pass(es), %zu cells each)",
                      median(minstr), minstr.size(), grid.size());
        out.notes.push_back(line);
        std::snprintf(line, sizeof line,
                      "serial capture share: %.3f s of %.3f s pass wall "
                      "(%.1f%%)",
                      pass.sweep.captureSeconds, pass.seconds,
                      100.0 * pass.sweep.captureSeconds / pass.seconds);
        out.notes.push_back(line);
        return out;
    }

    // Per-layer metrics from the timed part itself, then the probes.
    Report &layer = out.perLayer;
    uint64_t captured = 0;
    for (const std::string &name : names)
        captured += pass.repo->get(name)->size();
    double busy = 0;
    for (const engine::SweepCell &cell : pass.sweep.cells)
        busy += cell.wallSeconds;
    layer.set("minic.compile_ms", pass.minicSeconds * 1e3, "ms");
    layer.set("casm.assemble_ms", pass.casmSeconds * 1e3, "ms");
    layer.set("sim.capture_s", pass.sweep.captureSeconds, "s");
    layer.set("sim.minstr_per_s", captured / 1e6 / pass.sweep.captureSeconds,
              "Minstr/s");
    layer.set("engine.capture_s", pass.sweep.captureSeconds, "s");
    layer.set("engine.sweep_s", pass.sweep.wallSeconds, "s");
    layer.set("engine.worker_busy_frac",
              busy / (pass.sweep.jobs * pass.sweep.wallSeconds), "fraction");
    layer.set("engine.fused_groups",
              static_cast<double>(pass.sweep.fusedGroups), "count");
    pass = Pass(); // release the full-scale captures before probing
    {
        ScopedSpan root("bench", "probes");
        runProbes(defaultInputs(names, args.reduced),
                  args.reduced ? 100000 : 500000, args, layer, out.checks);
        out.notes.push_back(selfTimeLine("probes", root.id()));
    }
    finishTraced(out, args, median(passSeconds), median(tSeconds),
                 tracedRoot);
    return out;
}

} // namespace perfbench
