#include "engine/sweep.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "engine/result_store.hpp"
#include "engine/scheduler.hpp"
#include "support/panic.hpp"

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

} // namespace

std::vector<SweepJob>
gridJobs(const std::vector<std::string> &inputs,
         const std::vector<core::AnalysisConfig> &configs,
         const std::vector<std::string> &labels)
{
    std::vector<SweepJob> grid;
    grid.reserve(inputs.size() * configs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < configs.size(); ++j) {
            SweepJob job;
            job.input = inputs[i];
            job.config = configs[j];
            job.configLabel =
                j < labels.size() ? labels[j] : configs[j].describe();
            job.inputIndex = i;
            job.configIndex = j;
            grid.push_back(std::move(job));
        }
    }
    return grid;
}

SweepEngine::SweepEngine() : SweepEngine(Options{}) {}

SweepEngine::SweepEngine(Options opt)
    : opt_(std::move(opt)), jobs_(workerCount(opt_.jobs))
{
}

SweepResult
SweepEngine::run(TraceRepository &repo,
                 const std::vector<std::string> &inputs,
                 const std::vector<core::AnalysisConfig> &configs,
                 const std::vector<std::string> &configLabels) const
{
    return runJobs(repo, gridJobs(inputs, configs, configLabels));
}

SweepResult
SweepEngine::runJobs(TraceRepository &repo, std::vector<SweepJob> jobs) const
{
    auto sweepStart = std::chrono::steady_clock::now();

    SweepResult sweep;
    sweep.jobs = jobs_;

    std::unique_ptr<ResultStore> store;
    if (!opt_.journalPath.empty())
        store = std::make_unique<ResultStore>(opt_.journalPath);

    // Warm the repository cache for every captured input up front,
    // serially: simulation and decompression are the parts that cannot be
    // split across cells, and doing it here (rather than lazily from the
    // pool) keeps the workers' wall-time numbers pure analysis. A store
    // needs the capture anyway, to key the input by content. Streaming
    // inputs are skipped — their decode happens per pass, by design.
    // Failures are deliberately swallowed — a bad input surfaces as a
    // per-cell error below, where it can be attributed (and retried) per
    // cell instead of aborting the whole grid.
    for (const SweepJob &job : jobs) {
        if (repo.streamingInput(job.input))
            continue;
        try {
            repo.get(job.input);
        } catch (const std::exception &) {
        }
    }
    sweep.captureSeconds = secondsSince(sweepStart);

    // Aggregate + progress bookkeeping, exactly once per cell, after its
    // status is final. resolveCells serializes the calls, so plain
    // counters suffice.
    const size_t cellsTotal = jobs.size();
    size_t cellsDone = 0;
    bool progressBroken = false;
    auto finishCell = [&](const SweepCell &cell) {
        sweep.totalInstructions += cell.result.instructions;
        ++cellsDone;
        if (!opt_.progress || progressBroken)
            return;
        double elapsed = secondsSince(sweepStart);
        try {
            opt_.progress(cellsDone, cellsTotal,
                          elapsed > 0.0
                              ? static_cast<double>(sweep.totalInstructions) /
                                    1e6 / elapsed
                              : 0.0);
        } catch (const std::exception &e) {
            progressBroken = true;
            PARA_WARN("sweep progress callback threw (%s); further progress "
                      "reports disabled",
                      e.what());
        } catch (...) {
            progressBroken = true;
            PARA_WARN("sweep progress callback threw; further progress "
                      "reports disabled");
        }
    };

    SweepScheduler::Options schedOpt;
    schedOpt.jobs = jobs_;
    schedOpt.groupSize = opt_.groupSize;
    schedOpt.exec.maxRetries = opt_.maxRetries;
    schedOpt.exec.cellDeadlineSeconds = opt_.cellDeadlineSeconds;
    schedOpt.exec.shards = opt_.shards;
    {
        SweepScheduler scheduler(repo, schedOpt);
        ResolvedCells resolved =
            resolveCells(repo, store.get(), scheduler, std::move(jobs),
                         opt_.journalProfiles, finishCell);
        sweep.cells = std::move(resolved.cells);
        sweep.fusedGroups = resolved.fusedGroups;
    }

    for (const SweepCell &cell : sweep.cells) {
        if (cell.status == SweepCell::Status::Failed)
            ++sweep.cellsFailed;
        else if (cell.status == SweepCell::Status::Skipped)
            ++sweep.cellsSkipped;
    }
    sweep.wallSeconds = secondsSince(sweepStart);
    sweep.aggregateMinstrPerSec =
        sweep.wallSeconds > 0.0
            ? static_cast<double>(sweep.totalInstructions) / 1e6 /
                  sweep.wallSeconds
            : 0.0;
    return sweep;
}

} // namespace engine
} // namespace paragraph
