#include "engine/sweep.hpp"

#include <chrono>
#include <utility>

#include "engine/journal.hpp"
#include "engine/scheduler.hpp"
#include "engine/sweep_json.hpp"
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
    sweep.cells.resize(jobs.size());

    std::unique_ptr<SweepJournal> journal;
    if (!opt_.journalPath.empty()) {
        journal = std::make_unique<SweepJournal>(opt_.journalPath,
                                                 opt_.journalProfiles);
    }
    SweepJsonOptions journalOpt;
    journalOpt.timing = false; // journaled cells must splice byte-identically
    journalOpt.profiles = opt_.journalProfiles;

    // Satisfy cells from the resume journal first, and collect the rest as
    // the pending work list (pending[k] is the grid slot of submitted job k).
    std::vector<size_t> pending;
    std::vector<SweepJob> pendingJobs;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JournalEntry *done =
            opt_.resume ? opt_.resume->findOk(i, jobs[i]) : nullptr;
        if (done) {
            SweepCell &cell = sweep.cells[i];
            cell.job = std::move(jobs[i]);
            cell.status = SweepCell::Status::Skipped;
            cell.attempts = done->attempts;
            cell.journalText = done->cellJson;
            ++sweep.cellsSkipped;
        } else {
            pending.push_back(i);
            pendingJobs.push_back(std::move(jobs[i]));
        }
    }

    // Warm the repository cache for every pending captured input up front,
    // serially: simulation and decompression are the parts that cannot be
    // split across cells, and doing it here (rather than lazily from the
    // pool) keeps the workers' wall-time numbers pure analysis. Streaming
    // inputs are skipped — their decode happens per pass, by design.
    // Failures are deliberately swallowed — a bad input surfaces as a
    // per-cell error below, where it can be attributed (and retried) per
    // cell instead of aborting the whole grid.
    for (const SweepJob &job : pendingJobs) {
        if (repo.streamingInput(job.input))
            continue;
        try {
            repo.get(job.input);
        } catch (const std::exception &) {
        }
    }
    sweep.captureSeconds = secondsSince(sweepStart);

    // Journal + aggregate + progress bookkeeping, exactly once per cell,
    // after its status is final. The scheduler serializes a batch's
    // callbacks, so plain counters suffice.
    size_t cellsDone = sweep.cellsSkipped;
    bool progressBroken = false;
    auto finishCell = [&](size_t k, SweepCell &cell) {
        if (journal) {
            std::string cellJson;
            if (cell.status == SweepCell::Status::Ok)
                cellJson = cellToJson(cell, journalOpt);
            journal->record(pending[k], cell, cellJson);
        }
        sweep.totalInstructions += cell.result.instructions;
        ++cellsDone;
        if (!opt_.progress || progressBroken)
            return;
        double elapsed = secondsSince(sweepStart);
        try {
            opt_.progress(cellsDone, sweep.cells.size(),
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
        auto batch = scheduler.submit(std::move(pendingJobs), finishCell);
        batch->wait();
        sweep.fusedGroups = batch->fusedGroups();
        for (size_t k = 0; k < pending.size(); ++k)
            sweep.cells[pending[k]] = std::move(batch->cells()[k]);
    }

    for (const SweepCell &cell : sweep.cells) {
        if (cell.status == SweepCell::Status::Failed)
            ++sweep.cellsFailed;
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
