#include "engine/scheduler.hpp"

#include <algorithm>
#include <system_error>
#include <utility>

#include "support/failpoint.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace engine {

namespace {

// Concurrent passes allowed over one decode-gated input. A plain
// take-a-ticket claim let 8 workers open 8 private decoders on the same
// compressed trace, and BENCH_sweep.json showed that streamed `--jobs=8`
// run *slower* than `--jobs=1` (the decoders thrash each other's cache and
// the disk). Pooled `.ptrc` inputs share one decode and are immune; the
// rest (`.ptrz`: stateful delta decode, one private decoder per pass) are
// capped at this.
constexpr unsigned kMaxDecodersPerInput = 2;

/** True when passes over @p input each run a private decoder. */
bool
decodeGated(TraceRepository &repo, const std::string &input)
{
    if (!repo.streamingInput(input))
        return false;
    try {
        return repo.decodePool(input) == nullptr;
    } catch (const std::exception &) {
        // A corrupt file fails pool construction here; the per-cell
        // attempt will re-raise it where it can be attributed.
        return true;
    }
}

size_t
ceilDiv(size_t n, size_t d)
{
    return (n + d - 1) / d;
}

} // namespace

unsigned
workerCount(unsigned jobs)
{
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return jobs ? jobs : 1; // hardware_concurrency() may report 0
}

SweepScheduler::SweepScheduler(TraceRepository &repo)
    : SweepScheduler(repo, Options())
{
}

SweepScheduler::SweepScheduler(TraceRepository &repo, Options opt)
    : repo_(repo), opt_(opt), workers_(workerCount(opt.jobs))
{
    pool_.reserve(workers_);
    for (unsigned t = 0; t < workers_; ++t) {
        // Worker-startup fault containment: a thread that cannot start
        // (resource exhaustion, or the injected site) shrinks the pool
        // instead of killing the scheduler. The first worker is exempt so
        // the pool can always make progress.
        if (t > 0 && PARA_FAILPOINT("scheduler.worker.start")) {
            PARA_WARN("scheduler: worker %u failed to start (injected); "
                      "continuing with %zu workers",
                      t, pool_.size());
            continue;
        }
        try {
            pool_.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error &e) {
            if (pool_.empty())
                throw; // zero workers would deadlock every submit
            PARA_WARN("scheduler: worker %u failed to start (%s); "
                      "continuing with %zu workers",
                      t, e.what(), pool_.size());
            break;
        }
    }
    workers_ = static_cast<unsigned>(pool_.size());
}

SweepScheduler::~SweepScheduler() { stop(); }

std::shared_ptr<SweepScheduler::Batch>
SweepScheduler::submit(std::vector<SweepJob> jobs, CellFn onCell)
{
    auto batch = std::make_shared<Batch>();
    batch->cells_.resize(jobs.size());
    batch->onCell_ = std::move(onCell);
    batch->remaining_ = jobs.size();
    for (size_t i = 0; i < jobs.size(); ++i)
        batch->cells_[i].job = std::move(jobs[i]);

    // Gate and group target per input of this submission, fixed now while
    // its shape is known (and outside the lock: probing a decode pool may
    // open the file). Auto target: one pass per worker's share of the
    // submission — except over decode-gated inputs, where at most
    // kMaxDecodersPerInput passes run at once no matter how many workers
    // exist. Dividing such a bucket among all workers yields near-solo
    // passes that serialize cap-at-a-time behind the gate, each paying a
    // full decode for a sliver of analysis (streamed --jobs=8 --group=0
    // ran at 0.74x of --group=2); dividing it among the decoders that can
    // actually run restores full fusion per pass.
    struct InputPlan
    {
        size_t cells = 0;
        bool gated = false;
        size_t groupTarget = 1;
    };
    std::map<std::string, InputPlan> plans;
    for (const SweepCell &cell : batch->cells_)
        ++plans[cell.job.input].cells;
    const size_t share = ceilDiv(batch->cells_.size(), workers_);
    const size_t decoders = std::min<size_t>(workers_, kMaxDecodersPerInput);
    for (auto &[input, plan] : plans) {
        plan.gated = decodeGated(repo_, input);
        if (opt_.groupSize)
            plan.groupTarget = opt_.groupSize;
        else if (plan.gated)
            plan.groupTarget = ceilDiv(plan.cells, decoders);
        else
            plan.groupTarget = share;
    }

    bool rejected;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rejected = stopping_;
        if (!rejected) {
            for (size_t i = 0; i < batch->cells_.size(); ++i) {
                const std::string &input = batch->cells_[i].job.input;
                const InputPlan &plan = plans[input];
                auto [it, fresh] = pendingByInput_.try_emplace(input);
                if (fresh) {
                    inputOrder_.push_back(input);
                    it->second.gated = plan.gated;
                }
                it->second.items.push_back(Item{batch, i, plan.groupTarget});
            }
        }
    }
    if (rejected) {
        for (SweepCell &cell : batch->cells_) {
            cell.status = SweepCell::Status::Failed;
            cell.errorMessage = "scheduler stopped";
            cell.attempts = 0;
        }
        // Deliver outside any scheduler lock, same as the worker path.
        for (size_t i = 0; i < batch->cells_.size(); ++i)
            deliver(Item{batch, i});
    } else {
        cv_.notify_all();
    }
    return batch;
}

void
SweepScheduler::stop()
{
    std::vector<Item> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && pool_.empty())
            return;
        stopping_ = true;
        for (auto &bucket : pendingByInput_) {
            for (Item &item : bucket.second.items)
                orphans.push_back(std::move(item));
        }
        pendingByInput_.clear();
        inputOrder_.clear();
    }
    cv_.notify_all();
    for (const Item &item : orphans) {
        SweepCell &cell = item.batch->cells_[item.index];
        cell.status = SweepCell::Status::Failed;
        cell.errorMessage = "scheduler stopped";
        cell.attempts = 0;
        deliver(item);
    }
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
}

size_t
SweepScheduler::pendingCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t pending = 0;
    for (const auto &bucket : pendingByInput_)
        pending += bucket.second.items.size();
    return pending;
}

void
SweepScheduler::deliver(const Item &item) const
{
    Batch &batch = *item.batch;
    SweepCell &cell = batch.cells_[item.index];
    std::lock_guard<std::mutex> lock(batch.mutex_);
    if (batch.onCell_) {
        try {
            batch.onCell_(item.index, cell);
        } catch (const std::exception &e) {
            PARA_WARN("scheduler cell callback threw (%s)", e.what());
        } catch (...) {
            PARA_WARN("scheduler cell callback threw");
        }
    }
    if (--batch.remaining_ == 0)
        batch.cv_.notify_all();
}

std::deque<std::string>::iterator
SweepScheduler::nextRunnableInput()
{
    for (auto it = inputOrder_.begin(); it != inputOrder_.end(); ++it) {
        if (!pendingByInput_.find(*it)->second.gated)
            return it;
        auto active = activeDecoders_.find(*it);
        if (active == activeDecoders_.end() ||
            active->second < kMaxDecodersPerInput)
            return it;
    }
    return inputOrder_.end();
}

void
SweepScheduler::workerLoop()
{
    for (;;) {
        std::vector<Item> group;
        std::string input;
        bool gated;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            auto next = inputOrder_.end();
            cv_.wait(lock, [&] {
                next = nextRunnableInput();
                return stopping_ || next != inputOrder_.end();
            });
            if (next == inputOrder_.end())
                return; // stopping, queue drained

            // Peel one fused group off the first runnable bucket: same
            // input, at most the front cell's group target, cut early
            // rather than exceed the memory budget.
            input = *next;
            Bucket &bucket = pendingByInput_.find(input)->second;
            gated = bucket.gated;
            const size_t target = bucket.items.front().groupTarget;
            size_t bytes = 0;
            while (!bucket.items.empty() && group.size() < target) {
                const Item &item = bucket.items.front();
                size_t need = configFootprint(
                    item.batch->cells_[item.index].job.config);
                if (!group.empty() && bytes + need > kGroupMemoryBudget)
                    break;
                bytes += need;
                group.push_back(std::move(bucket.items.front()));
                bucket.items.pop_front();
            }
            // A submission's cells sit contiguously in a bucket, so each
            // batch sharing this group counts it once.
            for (size_t k = 0; k < group.size(); ++k) {
                if (k == 0 || group[k].batch != group[k - 1].batch)
                    ++group[k].batch->fusedGroups_;
            }
            if (gated)
                ++activeDecoders_[input];
            if (bucket.items.empty()) {
                pendingByInput_.erase(input);
                inputOrder_.erase(next);
            } else {
                // Group cut early: the bucket still holds cells, and the
                // submit-time notification has already been consumed.
                // Wake a peer to take the remainder; the bucket keeps its
                // place so this trace drains before the queue moves on.
                cv_.notify_one();
            }
        }

        runGroup(input, group);

        if (gated) {
            // A decoder slot is free again: wake every worker parked on a
            // capped bucket.
            std::lock_guard<std::mutex> lock(mutex_);
            if (--activeDecoders_[input] == 0)
                activeDecoders_.erase(input);
            cv_.notify_all();
        }
    }
}

void
SweepScheduler::runGroup(const std::string &input,
                         const std::vector<Item> &group)
{
    // Hold the capture for the duration of the group so a bounded
    // repository cannot evict (and later re-capture) it mid-pass. A
    // capture failure is not handled here — the per-cell attempts loop
    // will surface it as each cell's error.
    TracePin pin;
    if (!repo_.streamingInput(input)) {
        try {
            pin = repo_.pin(input);
        } catch (const std::exception &) {
        }
    }

    if (group.size() == 1) {
        const Item &item = group.front();
        runCellSolo(repo_, item.batch->cells_[item.index], opt_.exec);
        deliver(item);
        return;
    }
    std::vector<SweepCell *> cells;
    cells.reserve(group.size());
    for (const Item &item : group)
        cells.push_back(&item.batch->cells_[item.index]);
    runFusedCells(repo_, cells, opt_.exec,
                  [&](size_t k) { deliver(group[k]); });
}

} // namespace engine
} // namespace paragraph
