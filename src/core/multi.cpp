#include "core/multi.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "trace/block_pipeline.hpp"

namespace paragraph {
namespace core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * The fused pass: one engine per config, fed block-major. The live list
 * holds the indices of engines still consuming; an engine leaves it when
 * it hits its instruction cap or throws. An engine exception (e.g.
 * CancelledError from a polled token) is parked in that engine's outcome
 * slot and the siblings keep running.
 */
struct FusedPass
{
    std::vector<std::unique_ptr<Paragraph>> engines;
    std::vector<MultiOutcome> outcomes;
    std::vector<size_t> live;

    explicit FusedPass(const std::vector<AnalysisConfig> &configs)
        : outcomes(configs.size())
    {
        engines.reserve(configs.size());
        live.reserve(configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            engines.push_back(std::make_unique<Paragraph>(configs[i]));
            live.push_back(i);
        }
    }

    /** Run every live engine's bulk loop over one shared block
     *  (engine-major: each live well stays cache-hot for the whole
     *  block). Cancel tokens are polled inside processAll. */
    void
    feed(const trace::TraceRecord *block, size_t n)
    {
        size_t k = 0;
        while (k < live.size()) {
            size_t i = live[k];
            auto t0 = std::chrono::steady_clock::now();
            try {
                engines[i]->processAll(block, n);
            } catch (...) {
                outcomes[i].error = std::current_exception();
                outcomes[i].engineSeconds += secondsSince(t0);
                live.erase(live.begin() + k);
                continue;
            }
            outcomes[i].engineSeconds += secondsSince(t0);
            if (engines[i]->done())
                live.erase(live.begin() + k);
            else
                ++k;
        }
    }

    /** finish() every engine that didn't fail. */
    void
    finishAll()
    {
        for (size_t i = 0; i < engines.size(); ++i) {
            if (outcomes[i].error)
                continue;
            auto t0 = std::chrono::steady_clock::now();
            try {
                outcomes[i].result = engines[i]->finish();
            } catch (...) {
                outcomes[i].error = std::current_exception();
            }
            outcomes[i].engineSeconds += secondsSince(t0);
        }
    }
};

} // namespace

std::vector<MultiOutcome>
analyzeManyGuarded(trace::BlockSource &blocks,
                   const std::vector<AnalysisConfig> &configs)
{
    FusedPass pass(configs);
    double decodeSeconds = 0.0;
    const trace::TraceRecord *block = nullptr;
    while (!pass.live.empty()) {
        auto t0 = std::chrono::steady_clock::now();
        size_t n = blocks.next(&block); // rethrows source errors
        decodeSeconds += secondsSince(t0);
        if (n == 0)
            break;
        pass.feed(block, n);
    }
    pass.finishAll();
    for (MultiOutcome &o : pass.outcomes)
        o.decodeSeconds = decodeSeconds;
    return std::move(pass.outcomes);
}

std::vector<MultiOutcome>
analyzeManyGuarded(trace::TraceSource &src,
                   const std::vector<AnalysisConfig> &configs)
{
    if (configs.empty())
        return {};

    // When every config has an instruction cap, the pass needs exactly
    // max(cap) records — don't drain the (shared) source past that.
    uint64_t capRecords = 0;
    bool bounded = true;
    for (const AnalysisConfig &cfg : configs) {
        if (cfg.maxInstructions == 0)
            bounded = false;
        else if (cfg.maxInstructions > capRecords)
            capRecords = cfg.maxInstructions;
    }

    // Pipelined decode: the producer thread unpacks the next block
    // while the engines consume the current one.
    trace::BlockPipeline::Options popt;
    popt.maxRecords = bounded ? capRecords : 0;
    trace::BlockPipeline pipe(src, popt);
    return analyzeManyGuarded(pipe, configs);
}

std::vector<MultiOutcome>
analyzeManyGuarded(const trace::TraceBuffer &buffer,
                   const std::vector<AnalysisConfig> &configs)
{
    // Non-owning: the caller keeps the buffer alive for the whole call.
    trace::BufferBlocks blocks(std::shared_ptr<const trace::TraceBuffer>(
        std::shared_ptr<const trace::TraceBuffer>(), &buffer));
    return analyzeManyGuarded(blocks, configs);
}

} // namespace core
} // namespace paragraph
