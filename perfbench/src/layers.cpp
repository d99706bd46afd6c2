#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>
#include <sys/stat.h>

#include "casm/assembler.hpp"
#include "core/paragraph.hpp"
#include "engine/sweep_args.hpp"
#include "engine/sweep_json.hpp"
#include "minic/compiler.hpp"
#include "minic/parser.hpp"
#include "sim/machine.hpp"
#include "trace/compressed_io.hpp"
#include "trace/file_io.hpp"

namespace perfbench {

Compiled
compileAnalog(const paragraph::workloads::Workload &w)
{
    Compiled out;
    double t0 = now();
    std::string assembly;
    {
        ScopedSpan span("minic", "minic::parse+codegen " + w.name);
        assembly = paragraph::minic::generateAssembly(
            paragraph::minic::parse(w.source));
    }
    double t1 = now();
    {
        ScopedSpan span("casm", "casm::assemble " + w.name);
        out.program =
            std::make_unique<casm::Program>(casm::assemble(assembly));
    }
    double t2 = now();
    out.minicSeconds = t1 - t0;
    out.casmSeconds = t2 - t1;
    return out;
}

std::shared_ptr<trace::TraceBuffer>
captureAnalog(const casm::Program &program, const AnalogInput &in,
              uint64_t cap, double *seconds)
{
    ScopedSpan span("sim", "sim capture " + describeInput(in));
    double t0 = now();
    paragraph::sim::MachineTraceSource src(program, in.input, {},
                                           in.workload->name);
    auto buffer = std::make_shared<trace::TraceBuffer>();
    buffer->capture(src, static_cast<size_t>(cap));
    if (seconds)
        *seconds = now() - t0;
    return buffer;
}

double
writePtrc(const trace::TraceBuffer &buffer, const std::string &path)
{
    ScopedSpan span("trace", "TraceFileWriter " + path);
    double t0 = now();
    trace::TraceFileWriter writer(path);
    for (const trace::TraceRecord &rec : buffer.records())
        writer.write(rec);
    writer.close();
    return now() - t0;
}

double
writePtrz(const trace::TraceBuffer &buffer, const std::string &path)
{
    ScopedSpan span("trace", "CompressedTraceWriter " + path);
    double t0 = now();
    trace::CompressedTraceWriter writer(path);
    for (const trace::TraceRecord &rec : buffer.records())
        writer.write(rec);
    writer.close();
    return now() - t0;
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<uint64_t>(st.st_size);
}

std::vector<core::AnalysisConfig>
paperConfigs(std::vector<std::string> *labels)
{
    // Table 3 (conservative = Table 4's regs+mem column, optimistic) and
    // Table 4 (none, regs, regs+stack); Fig. 7 is the conservative cell's
    // profile. Fig. 8: windows 1..65536 plus the unlimited reference, all
    // capped at 2M instructions as bench_figure8_window does.
    std::vector<core::AnalysisConfig> cfgs = {
        core::AnalysisConfig::dataflowConservative(),
        core::AnalysisConfig::dataflowOptimistic(),
        core::AnalysisConfig::noRenaming(),
        core::AnalysisConfig::regsRenamed(),
        core::AnalysisConfig::regsStackRenamed(),
    };
    std::vector<std::string> names = {"table3-conservative",
                                      "table3-optimistic", "table4-none",
                                      "table4-regs", "table4-regs+stack"};
    constexpr uint64_t cap = 2000000;
    for (uint64_t w = 1; w <= 65536; w *= 4) {
        core::AnalysisConfig cfg = core::AnalysisConfig::windowed(w);
        cfg.maxInstructions = cap;
        cfgs.push_back(cfg);
        names.push_back("fig8-window=" + std::to_string(w));
    }
    core::AnalysisConfig ref = core::AnalysisConfig::dataflowConservative();
    ref.maxInstructions = cap;
    cfgs.push_back(ref);
    names.push_back("fig8-window=unlimited");
    if (labels)
        *labels = names;
    return cfgs;
}

core::AnalysisConfig
bimodalFu8Config()
{
    core::AnalysisConfig cfg = core::AnalysisConfig::dataflowConservative();
    cfg.branchPredictor = core::PredictorKind::Bimodal;
    cfg.totalFuLimit = 8;
    return cfg;
}

std::vector<std::pair<std::string, core::AnalysisConfig>>
probeConfigs()
{
    core::AnalysisConfig fu8 = core::AnalysisConfig::dataflowConservative();
    fu8.totalFuLimit = 8;
    core::AnalysisConfig bimodal =
        core::AnalysisConfig::dataflowConservative();
    bimodal.branchPredictor = core::PredictorKind::Bimodal;
    return {
        {"dataflow", core::AnalysisConfig::dataflowConservative()},
        {"norename", core::AnalysisConfig::noRenaming()},
        {"window64", core::AnalysisConfig::windowed(64)},
        {"fu8", fu8},
        {"bimodal", bimodal},
    };
}

std::string
cellJson(const engine::SweepCell &cell)
{
    engine::SweepJsonOptions opt;
    opt.timing = false;
    return engine::cellToJson(cell, opt);
}

std::string
soloCellJson(const trace::TraceBuffer &buffer, const engine::SweepJob &job)
{
    engine::SweepCell cell;
    cell.job = job;
    core::Paragraph analyzer(job.config);
    cell.result = analyzer.analyze(buffer);
    cell.status = engine::SweepCell::Status::Ok;
    return cellJson(cell);
}

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    unsigned t = static_cast<unsigned>(std::min<size_t>(threads, n));
    for (unsigned k = 1; k < t; ++k)
        pool.emplace_back(worker);
    worker();
    for (std::thread &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

InProcessServer::InProcessServer(serve::ServeServer::Options opt)
{
    opt.quiet = true;
    server_ = std::make_unique<serve::ServeServer>(std::move(opt));
    started_ = server_->start(error_);
    if (started_)
        thread_ = std::thread([this] { server_->run(); });
}

InProcessServer::~InProcessServer()
{
    if (server_)
        server_->requestStop();
    if (thread_.joinable())
        thread_.join();
    server_.reset();
}

std::string
referenceSweepDoc(engine::TraceRepository &repo,
                  const serve::ServeRequest &req, unsigned jobs)
{
    engine::SweepArgs args = serve::toSweepArgs(req);
    std::vector<core::AnalysisConfig> configs;
    std::vector<std::string> labels;
    std::string error;
    if (!engine::buildSweepConfigAxis(args, configs, labels, error))
        return "error: " + error;
    engine::SweepEngine::Options opt;
    opt.jobs = jobs;
    opt.groupSize = 1;
    engine::SweepEngine sweeper(opt);
    engine::SweepResult sweep = sweeper.run(repo, req.inputs, configs, labels);
    engine::SweepJsonOptions json;
    json.timing = false;
    json.profiles = req.profiles;
    return engine::sweepToJson(sweep, json);
}

void
reportSelfTimes(int64_t root, Report &out)
{
    static const char *const layers[] = {"minic", "casm",   "sim",
                                         "trace", "core",   "engine",
                                         "serve", "bench"};
    auto self = Tracer::instance().selfSeconds(root);
    for (const char *layer : layers) {
        double s = 0.0;
        for (auto &[name, secs] : self) {
            if (name == layer)
                s = secs;
        }
        out.set(std::string("self_s.") + layer, s, "s");
    }
}

std::string
selfTimeLine(const char *what, int64_t root)
{
    std::ostringstream os;
    os << "self time (" << what << "):";
    char buf[64];
    for (auto &[layer, secs] : Tracer::instance().selfSeconds(root)) {
        std::snprintf(buf, sizeof buf, " %s=%.3fs", layer.c_str(), secs);
        os << buf;
    }
    return os.str();
}

} // namespace perfbench
