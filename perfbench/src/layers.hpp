/**
 * @file
 * Calls into the repository's layers, wrapped in the benchmark's spans,
 * plus the reference computations the output checks compare against.
 * Everything here goes through the layers' public functions only.
 */
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "casm/program.hpp"
#include "core/config.hpp"
#include "engine/sweep.hpp"
#include "engine/trace_repository.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/buffer.hpp"

#include "common.hpp"

namespace perfbench {

namespace core = paragraph::core;
namespace engine = paragraph::engine;
namespace serve = paragraph::serve;
namespace trace = paragraph::trace;
namespace casm = paragraph::casm;

/** MiniC source -> Program: minic (parse + codegen), then casm. */
struct Compiled
{
    std::unique_ptr<casm::Program> program;
    double minicSeconds = 0.0;
    double casmSeconds = 0.0;
};
Compiled compileAnalog(const paragraph::workloads::Workload &w);

/** Simulate @p program on @p input into a buffer (at most @p cap records;
 *  0 = whole trace). */
std::shared_ptr<trace::TraceBuffer>
captureAnalog(const casm::Program &program, const AnalogInput &in,
              uint64_t cap, double *seconds);

/** Write @p buffer as `.ptrc` / `.ptrz`; returns the seconds taken. */
double writePtrc(const trace::TraceBuffer &buffer, const std::string &path);
double writePtrz(const trace::TraceBuffer &buffer, const std::string &path);

/** Size of @p path in bytes (0 when missing). */
uint64_t fileBytes(const std::string &path);

/** The paper-repro cell set (Tables 3-4, Fig. 7, Fig. 8), deduplicated:
 *  the five unlimited configs first, then the capped Fig. 8 windows. */
std::vector<core::AnalysisConfig> paperConfigs(std::vector<std::string> *labels);

/** Number of unlimited-window, unlimited-FU configs at the front of
 *  paperConfigs() (the ones the critical-path oracle checks). */
constexpr size_t kPaperUnlimitedConfigs = 5;

/** Configs of the core analysis probes, named by metric suffix. */
std::vector<std::pair<std::string, core::AnalysisConfig>> probeConfigs();

/** Conservative dataflow with bimodal prediction and 8 generic FUs: the
 *  config that takes the pre-pass plus full split-and-patch shard path. */
core::AnalysisConfig bimodalFu8Config();

/** No-timing JSON of the solo analysis of @p buffer under @p job. */
std::string soloCellJson(const trace::TraceBuffer &buffer,
                         const engine::SweepJob &job);

/** No-timing JSON of @p cell. */
std::string cellJson(const engine::SweepCell &cell);

/** Run @p fn(i) for i in [0, n) on up to @p threads threads. */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &fn);

/**
 * A ServeServer running in this process on a background thread, stopped
 * and joined by the destructor.
 */
class InProcessServer
{
  public:
    explicit InProcessServer(serve::ServeServer::Options opt);
    ~InProcessServer();
    InProcessServer(const InProcessServer &) = delete;
    InProcessServer &operator=(const InProcessServer &) = delete;

    bool started() const { return started_; }
    const std::string &error() const { return error_; }

  private:
    std::string error_;
    bool started_ = false;
    std::unique_ptr<serve::ServeServer> server_;
    std::thread thread_;
};

/** The document engine::sweepToJson(..., timing=false) gives for @p req's
 *  grid, computed by a fresh SweepEngine on @p repo with @p jobs workers. */
std::string referenceSweepDoc(engine::TraceRepository &repo,
                              const serve::ServeRequest &req, unsigned jobs);

/** Run every layer probe of the traced run on @p inputs (captures capped
 *  at @p cap records), setting each per-layer metric that @p out does not
 *  already hold from the workload's own timed part. */
void runProbes(const std::vector<AnalogInput> &inputs, uint64_t cap,
               const Args &args, Report &out, Checker &checks);

/** Self time per layer under @p root, as `self_s.<layer>` metrics. */
void reportSelfTimes(int64_t root, Report &out);

/** One line per layer of self time under @p root, for the summary. */
std::string selfTimeLine(const char *what, int64_t root);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
