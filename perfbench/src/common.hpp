/**
 * @file
 * Shared pieces of the repository benchmark: command-line arguments, the
 * span recorder of the traced run, metric reports, output checks and the
 * seeded input generator.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/prng.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using paragraph::Prng;

/** Seconds on the steady clock since an arbitrary process-wide epoch. */
double now();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p p in [0, 100] of @p v. */
double percentile(std::vector<double> v, double p);

/** Mean of the values between the first and third quartile of @p v. */
double interquartileMean(std::vector<double> v);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Hardware threads (at least 1). */
unsigned hardwareJobs();

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reduced inputs and sample counts, for the benchmark's self-test. */
    bool reduced = false;
    /** Corrupt one reference value, so the output checks must fail. */
    bool corruptReference = false;
    /** Scratch directory inside the checkout; removed at exit. */
    std::string workdir;
    /** Directory the traced run writes its Chrome trace-event file to. */
    std::string traceDir;
    /** Worker threads: nproc. */
    unsigned jobs = 1;
};

// ---------------------------------------------------------------------------
// Span recorder (traced run only)
// ---------------------------------------------------------------------------

/**
 * Spans recorded by the benchmark around its calls into the repository's
 * layers. Spans live in memory until the run ends; nothing is recorded
 * while the recorder is disabled (the untraced run).
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        int64_t parent = -1;
        uint64_t requestId = 0;
        uint64_t thread = 0;
    };

    static Tracer &instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Open a span; its parent is this thread's innermost open span unless
     *  @p parent is given (>= 0). Returns -1 when disabled. */
    int64_t open(const std::string &layer, const std::string &name,
                 uint64_t requestId = 0, int64_t parent = -2);
    void close(int64_t id);

    /** Record a finished span reconstructed from a layer's own result
     *  fields (for example the capture phase of SweepEngine::runJobs). */
    void add(const std::string &layer, const std::string &name, double start,
             double end, int64_t parent);

    /** Innermost open span of the calling thread (-1 when none). */
    int64_t current() const;

    /** Self time per layer over the spans under @p root (all spans when
     *  root < 0): each span's duration minus the part its children cover. */
    std::vector<std::pair<std::string, double>>
    selfSeconds(int64_t root = -1) const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op while tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const std::string &layer, const std::string &name,
               uint64_t requestId = 0, int64_t parent = -2)
        : id_(Tracer::instance().open(layer, name, requestId, parent))
    {
    }
    ~ScopedSpan() { Tracer::instance().close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    int64_t id_;
};

// ---------------------------------------------------------------------------
// Reports and checks
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list; set() replaces a metric already present. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    bool has(const std::string &name) const;
    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Counts checked operations and the ones that failed or were wrong. */
class Checker
{
  public:
    /** One operation attempted; @p ok false counts it as failed. */
    void expect(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    Checker checks;
    Report endToEnd;
    Report perLayer;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/** One analog with the input vector the program under test receives. */
struct AnalogInput
{
    const paragraph::workloads::Workload *workload = nullptr;
    std::vector<int32_t> input;
};

/** @p names at their default inputs (full scale, or small when
 *  @p small). */
std::vector<AnalogInput> defaultInputs(const std::vector<std::string> &names,
                                       bool small);

/**
 * @p names with seeded inputs: the first (size) element of each input
 * vector is scaled by a factor drawn from [0.95, 1.05], which keeps every
 * element well within 25% of the default and the trace lengths near the
 * default ones.
 */
std::vector<AnalogInput> seededInputs(const std::vector<std::string> &names,
                                      bool small, Prng &rng);

/** "name[a,b,...]" for reports. */
std::string describeInput(const AnalogInput &in);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
