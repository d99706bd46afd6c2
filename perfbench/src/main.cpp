// perfbench: the repository benchmark program.
//
//   perfbench --workload <paper-repro|trace-files|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--reduced] [--corrupt-reference]
//
// Run it from the root of a checkout: scratch files go under
// .bench_build/perfbench-work/ (removed at exit) and the traced run's
// Chrome trace-event file under .bench_build/perfbench-traces/.
//
// Prints a human-readable summary, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

void
reportEndToEnd(Outcome &out, double setupSeconds, double minstrPerSec,
               double opsPerSec, double p50Ms, double p90Ms,
               const std::string &samples)
{
    Report &r = out.endToEnd;
    r.set("setup_s", setupSeconds, "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("minstr_per_s", minstrPerSec, "Minstr/s");
    r.set("ops_per_s", opsPerSec, "1/s");
    r.set("latency_p50_ms", p50Ms, "ms");
    r.set("latency_p90_ms", p90Ms, "ms");
    out.notes.push_back("samples: " + samples);
}

void
finishTraced(Outcome &out, const Args &args, double untracedSeconds,
             double tracedSeconds, int64_t timedRoot)
{
    Report &r = out.perLayer;
    r.set("bench.untraced_s", untracedSeconds, "s");
    r.set("bench.traced_s", tracedSeconds, "s");
    r.set("bench.tracing_overhead_frac",
          (tracedSeconds - untracedSeconds) / untracedSeconds, "fraction");
    reportSelfTimes(-1, r);
    out.notes.push_back(selfTimeLine("timed part", timedRoot));
    out.notes.push_back(selfTimeLine("whole traced run", -1));
    std::filesystem::create_directories(args.traceDir);
    std::string path = args.traceDir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (Tracer::instance().writeChrome(path))
        out.notes.push_back("trace events: " + path);
    else
        out.checks.expect(false, "writing " + path);
}

} // namespace perfbench

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <paper-repro|trace-files|"
                 "serve-mixed> --seed N --seconds S --trace 0|1\n"
                 "                 [--reduced] [--corrupt-reference]\n",
                 why);
    return 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.jobs = hardwareJobs();
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        try {
            if (a == "--workload" && value(v)) {
                args.workload = v;
            } else if (a == "--seed" && value(v)) {
                args.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds" && value(v)) {
                args.seconds = std::stod(v);
                haveSeconds = args.seconds > 0;
            } else if (a == "--trace" && value(v)) {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                args.trace = v == "1";
                haveTrace = true;
            } else if (a == "--reduced") {
                args.reduced = true;
            } else if (a == "--corrupt-reference") {
                args.corruptReference = true;
            } else {
                return usage(("bad argument '" + a + "'").c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for '" + a + "'").c_str());
        }
    }
    Outcome (*run)(const Args &) = nullptr;
    if (args.workload == "paper-repro")
        run = runPaperRepro;
    else if (args.workload == "trace-files")
        run = runTraceFiles;
    else if (args.workload == "serve-mixed")
        run = runServeMixed;
    if (!run)
        return usage("unknown or missing --workload");
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");
    args.workdir = ".bench_build/perfbench-work/" + args.workload + "-" +
                   std::to_string(::getpid());
    args.traceDir = ".bench_build/perfbench-traces";
    std::filesystem::create_directories(args.workdir);

    Outcome out;
    int status = 0;
    try {
        out = run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        status = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
    if (status != 0)
        return status;

    const uint64_t attempted = out.checks.attempted();
    const uint64_t failed = out.checks.failed();
    const bool correct = failed == 0 && attempted > 0;
    const Report &metrics = args.trace ? out.perLayer : out.endToEnd;

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d jobs=%u%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.jobs,
                args.reduced ? " (reduced)" : "");
    for (const std::string &note : out.notes)
        std::printf("  %s\n", note.c_str());
    for (const Metric &m : metrics.metrics())
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-40s %16.6f %s (%llu failed of %llu checked operations)\n",
                "failed_frac",
                attempted ? double(failed) / double(attempted) : 1.0,
                "fraction", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.metrics()) {
        json += std::string(first ? "" : ", ") + "\"" + m.name +
                "\": {\"value\": " + jsonNumber(m.value) + ", \"unit\": \"" +
                m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
