/**
 * @file
 * The benchmark's workloads. Each one runs its set-up, its timed part and
 * its output checks, and fills an Outcome: end-to-end metrics in the
 * untraced run, per-layer metrics in the traced run (--trace 1).
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** The ten analogs through the Tables 3-4 / Fig. 7-8 cell set. */
Outcome runPaperRepro(const Args &args);

/** Grids and sharded cells streamed from .ptrc / .ptrz files. */
Outcome runTraceFiles(const Args &args);

/** A closed loop of two clients against an in-process daemon. */
Outcome runServeMixed(const Args &args);

/** Set the end-to-end metrics every workload reports; @p samples says
 *  what the figures were taken over. */
void reportEndToEnd(Outcome &out, double setupSeconds, double minstrPerSec,
                    double opsPerSec, double p50Ms, double p90Ms,
                    const std::string &samples);

/** In the traced run: the tracing overhead of the timed part, the
 *  per-layer self times and the Chrome trace-event file. */
void finishTraced(Outcome &out, const Args &args, double untracedSeconds,
                  double tracedSeconds, int64_t timedRoot);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
