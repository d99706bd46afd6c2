/**
 * @file
 * Stable machine-readable JSON for sweep results.
 *
 * One object per grid cell: config echo, critical path, available
 * parallelism, profile buckets, timing. Key order, number formatting, and
 * cell order (grid order, not completion order) are all deterministic, so
 * two sweeps of the same grid produce byte-identical documents regardless
 * of worker count — the timing fields are segregated under "timing" keys
 * and can be omitted (`timing = false`) for such comparisons, and for
 * `BENCH_*.json` trajectories that diff runs.
 */

#ifndef PARAGRAPH_ENGINE_SWEEP_JSON_HPP
#define PARAGRAPH_ENGINE_SWEEP_JSON_HPP

#include <ostream>
#include <string>

#include "engine/sweep.hpp"

namespace paragraph {
namespace engine {

struct SweepJsonOptions
{
    /** Include wall-clock / throughput fields (never deterministic). */
    bool timing = true;

    /** Include the per-cell parallelism-profile bucket series. */
    bool profiles = true;

    /** Break each cell's wall time into decode vs analyze shares and
     *  report shard-segment counts (inside "timing", so `timing = false`
     *  documents stay deterministic and store splicing is unaffected). */
    bool stats = false;
};

/** Write @p sweep as a JSON document. */
void writeSweepJson(std::ostream &os, const SweepResult &sweep,
                    const SweepJsonOptions &opt = {});

/**
 * Render one cell exactly as it appears inside the "cells" array. The
 * result store keeps this text so a later sweep can splice it back
 * verbatim (byte-identical to an uninterrupted run).
 */
std::string cellToJson(const SweepCell &cell, const SweepJsonOptions &opt);

/** writeSweepJson into a string. */
std::string sweepToJson(const SweepResult &sweep,
                        const SweepJsonOptions &opt = {});

/** Shortest round-trip decimal rendering of @p v (JSON number syntax). */
std::string jsonDouble(double v);

/** JSON string literal (quotes and escapes @p s). */
std::string jsonString(const std::string &s);

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SWEEP_JSON_HPP
