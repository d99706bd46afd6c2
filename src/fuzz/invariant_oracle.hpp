/**
 * @file
 * InvariantOracle: the paper's placement theorems as executable checks.
 *
 * Every property below is a consequence of the placement rule of Section
 * 3.2 (see paragraph.hpp) or of the analyses being independent re-reads of
 * one trace, so each must hold on EVERY valid trace — which is what makes
 * them usable as fuzzing oracles: no golden outputs, just relations between
 * runs under systematically varied switches (metamorphic testing) and
 * between independent implementations (differential testing against
 * core::CriticalPathAnalyzer).
 *
 * The catalogue (names are stable identifiers used in repro JSON and docs):
 *
 *   fused-solo-identity        analyzeManyGuarded == analyze() per config
 *   stream-bulk-identity       analyze(TraceSource&) == analyze(TraceBuffer&)
 *   determinism                same trace + config twice == identical result
 *   baseline-agreement         CriticalPathAnalyzer cp == Paragraph cp
 *   window-monotonicity        W1 <= W2  =>  cp(W1) >= cp(W2) >= cp(inf)
 *   window-firewall-bound      no DDG level holds more than W operations
 *   rename-monotonicity        more renaming => cp can only shrink
 *   rename-removes-storage-deps  all renaming on => storageDelayedOps == 0
 *   syscall-monotonicity       cp(stall) >= cp(ignore); placed-op delta ==
 *                              value-creating syscalls
 *   fu-monotonicity            cp(fu=k) >= cp(unlimited); placedOps equal
 *   placed-ops-conservation    placedOps invariant across all switch axes
 *                              and == value-creating records in the trace
 *   profile-conservation       profile/lifetime/sharing totals match
 *                              placedOps; profile depth matches cp
 *   predictor-bound            misses <= branches; cp(wrong) >= cp(perfect)
 *   critical-path-lower-bound  cp >= max placed latency; peak >= final
 *   file-round-trip            .ptrc and .ptrz round-trip to identical
 *                              records
 *   shard-stitch-identity      firewall-cut segments all splice (none
 *                              replayed) and patch to the exact solo
 *                              result (stall + perfect prediction)
 *   split-and-patch-identity   arbitrary-cut segments patch
 *                              (validate-or-replay) to the exact solo
 *                              result under EVERY matrix config
 *
 * check() runs one trace through core::Paragraph (solo, streamed, fused via
 * core::analyzeManyGuarded) and core::CriticalPathAnalyzer under a fixed
 * config matrix and reports every violated property with a diagnostic.
 */

#ifndef PARAGRAPH_FUZZ_INVARIANT_ORACLE_HPP
#define PARAGRAPH_FUZZ_INVARIANT_ORACLE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "trace/buffer.hpp"

namespace paragraph {
namespace fuzz {

struct OracleOptions
{
    /** Window pair for the monotonicity / firewall-bound checks. */
    uint64_t windowSmall = 16;
    uint64_t windowLarge = 64;

    /** Total-FU limit for the resource-monotonicity check. */
    uint32_t fuLimit = 2;

    /** Run the `.ptrc`/`.ptrz` round-trip property (touches the
     *  filesystem; the harness samples it rather than paying file I/O
     *  every iteration). */
    bool checkRoundTrip = false;

    /** Directory for round-trip scratch files; empty = system temp dir. */
    std::string tempDir;

    /**
     * Self-test hook: report one guaranteed "self-test" violation. Lets the
     * harness tests (and users) exercise the repro-dump / replay / minimize
     * machinery without needing a real engine bug.
     */
    bool forceFailure = false;
};

/** One catalogue entry: stable name + the paper fact it derives from. */
struct PropertyInfo
{
    const char *name;
    const char *derivation;
};

/** The full property catalogue (order is the checking order). */
const std::vector<PropertyInfo> &propertyCatalogue();

/** One violated property. */
struct Violation
{
    std::string property; ///< catalogue name
    std::string message;  ///< what diverged, with values
};

struct OracleReport
{
    std::vector<Violation> violations;
    size_t propertiesChecked = 0;

    bool ok() const { return violations.empty(); }

    /** "prop: message; prop: message" (diagnostics, repro JSON). */
    std::string summary() const;
};

class InvariantOracle
{
  public:
    explicit InvariantOracle(OracleOptions opt = {});

    const OracleOptions &options() const { return opt_; }

    /** Check every catalogue property against @p trace. */
    OracleReport check(const trace::TraceBuffer &trace) const;

  private:
    OracleOptions opt_;
};

namespace detail {

/** Exact comparison of every deterministic AnalysisResult field
 *  (analysisSeconds and liveWellPeakBytes excluded). On mismatch @p diff
 *  names the first diverging field with both values. */
bool resultsEqual(const core::AnalysisResult &a,
                  const core::AnalysisResult &b, std::string *diff);

} // namespace detail

} // namespace fuzz
} // namespace paragraph

#endif // PARAGRAPH_FUZZ_INVARIANT_ORACLE_HPP
