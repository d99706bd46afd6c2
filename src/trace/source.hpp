/**
 * @file
 * TraceSource: the pull interface Paragraph consumes traces through.
 *
 * Traces in the paper are up to 100M instructions; storing them is optional.
 * A TraceSource streams records one at a time and can be reset so parameter
 * sweeps (e.g. Figure 8's window-size study, one full re-analysis per point)
 * can replay the identical trace.
 */

#ifndef PARAGRAPH_TRACE_SOURCE_HPP
#define PARAGRAPH_TRACE_SOURCE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "trace/record.hpp"

namespace paragraph {
namespace trace {

class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     * @return false at end of trace (@p rec is then unspecified).
     */
    virtual bool next(TraceRecord &rec) = 0;

    /**
     * Produce up to @p max records into @p out.
     *
     * The default forwards to next(); in-memory sources override this with
     * a bulk copy so consumers pay one virtual call per block instead of
     * one per record.
     *
     * @return number of records produced; 0 only at end of trace.
     */
    virtual size_t
    nextBatch(TraceRecord *out, size_t max)
    {
        size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /** Restart the trace from the beginning (must be deterministic). */
    virtual void reset() = 0;

    /** Identifying name for reports. */
    virtual std::string name() const { return "trace"; }
};

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_SOURCE_HPP
