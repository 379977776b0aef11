/**
 * @file
 * Serving-report emitters: human-readable text, strict JSON with the
 * standard run-provenance manifest, RFC-4180 CSVs, and the
 * metrics/trace bridges.
 *
 * Every emitter is a pure function of the report, and the report is a
 * pure function of the spec, so all of them inherit the simulator's
 * bit-identity contract: the text/JSON/CSV bytes match at any thread
 * count, cold or warm. Numbers that feed machines are %.17g
 * (exact double round-trip); the text report uses fixed human
 * precision, which is equally deterministic.
 */

#ifndef INCA_SERVING_EXPORT_HH
#define INCA_SERVING_EXPORT_HH

#include <ostream>
#include <string>

#include "serving/simulator.hh"

namespace inca {
namespace serving {

/** Human-readable report (the serve driver's stdout). */
std::string reportText(const ServingReport &rep);

/** Strict JSON report with the provenance manifest. */
std::string reportJson(const ServingReport &rep);

/**
 * Per-request table: one RFC-4180 row per offered request, written
 * row by row to @p os so a file export never holds the whole table.
 */
void requestsCsv(std::ostream &os, const ServingReport &rep);

/** requestsCsv into a string (small reports and tests). */
std::string requestsCsv(const ServingReport &rep);

/**
 * Queue-depth timeline CSV, streamed: writes the header to @p os now
 * and returns the observer that appends one row per depth change.
 * Pass it to simulate(); @p os must outlive the run.
 */
DepthObserver timelineCsv(std::ostream &os);

/**
 * Publish the report to the metrics registry (serving.* gauges) and
 * feed every request latency into the serving.latency_us histogram,
 * so sim::printPhaseTimes renders the same exact percentiles the
 * report prints.
 */
void publishMetrics(const ServingReport &rep);

/**
 * Depth observer that replays the queue-depth timeline as the
 * serving.queue_depth trace counter at simulated time (INCA_TRACE
 * consumers). No-op when tracing is off.
 */
void traceDepth(Seconds t, std::uint64_t depth);

/** Mark the run's makespan on the trace. No-op when tracing is off. */
void emitTrace(const ServingReport &rep);

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_EXPORT_HH
