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

#include <string>

#include "serving/simulator.hh"

namespace inca {
namespace serving {

/** Human-readable report (the serve driver's stdout). */
std::string reportText(const ServingReport &rep);

/** Strict JSON report with the provenance manifest. */
std::string reportJson(const ServingReport &rep);

/** Per-request table: one RFC-4180 row per completed request. */
std::string requestsCsv(const ServingReport &rep);

/** Queue-depth timeline: one row per depth change. */
std::string timelineCsv(const ServingReport &rep);

/**
 * Publish the report to the metrics registry (serving.* gauges) and
 * feed every request latency into the serving.latency_us histogram,
 * so sim::printPhaseTimes renders the same exact percentiles the
 * report prints.
 */
void publishMetrics(const ServingReport &rep);

/**
 * Replay the queue-depth timeline as a trace counter series at
 * simulated time (INCA_TRACE consumers). No-op when tracing is off.
 */
void emitTrace(const ServingReport &rep);

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_EXPORT_HH
