/**
 * @file
 * The serving scenario matrix tests/goldens_serving.inc pins, and the
 * digests it pins for each case: 64-bit FNV-1a (tests/ir_digest.hh)
 * over the JSON report with its provenance block stripped, the
 * per-request CSV and the queue-depth timeline CSV. Shared by the
 * generator (tests/golden_gen.cc --serving) and the check
 * (tests/test_serving.cc) so both build the same specs and hash the
 * same bytes.
 *
 * The matrix crosses arrival kind {poisson, bursty, diurnal} x chaos
 * {off, deadline, retry + queue cap, fail-stop + degraded failures
 * re-enqueuing or dropping in-flight work, hedging, everything} x
 * streams {one, two with different priorities} x batch limits
 * {cap 4 with a timeout, timeout 0 (an arrival and its timeout tick
 * share a timestamp), cap 1}.
 */

#ifndef INCA_TESTS_SERVING_DIGEST_HH
#define INCA_TESTS_SERVING_DIGEST_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ir_digest.hh"
#include "serving/export.hh"
#include "serving/simulator.hh"

namespace inca {

/** One named scenario of the serving digest matrix. */
struct ServingDigestCase
{
    std::string name; ///< "<arrivals>.<chaos>.<streams>.<batch>"
    serving::ServingSpec spec;
};

/** Every case of the matrix, in the digest table's order. */
inline std::vector<ServingDigestCase>
servingDigestCases()
{
    using namespace serving;
    std::vector<ServingDigestCase> out;
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal})
        for (const char *chaos :
             {"off", "deadline", "retry_cap", "failover", "fail_drop",
              "hedge", "all"})
            for (const int streams : {1, 2})
                for (const char *batch : {"cap4", "timeout0", "cap1"}) {
                    ServingSpec spec;
                    spec.arrivals.kind = kind;
                    spec.arrivals.ratePerS = 60e3;
                    spec.arrivals.seed = 7;
                    spec.arrivals.meanOnS = 5e-3;
                    spec.arrivals.meanOffS = 1e-2;
                    spec.arrivals.diurnalPeriodS = 1e-2;
                    spec.durationS = 0.03;
                    spec.replicas = 3;
                    spec.sloS = 1e-3;
                    spec.streams = {StreamSpec{"lenet5", 3.0, 0}};
                    if (streams == 2)
                        spec.streams.push_back(
                            StreamSpec{"vgg8", 1.0, 1});
                    spec.batch.maxBatch =
                        std::string(batch) == "cap1" ? 1 : 4;
                    spec.batch.timeoutS =
                        std::string(batch) == "timeout0" ? 0.0
                                                         : 2e-4;
                    const std::string c = chaos;
                    const bool all = c == "all";
                    if (c == "deadline" || all)
                        spec.deadlineS = 2e-3;
                    if (c == "retry_cap" || all) {
                        spec.retry.budget = 2;
                        spec.retry.backoffBaseS = 2e-4;
                        spec.queueCap = 8;
                    }
                    if (c == "failover" || c == "fail_drop" || all) {
                        spec.failures.enabled = true;
                        spec.failures.mtbfS = 5e-3;
                        spec.failures.mttrS = 2e-3;
                        spec.failures.degradedFraction = 0.3;
                        spec.failures.recoveryS = 5e-4;
                        spec.failures.seed = 3;
                        spec.failures.dropInFlight = c != "failover";
                    }
                    if (c == "hedge" || all)
                        spec.hedgeDelayS = 1e-4;
                    out.push_back(ServingDigestCase{
                        std::string(arrivalKindName(kind)) + "." + c +
                            "." + std::to_string(streams) + "s." +
                            batch,
                        spec});
                }
    return out;
}

/** The three pinned digests of one report. */
struct ServingDigests
{
    std::uint64_t json;     ///< reportJson without the provenance
    std::uint64_t requests; ///< requestsCsv
    std::uint64_t timeline; ///< timelineCsv, as streamed by the run
};

/** Simulate @p spec and digest its exports (see the file comment). */
inline ServingDigests
servingDigests(const serving::ServingSpec &spec)
{
    std::ostringstream timeline;
    const serving::ServingReport rep =
        serving::simulate(spec, serving::timelineCsv(timeline));
    // The provenance block records host state (threads, build,
    // environment), not simulated results.
    const std::string json = serving::reportJson(rep);
    return ServingDigests{
        fnv1a64(json.substr(0, json.find("\n  \"provenance\""))),
        fnv1a64(serving::requestsCsv(rep)), fnv1a64(timeline.str())};
}

} // namespace inca

#endif // INCA_TESTS_SERVING_DIGEST_HH
