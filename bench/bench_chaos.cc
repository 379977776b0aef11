/**
 * @file
 * Chaos-layer overhead in the serving simulator.
 *
 * The failure machinery (per-server failure streams, health walks,
 * deadline/retry events, bounded admission) rides the same event
 * loop as the plain simulator; its cost must stay a modest multiple
 * of the chaos-off run over the identical arrival trace. Each
 * subject is timed chaos-off (isa "scalar") and with the full chaos
 * stack -- failures, retries, deadline, queue cap -- enabled (isa
 * "serving"), interleaved at repetition granularity so host drift
 * cancels in the ratio the gate compares. Both arms start from a cold
 * batch-cost cache.
 * The committed baseline (bench/baselines/BENCH_chaos.json) pins the
 * relative cost; bench_compare --relative-to-scalar fails a
 * confirmed >15% regression of it.
 *
 *   bench_chaos --json BENCH_chaos.json
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/cache.hh"
#include "common/env.hh"
#include "serving/simulator.hh"

namespace inca {
namespace {

constexpr int kWarmup = 1;
constexpr int kReps = 9;
constexpr int kTrim = 2;

using Clock = std::chrono::steady_clock;
const Clock::time_point gEpoch = Clock::now();

struct Subject
{
    std::string name;
    serving::ServingSpec spec; ///< chaos-off arm; chaos added per run
};

/** The chaos-on variant of @p spec: the full feature stack. */
serving::ServingSpec
withChaos(serving::ServingSpec spec)
{
    spec.failures.enabled = true;
    spec.failures.mtbfS = 0.05;
    spec.failures.mttrS = 0.01;
    spec.failures.degradedFraction = 0.3;
    spec.failures.seed = 5;
    spec.retry.budget = 2;
    spec.retry.backoffBaseS = 1e-3;
    spec.deadlineS = 20e-3;
    spec.queueCap = 64;
    return spec;
}

std::vector<Subject>
subjects()
{
    // A lightly loaded shape (failure events dominate the extra
    // work) and a deep-overload burst (admission control and
    // deadline reaping on thousands of queued requests).
    std::vector<Subject> out;
    {
        Subject s;
        s.name = "chaos_lenet5_poisson";
        s.spec.streams = {serving::StreamSpec{"lenet5", 1.0, 0}};
        s.spec.arrivals.kind = serving::ArrivalKind::Poisson;
        s.spec.arrivals.ratePerS = 3000.0;
        s.spec.arrivals.seed = 7;
        s.spec.durationS = 0.5;
        s.spec.replicas = 2;
        s.spec.batch.maxBatch = 4;
        s.spec.batch.timeoutS = 1e-3;
        out.push_back(std::move(s));
    }
    {
        Subject s;
        s.name = "chaos_lenet5_bursty";
        s.spec.streams = {serving::StreamSpec{"lenet5", 1.0, 0}};
        s.spec.arrivals.kind = serving::ArrivalKind::Bursty;
        s.spec.arrivals.ratePerS = 20000.0;
        s.spec.arrivals.seed = 7;
        s.spec.durationS = 0.5;
        s.spec.replicas = 2;
        s.spec.batch.maxBatch = 8;
        s.spec.batch.timeoutS = 1e-3;
        out.push_back(std::move(s));
    }
    return out;
}

double
timeOnce(const Subject &subject, bool chaos)
{
    const serving::ServingSpec spec =
        chaos ? withChaos(subject.spec) : subject.spec;
    clearAllCaches();
    const Clock::time_point t0 = Clock::now();
    const serving::ServingReport rep = serving::simulate(spec);
    inca_assert(rep.offered > 0, "simulation saw no arrivals");
    inca_assert(rep.completed + rep.shed + rep.timedOut +
                        rep.failed ==
                    rep.offered,
                "outcomes do not partition the offered requests");
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
        .count();
}

void
runChaosBench()
{
    for (const Subject &subject : subjects()) {
        std::map<std::string, bench::BenchRun> runs;
        for (const char *isa : {"scalar", "serving"}) {
            bench::BenchRun &run = runs[isa];
            run.name = subject.name;
            run.isa = isa;
            run.warmup = kWarmup;
            run.trim = kTrim;
        }
        for (int rep = 0; rep < kWarmup + kReps; ++rep) {
            for (const char *isa : {"scalar", "serving"}) {
                const double ns =
                    timeOnce(subject,
                             std::string(isa) == "serving");
                if (rep < kWarmup)
                    continue;
                runs[isa].samplesNs.push_back(ns);
                runs[isa].timestampsUs.push_back(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(Clock::now() -
                                                   gEpoch)
                        .count());
            }
        }
        double scalarNs = 0.0;
        for (const char *isa : {"scalar", "serving"}) {
            bench::BenchRun &run = runs[isa];
            const double mean =
                bench::trimmedMean(run.samplesNs, kTrim);
            std::printf("  %-28s %-8s %12.3f us\n",
                        run.name.c_str(), run.isa.c_str(),
                        mean / 1e3);
            if (std::string(isa) == "scalar")
                scalarNs = mean;
            else
                bench::JsonReport::instance().addPoint(
                    "chaos_cost_vs_plain", subject.name,
                    scalarNs / mean);
            bench::JsonReport::instance().addBenchmark(
                std::move(run));
        }
    }
}

} // namespace
} // namespace inca

int
main(int argc, char **argv)
{
    inca::checkEnvironment();
    const std::string jsonPath =
        inca::bench::extractJsonPath(argc, argv);
    std::printf("=== chaos-layer overhead (warmup %d, reps %d, "
                "trim %d, cold cache) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runChaosBench();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
