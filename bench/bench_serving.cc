/**
 * @file
 * Serving-simulator overhead vs the bare batch cost model.
 *
 * A serving run pays for two things: the (stream, batch size) cost
 * table -- one event-backend execution per distinct batch size, the
 * same work the timeline driver does -- and the virtual-time event
 * loop that replays thousands of arrivals through the batching
 * scheduler. This bench pins the loop's price relative to the table:
 * each subject is timed through the cost table alone (isa "scalar")
 * and through the full simulate() (isa "serving"), interleaved at
 * repetition granularity so host drift cancels in the ratio the gate
 * compares. Both arms start from a cold batch-cost cache, so each
 * repetition recomputes the same event executions. The committed baseline
 * (bench/baselines/BENCH_serving.json) pins the relative cost;
 * bench_compare --relative-to-scalar fails a confirmed >15%
 * regression of it.
 *
 *   bench_serving --json BENCH_serving.json
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/cache.hh"
#include "common/env.hh"
#include "nn/model_zoo.hh"
#include "serving/cost_model.hh"
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
    serving::ServingSpec spec;
};

std::vector<Subject>
subjects()
{
    // One table-dominated shape (a big network, few requests) and one
    // loop-dominated shape (a tiny network under a deep-overload
    // burst, thousands of queue/dispatch events per table entry).
    std::vector<Subject> out;
    {
        Subject s;
        s.name = "serving_vgg16_poisson";
        s.spec.streams = {serving::StreamSpec{"vgg16", 1.0, 0}};
        s.spec.arrivals.kind = serving::ArrivalKind::Poisson;
        s.spec.arrivals.ratePerS = 200.0;
        s.spec.arrivals.seed = 7;
        s.spec.durationS = 0.5;
        s.spec.replicas = 2;
        s.spec.batch.maxBatch = 4;
        s.spec.batch.timeoutS = 2e-3;
        out.push_back(std::move(s));
    }
    {
        Subject s;
        s.name = "serving_lenet5_bursty";
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
timeOnce(const Subject &subject, bool fullServing)
{
    clearAllCaches();
    const Clock::time_point t0 = Clock::now();
    if (fullServing) {
        const serving::ServingReport rep =
            serving::simulate(subject.spec);
        inca_assert(rep.completed == rep.offered,
                    "simulation dropped requests");
    } else {
        // The same cost table simulate() precomputes, nothing else.
        const serving::BatchCostModel model(subject.spec.inca,
                                            subject.spec.shard);
        const nn::NetworkDesc net =
            nn::byName(subject.spec.streams[0].network);
        double latency = 0.0;
        for (int b = 1; b <= subject.spec.batch.maxBatch; ++b)
            latency += model.cost(net, b).latencyS;
        inca_assert(latency > 0.0, "cost model produced nothing");
    }
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
        .count();
}

void
runServingBench()
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
                    "serving_cost_vs_model", subject.name,
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
    std::printf("=== serving-simulator overhead (warmup %d, reps %d, "
                "trim %d, cold cache) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runServingBench();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
