/**
 * @file
 * Event-backend scheduling overhead vs the analytic walk.
 *
 * Both backends consume the same lowered ir::Program; the analytic
 * walk folds it span by span while the event backend runs a full
 * dependency-driven schedule. This bench pins the price of that
 * schedule: each subject program is lowered once (lowering is engine
 * arithmetic, not the subject) and then timed through ir::analyticWalk
 * (isa "scalar") and event::execute (isa "event"), interleaved at
 * repetition granularity so host drift cancels in the ratio the gate
 * compares. The committed baseline (bench/baselines/BENCH_event.json)
 * pins the relative cost; bench_compare --relative-to-scalar fails a
 * confirmed >15% regression of it.
 *
 *   bench_event --json BENCH_event.json
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "bench_json.hh"
#include "common/env.hh"
#include "event/event.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"

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
    ir::Program program;
};

std::vector<Subject>
subjects()
{
    // One deep inference stream (vgg16: long serial conv chain) and
    // one training stream (resnet18: backward + update groups triple
    // the instruction count) -- the two shapes the event queue sees.
    std::vector<Subject> out;
    out.push_back({"timeline_vgg16_inference",
                   ir::lowerInca(arch::paperInca(), nn::vgg16(),
                                 arch::Phase::Inference, 64)});
    out.push_back({"timeline_resnet18_training",
                   ir::lowerInca(arch::paperInca(), nn::resnet18(),
                                 arch::Phase::Training, 64)});
    return out;
}

double
timeOnce(const ir::Program &p, bool eventBackend)
{
    const Clock::time_point t0 = Clock::now();
    const arch::RunCost run = eventBackend
                                  ? event::execute(p).run
                                  : ir::analyticWalk(p);
    inca_assert(run.latency > 0.0, "backend produced nothing");
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
        .count();
}

void
runEventBench()
{
    for (const Subject &subject : subjects()) {
        std::map<std::string, bench::BenchRun> runs;
        for (const char *isa : {"scalar", "event"}) {
            bench::BenchRun &run = runs[isa];
            run.name = subject.name;
            run.isa = isa;
            run.warmup = kWarmup;
            run.trim = kTrim;
        }
        for (int rep = 0; rep < kWarmup + kReps; ++rep) {
            for (const char *isa : {"scalar", "event"}) {
                const double ns =
                    timeOnce(subject.program,
                             std::string(isa) == "event");
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
        for (const char *isa : {"scalar", "event"}) {
            bench::BenchRun &run = runs[isa];
            const double mean =
                bench::trimmedMean(run.samplesNs, kTrim);
            std::printf("  %-28s %-7s %12.3f us\n",
                        run.name.c_str(), run.isa.c_str(),
                        mean / 1e3);
            if (std::string(isa) == "scalar")
                scalarNs = mean;
            else
                bench::JsonReport::instance().addPoint(
                    "event_speed_vs_analytic", subject.name,
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
    std::printf("=== event-backend scheduling overhead (warmup %d, "
                "reps %d, trim %d) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runEventBench();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
