/**
 * @file
 * Bottleneck-analysis overhead vs the bare event schedule.
 *
 * The analysis layer re-walks the schedule the event backend already
 * produced: critical-path extraction, exact share accumulation,
 * occupancy sweeps, and slack. This bench pins that price relative to
 * the schedule itself: each subject program is lowered once and then
 * timed through event::execute alone (isa "scalar") and
 * event::execute + event::analyze with the what-if sweep disabled
 * (isa "analysis"), interleaved at repetition granularity so host
 * drift cancels in the ratio the gate compares. The committed
 * baseline (bench/baselines/BENCH_analysis.json) pins the relative
 * cost; bench_compare --relative-to-scalar fails a confirmed >15%
 * regression of it.
 *
 *   bench_analysis --json BENCH_analysis.json
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "bench_json.hh"
#include "common/env.hh"
#include "event/analysis.hh"
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
    // The same two stream shapes the event bench pins: a deep serial
    // inference chain and a training stream with triple the
    // instruction count (and so triple the path/occupancy work).
    std::vector<Subject> out;
    out.push_back({"analysis_vgg16_inference",
                   ir::lowerInca(arch::paperInca(), nn::vgg16(),
                                 arch::Phase::Inference, 64)});
    out.push_back({"analysis_resnet18_training",
                   ir::lowerInca(arch::paperInca(), nn::resnet18(),
                                 arch::Phase::Training, 64)});
    return out;
}

double
timeOnce(const ir::Program &p, bool withAnalysis)
{
    const Clock::time_point t0 = Clock::now();
    const event::TimedRun timed = event::execute(p);
    inca_assert(timed.makespan > 0.0, "backend produced nothing");
    if (withAnalysis) {
        event::AnalyzeOptions opts;
        opts.runWhatIf = false;
        const event::Report r = event::analyze(p, timed, opts);
        inca_assert(!r.path.empty(), "analysis produced nothing");
    }
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
        .count();
}

void
runAnalysisBench()
{
    for (const Subject &subject : subjects()) {
        std::map<std::string, bench::BenchRun> runs;
        for (const char *isa : {"scalar", "analysis"}) {
            bench::BenchRun &run = runs[isa];
            run.name = subject.name;
            run.isa = isa;
            run.warmup = kWarmup;
            run.trim = kTrim;
        }
        for (int rep = 0; rep < kWarmup + kReps; ++rep) {
            for (const char *isa : {"scalar", "analysis"}) {
                const double ns =
                    timeOnce(subject.program,
                             std::string(isa) == "analysis");
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
        for (const char *isa : {"scalar", "analysis"}) {
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
                    "analysis_cost_vs_schedule", subject.name,
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
    std::printf("=== bottleneck-analysis overhead (warmup %d, "
                "reps %d, trim %d) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runAnalysisBench();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
