/**
 * @file
 * End-to-end fault-campaign wall-clock, scalar vs the widest ISA.
 *
 * The kernel microbenches (bench_kernels) prove the primitives got
 * faster; this bench proves the speed survives composition -- a full
 * Monte-Carlo reliability campaign (sampling, mitigation, accuracy
 * proxy, cost model) measured under kernels::setActive(scalar) and
 * under the widest available set.
 *
 *   bench_campaign --json BENCH_campaign.json
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/env.hh"
#include "reliability/campaign.hh"
#include "tensor/kernels/kernels.hh"

namespace inca {
namespace {

constexpr int kWarmup = 1;
constexpr int kReps = 9;
constexpr int kTrim = 2;

using Clock = std::chrono::steady_clock;
const Clock::time_point gEpoch = Clock::now();

reliability::CampaignOptions
benchOptions()
{
    reliability::CampaignOptions opt;
    opt.network = "lenet5";
    opt.trials = 6;
    opt.bers = {1e-4, 1e-3};
    opt.lifetimes = {1e5};
    opt.fault.seed = 42;
    return opt;
}

double
runOnce()
{
    const Clock::time_point t0 = Clock::now();
    const auto result = reliability::runCampaign(benchOptions());
    inca_assert(!result.curves.empty(), "campaign produced nothing");
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
        .count();
}

void
runCampaignBench()
{
    std::vector<kernels::Isa> isas = {kernels::Isa::Scalar};
    const auto avail = kernels::availableIsas();
    if (avail.back() != kernels::Isa::Scalar)
        isas.push_back(avail.back());

    // ISAs interleave at repetition granularity (scalar rep i, then
    // vector rep i): host throughput drift lands in both sample sets
    // equally, so the speedup ratio the gate compares is drift-free.
    std::map<kernels::Isa, bench::BenchRun> runs;
    for (kernels::Isa isa : isas) {
        bench::BenchRun &run = runs[isa];
        run.name = "fault_campaign_lenet5";
        run.isa = kernels::isaName(isa);
        run.warmup = kWarmup;
        run.trim = kTrim;
    }
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
        for (kernels::Isa isa : isas) {
            kernels::setActive(isa);
            const double ns = runOnce();
            if (rep < kWarmup)
                continue;
            runs[isa].samplesNs.push_back(ns);
            runs[isa].timestampsUs.push_back(
                std::chrono::duration_cast<
                    std::chrono::microseconds>(Clock::now() - gEpoch)
                    .count());
        }
    }
    double scalarNs = 0.0;
    for (kernels::Isa isa : isas) {
        bench::BenchRun &run = runs[isa];
        const double mean = bench::trimmedMean(run.samplesNs, kTrim);
        std::printf("  %-28s %-7s %12.3f ms\n", run.name.c_str(),
                    run.isa.c_str(), mean / 1e6);
        if (isa == kernels::Isa::Scalar)
            scalarNs = mean;
        else
            bench::JsonReport::instance().addPoint(
                "campaign_speedup_vs_scalar", run.isa,
                scalarNs / mean);
        bench::JsonReport::instance().addBenchmark(std::move(run));
    }
    kernels::resetActive();
}

} // namespace
} // namespace inca

int
main(int argc, char **argv)
{
    inca::checkEnvironment();
    const std::string jsonPath =
        inca::bench::extractJsonPath(argc, argv);
    std::printf("=== fault-campaign wall-clock (warmup %d, reps %d, "
                "trim %d) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runCampaignBench();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
