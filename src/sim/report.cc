#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/cache.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"

namespace inca {
namespace sim {

namespace {

/** Process-wide registry ScopedPhaseTimer records into. */
std::mutex gPhaseMutex;
std::vector<PhaseTime> gPhases;

/** Timers currently in scope; guards their flushed_ flags too. */
std::mutex gLiveMutex;
std::vector<ScopedPhaseTimer *> gLiveTimers;
std::once_flag gFlushHook;

double
elapsedSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

ScopedPhaseTimer::ScopedPhaseTimer(std::string phase)
    : phase_(std::move(phase)),
      span_(trace::spanName("phase ", phase_)),
      start_(std::chrono::steady_clock::now())
{
    std::call_once(gFlushHook,
                   [] { trace::atFlush(flushLivePhaseTimers); });
    std::lock_guard<std::mutex> lock(gLiveMutex);
    gLiveTimers.push_back(this);
}

ScopedPhaseTimer::~ScopedPhaseTimer()
{
    const double seconds = elapsedSeconds(start_);
    bool flushed;
    {
        std::lock_guard<std::mutex> lock(gLiveMutex);
        gLiveTimers.erase(std::find(gLiveTimers.begin(),
                                    gLiveTimers.end(), this));
        flushed = flushed_;
    }
    if (flushed)
        return; // an early trace flush already recorded this phase
    std::lock_guard<std::mutex> lock(gPhaseMutex);
    gPhases.push_back({phase_, seconds});
}

void
flushLivePhaseTimers()
{
    std::lock_guard<std::mutex> liveLock(gLiveMutex);
    for (ScopedPhaseTimer *t : gLiveTimers) {
        if (t->flushed_)
            continue;
        t->flushed_ = true;
        const double seconds = elapsedSeconds(t->start_);
        {
            std::lock_guard<std::mutex> lock(gPhaseMutex);
            gPhases.push_back({t->phase_, seconds});
        }
        // The timer's own Span only emits at scope exit, which a
        // fatal() never reaches -- emit the elapsed part directly.
        const auto durUs = std::int64_t(1e6 * seconds);
        trace::emitComplete(trace::spanName("phase ", t->phase_),
                            trace::nowMicros() - durUs, durUs);
    }
}

std::vector<PhaseTime>
phaseTimes()
{
    std::lock_guard<std::mutex> lock(gPhaseMutex);
    return gPhases;
}

void
clearPhaseTimes()
{
    std::lock_guard<std::mutex> lock(gPhaseMutex);
    gPhases.clear();
}

void
printCacheStats(std::FILE *out)
{
    const auto stats = cacheStats();
    bool any = false;
    for (const auto &s : stats)
        any = any || s.hits + s.misses > 0;
    if (!any)
        return;
    std::fprintf(out, "\nevaluation caches:\n");
    std::uint64_t hits = 0, misses = 0;
    double missSeconds = 0.0;
    for (const auto &s : stats) {
        if (s.hits + s.misses == 0)
            continue;
        std::fprintf(out,
                     "  %-20s %9llu hits %9llu misses  %5.1f%% hit "
                     "rate  %7llu entries  %6llu evicted  %8.1f ms in "
                     "misses\n",
                     s.name.c_str(), (unsigned long long)s.hits,
                     (unsigned long long)s.misses, 100.0 * s.hitRate(),
                     (unsigned long long)s.entries,
                     (unsigned long long)s.evictions,
                     1e3 * s.missSeconds);
        hits += s.hits;
        misses += s.misses;
        missSeconds += s.missSeconds;
    }
    const double total = double(hits + misses);
    std::fprintf(out,
                 "  %-20s %9llu hits %9llu misses  %5.1f%% hit rate  "
                 "%.1f ms in misses\n",
                 "total", (unsigned long long)hits,
                 (unsigned long long)misses,
                 total == 0.0 ? 0.0 : 100.0 * double(hits) / total,
                 1e3 * missSeconds);
}

void
printPhaseTimes(std::FILE *out)
{
    const auto phases = phaseTimes();
    if (!phases.empty()) {
        std::fprintf(out, "\nwall-clock per phase (%d threads):\n",
                     ThreadPool::globalThreadCount());
        double total = 0.0;
        for (const auto &p : phases) {
            std::fprintf(out, "  %-40s %8.1f ms\n", p.phase.c_str(),
                         1e3 * p.seconds);
            total += p.seconds;
        }
        std::fprintf(out, "  %-40s %8.1f ms\n", "total", 1e3 * total);
    }
    printCacheStats(out);
    metrics::printText(out);
}

void
printPhaseTimes()
{
    printPhaseTimes(stdout);
}

Comparison
compare(const core::IncaEngine &incaEngine,
        const baseline::BaselineEngine &baseEngine,
        const nn::NetworkDesc &net, int batchSize, arch::Phase phase)
{
    Comparison c;
    c.network = net.name;
    const auto t0 = std::chrono::steady_clock::now();
    if (phase == arch::Phase::Inference)
        c.inca = incaEngine.inference(net, batchSize);
    else
        c.inca = incaEngine.training(net, batchSize);
    const auto t1 = std::chrono::steady_clock::now();
    if (phase == arch::Phase::Inference)
        c.baseline = baseEngine.inference(net, batchSize);
    else
        c.baseline = baseEngine.training(net, batchSize);
    c.incaSeconds = std::chrono::duration<double>(t1 - t0).count();
    c.baselineSeconds = elapsedSeconds(t1);
    return c;
}

std::vector<Comparison>
compareSuite(const core::IncaEngine &incaEngine,
             const baseline::BaselineEngine &baseEngine,
             const std::vector<nn::NetworkDesc> &nets, int batchSize,
             arch::Phase phase)
{
    // Networks are independent design points: fan them across the
    // pool, each writing its own pre-sized slot so the output order
    // (and every number in it) is identical at any thread count.
    std::vector<Comparison> out(nets.size());
    parallel_for(std::int64_t(nets.size()), 1,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         out[size_t(i)] =
                             compare(incaEngine, baseEngine,
                                     nets[size_t(i)], batchSize, phase);
                 });
    return out;
}

std::map<std::string, double>
energyBreakdown(const arch::RunCost &run)
{
    std::map<std::string, double> groups;
    groups["dram"] = run.sum("energy.dram");
    groups["buffer"] = run.sum("energy.buffer");
    groups["array"] = run.sum("energy.array");
    groups["adc"] = run.sum("energy.adc");
    groups["dac"] = run.sum("energy.dac");
    groups["digital"] = run.sum("energy.digital");
    groups["static"] = run.staticEnergy;
    return groups;
}

std::map<std::string, double>
energyBreakdownPct(const arch::RunCost &run)
{
    auto groups = energyBreakdown(run);
    double total = 0.0;
    for (const auto &[name, value] : groups)
        total += value;
    if (total > 0.0) {
        for (auto &[name, value] : groups)
            value = 100.0 * value / total;
    }
    return groups;
}

std::vector<std::pair<std::string, Joules>>
layerwiseMemoryEnergy(const arch::RunCost &run)
{
    std::vector<std::pair<std::string, Joules>> out;
    for (const auto &layer : run.layers) {
        if (layer.name.find(".bwd") != std::string::npos ||
            layer.name.find(".upd") != std::string::npos ||
            layer.name == "weight-reload") {
            continue;
        }
        switch (layer.kind) {
          case nn::LayerKind::Conv:
          case nn::LayerKind::Depthwise:
          case nn::LayerKind::Pointwise:
          case nn::LayerKind::FullyConnected:
            out.emplace_back(layer.name, layer.memoryEnergy());
            break;
          default:
            break;
        }
    }
    return out;
}

} // namespace sim
} // namespace inca
