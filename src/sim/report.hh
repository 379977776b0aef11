/**
 * @file
 * End-to-end comparison and reporting helpers.
 *
 * The bench binaries regenerate the paper's tables and figures; the
 * helpers here run both engines on a suite of networks, compute the
 * gain metrics the paper plots (energy efficiency, speedup), and
 * group raw stats into the component classes the breakdown figures
 * use (DRAM / buffer / array / ADC / digital / static).
 */

#ifndef INCA_SIM_REPORT_HH
#define INCA_SIM_REPORT_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/cost.hh"
#include "baseline/engine.hh"
#include "common/trace.hh"
#include "inca/engine.hh"
#include "nn/network.hh"

namespace inca {
namespace sim {

/** Wall-clock seconds one named phase of a driver run took. */
struct PhaseTime
{
    std::string phase;
    double seconds = 0.0;
};

/**
 * RAII wall-clock timer: measures from construction to destruction
 * and records the result in the process-wide phase registry. Drivers
 * wrap each sweep in one of these so the thread-pool speedup is
 * visible in output. Thread-safe; phases appear in completion order.
 *
 * Built on top of a trace::Span: with INCA_TRACE set, every phase
 * also appears as a "phase <name>" span on the trace timeline.
 */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(std::string phase);
    ~ScopedPhaseTimer();

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    friend void flushLivePhaseTimers();

    std::string phase_;
    trace::Span span_;
    std::chrono::steady_clock::time_point start_;
    bool flushed_ = false; ///< already recorded by an early flush
};

/**
 * Record every still-open ScopedPhaseTimer into the phase registry
 * (and the trace, as a "phase <name>" span covering the elapsed part
 * of the scope) as of now. Registered with trace::atFlush() so a
 * driver that dies mid-phase via fatal() still reports the phases it
 * was in: fatal -> exit(1) -> INCA_TRACE atexit flush -> stop() ->
 * this. Idempotent per timer -- a timer flushed here records nothing
 * further when its scope later closes normally. Exposed for tests.
 */
void flushLivePhaseTimers();

/** Snapshot of all phases recorded so far. */
std::vector<PhaseTime> phaseTimes();

/** Drop all recorded phases (test isolation). */
void clearPhaseTimes();

/**
 * Print the recorded phases, the pool size, the evaluation-cache
 * statistics (hit rates, entries, measured time spent in misses), and
 * the process metrics registry (metrics::printText) to @p out. Drivers
 * that must keep stdout byte-identical across thread counts pass
 * stderr.
 */
void printPhaseTimes(std::FILE *out);

/** printPhaseTimes(stdout). */
void printPhaseTimes();

/** Print only the evaluation-cache statistics to @p out. */
void printCacheStats(std::FILE *out);

/** One network's INCA-vs-baseline result. */
struct Comparison
{
    std::string network;
    arch::RunCost inca;
    arch::RunCost baseline;
    /** Wall-clock seconds spent simulating each engine. */
    double incaSeconds = 0.0;
    double baselineSeconds = 0.0;

    /** Paper Fig. 11 metric: baseline energy / INCA energy. */
    double
    energyEfficiencyGain() const
    {
        return inca.energy() == 0.0
                   ? 0.0
                   : baseline.energy() / inca.energy();
    }

    /** Paper Fig. 14 metric: baseline latency / INCA latency. */
    double
    speedup() const
    {
        return inca.latency == 0.0 ? 0.0
                                   : baseline.latency / inca.latency;
    }
};

/** Run both engines on @p net for one phase. */
Comparison compare(const core::IncaEngine &incaEngine,
                   const baseline::BaselineEngine &baseEngine,
                   const nn::NetworkDesc &net, int batchSize,
                   arch::Phase phase);

/** Run a whole suite. */
std::vector<Comparison> compareSuite(
    const core::IncaEngine &incaEngine,
    const baseline::BaselineEngine &baseEngine,
    const std::vector<nn::NetworkDesc> &nets, int batchSize,
    arch::Phase phase);

/**
 * Group a run's energy into breakdown classes: "dram", "buffer",
 * "array", "adc", "dac", "digital", "static". Values in joules.
 */
std::map<std::string, double> energyBreakdown(const arch::RunCost &run);

/** Percentage view of energyBreakdown() (sums to 100). */
std::map<std::string, double> energyBreakdownPct(
    const arch::RunCost &run);

/** Per-layer DRAM + buffer energy of forward conv-like layers. */
std::vector<std::pair<std::string, Joules>> layerwiseMemoryEnergy(
    const arch::RunCost &run);

} // namespace sim
} // namespace inca

#endif // INCA_SIM_REPORT_HH
