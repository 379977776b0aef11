/**
 * @file
 * Measurement helpers shared by the benchmark's workloads: host-time
 * spans recorded from outside the library, process memory readings,
 * output digests, and the ordered metric list every run prints.
 *
 * Spans are timed with std::chrono::steady_clock at nanosecond
 * resolution and, when tracing is on, mirrored into the library's
 * Chrome trace via trace::emitComplete, so the per-layer numbers and
 * the trace file describe the same intervals.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "nn/network.hh"

namespace perfbench {

/** Host seconds on the steady clock (arbitrary epoch). */
double nowS();

/** Record one complete trace span (no-op when tracing is off). */
void emitSpan(const char *name, double startS, double durS);

/**
 * Run @p fn, return its host seconds, and record a trace span named
 * @p name over the same interval when tracing is on.
 */
template <typename Fn>
double
timed(const char *name, Fn &&fn)
{
    const double start = nowS();
    fn();
    const double dur = nowS() - start;
    emitSpan(name, start, dur);
    return dur;
}

/** VmHWM (peak resident set) of this process, in KiB. */
std::uint64_t peakRssKb();

/** VmRSS (current resident set) of this process, in KiB. */
std::uint64_t currentRssKb();

/** FNV-1a 64 of @p bytes as 16 lower-case hex digits. */
std::string digestHex(const std::string &bytes);

/** Median of @p v (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> v);

/**
 * Single-thread GEMM throughput under the forced scalar kernel set, in
 * GFLOP/s (2 flops per multiply-add): the host calibration number the
 * conv throughput is read against. Restores kernel auto-selection.
 */
double scalarGemmGflops();

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Ordered metric list. declare() fixes a name and unit with value 0;
 * set() overwrites a declared metric (panics on an undeclared name, so
 * a typo cannot add a metric the benchmark spec does not list).
 */
class MetricList
{
  public:
    void declare(const std::string &name, const std::string &unit);
    void set(const std::string &name, double value);
    void add(const std::string &name, double value);
    double get(const std::string &name) const;
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::size_t index(const std::string &name) const;
    std::vector<Metric> metrics_;
};

/** Declare every per-layer metric the traced run reports. */
void declarePerLayer(MetricList &m);

/**
 * Copy the registry's cache.<name>.{hit,miss,miss_us} and
 * pool.{tasks,task_wait_us} readings into the per-layer metrics.
 */
void readRegistry(MetricList &m);

/** One distinct design point of the ir/event per-layer pass. */
struct IrCandidate
{
    inca::arch::IncaConfig cfg;
    const inca::nn::NetworkDesc *net = nullptr;
    int batch = 1;
};

/**
 * Time ir::lowerInca (inference, overlap on -- the lowering the
 * serving cost model and the DSE latency_timed objective use),
 * ir::analyticWalk, event::execute and event::analyze over @p cands,
 * accumulating the ir.* and event.* per-layer metrics. Returns each
 * candidate's event makespan, for cross-checks against the library's
 * own use of the same calls.
 */
std::vector<double> timeIrEvent(const std::vector<IrCandidate> &cands,
                                MetricList &m);

/** Outcome of one operation's output checks. */
struct Checks
{
    std::string digest;                ///< canonical simulated output
    std::vector<std::string> failures; ///< violated invariants

    /** Record @p what once when @p ok is false. */
    void expect(bool ok, const std::string &what)
    {
        if (!ok && std::find(failures.begin(), failures.end(), what) ==
                       failures.end())
            failures.push_back(what);
    }
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
