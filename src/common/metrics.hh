/**
 * @file
 * Process-wide metrics registry: monotonic counters, gauges, and
 * fixed-bucket histograms.
 *
 * Every subsystem that wants an always-on number registers it here by
 * name ("cache.serving.batch.hit", "pool.task_wait_us",
 * "engine.layer_eval_us") and keeps the returned reference; updates
 * are single relaxed atomics, cheap enough to leave enabled in every
 * build. Two renderers consume the registry: sim::printPhaseTimes
 * appends a human-readable section to its report, and toJson()
 * serializes everything for machines. With INCA_METRICS=<path> set,
 * an atexit handler writes toJson() to the path -- no driver changes
 * needed, and nothing is printed to stdout/stderr, so driver stdout
 * stays byte-identical whether or not metrics are exported.
 *
 * Registered metrics live forever (the registry is leaked on
 * purpose); a name permanently denotes one metric of one kind, and
 * re-requesting it returns the same object. reset()/resetAll() zero
 * values without unregistering (test isolation).
 */

#ifndef INCA_COMMON_METRICS_HH
#define INCA_COMMON_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace inca {
namespace metrics {

/** Monotonically increasing event count. */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written (or accumulated) level of some quantity. */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double v)
    {
        value_.fetch_add(v, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram: bucket i counts observations <= bounds[i],
 * with one extra overflow bucket; sum and count track the exact
 * totals. Bounds are fixed at registration, so observe() is a scan
 * plus one relaxed increment -- safe from any pool thread.
 *
 * Alongside the buckets, the first kRetainCap raw observations are
 * retained verbatim, so percentile() answers with an exact
 * nearest-rank value instead of a bucket bound. Slot writes are
 * relaxed atomics: always race-free, and exact whenever the reader is
 * ordered after the writers (the end-of-run renderers run after the
 * pool joins, which is the only place percentiles are read).
 */
class Histogram
{
  public:
    /** Raw observations kept for exact percentiles (32 KiB/metric). */
    static constexpr std::size_t kRetainCap = 4096;

    Histogram(std::string name, std::vector<double> bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** sum / count; 0 when empty. */
    double mean() const
    {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / double(n);
    }

    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts; size bounds().size() + 1 (overflow last). */
    std::vector<std::uint64_t> bucketCounts() const;

    /**
     * Exact nearest-rank percentile of the retained samples for
     * @p q in (0, 100]; 0 when empty. Sorted on demand -- a
     * render-time call, not a hot-path one. Past kRetainCap
     * observations the summary covers the first kRetainCap (see
     * retainedSaturated()); the first such query warn()s once and
     * the JSON export flags the histogram "saturated".
     */
    double percentile(double q) const;

    /** Retained raw observations, in observation order. */
    std::vector<double> retained() const;

    /** True when observations beyond kRetainCap were dropped. */
    bool retainedSaturated() const
    {
        return count() > kRetainCap;
    }

    void reset();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::vector<std::atomic<double>> samples_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
    /** One-time saturation warn() latch (mutable: query-time state). */
    mutable std::atomic<bool> saturationWarned_{false};
};

/**
 * RAII latency probe: observes its own lifetime, in microseconds,
 * into a histogram at scope exit. The idiom for the *_us metrics:
 *   metrics::ScopedTimer t(layerEvalHistogram());
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &h)
        : h_(h), start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        h_.observe(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram &h_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * The registered metric named @p name, created on first request.
 * Requesting an existing name as a different kind is a simulator bug
 * (panics).
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);

/**
 * Histogram with the default microsecond buckets (1 us to ~34 s,
 * powers of two) -- the right shape for the *_us latency metrics.
 */
Histogram &histogram(const std::string &name);

/** Histogram with explicit bucket bounds (first request wins). */
Histogram &histogram(const std::string &name,
                     std::vector<double> bounds);

/**
 * Serialize every registered metric:
 * {"counters": {...}, "gauges": {...},
 *  "histograms": {name: {count, sum, buckets: [{le, count}...]}}}.
 */
std::string toJson();

/**
 * Human-readable dump of every metric with data, except the cache.*
 * family (printCacheStats already renders those). Used by
 * sim::printPhaseTimes.
 */
void printText(std::FILE *out);

/** Zero every registered metric (test isolation). */
void resetAll();

} // namespace metrics
} // namespace inca

#endif // INCA_COMMON_METRICS_HH
