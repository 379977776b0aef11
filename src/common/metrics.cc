#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "common/logging.hh"

namespace inca {
namespace metrics {

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      samples_(kRetainCap)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        inca_assert(bounds_[i - 1] < bounds_[i],
                    "histogram '%s' bounds must increase",
                    name_.c_str());
}

void
Histogram::observe(double v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    // count_ doubles as the retained-slot allocator: the first
    // kRetainCap observations keep their raw value for percentile().
    const std::uint64_t slot =
        count_.fetch_add(1, std::memory_order_relaxed);
    if (slot < kRetainCap)
        samples_[std::size_t(slot)].store(v,
                                          std::memory_order_relaxed);
}

std::vector<double>
Histogram::retained() const
{
    const std::uint64_t n =
        std::min<std::uint64_t>(count(), kRetainCap);
    std::vector<double> out(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = samples_[i].load(std::memory_order_relaxed);
    return out;
}

double
Histogram::percentile(double q) const
{
    inca_assert(q > 0.0 && q <= 100.0,
                "percentile %f outside (0, 100]", q);
    // Past the retain cap, "exact" percentiles silently cover only
    // the first kRetainCap observations; say so once per histogram
    // instead of degrading quietly.
    if (retainedSaturated() &&
        !saturationWarned_.exchange(true, std::memory_order_relaxed))
        warn("histogram '%s': %llu observations exceed the %zu "
             "retained samples; percentiles cover the first %zu "
             "only (exports carry \"saturated\": true)",
             name_.c_str(),
             static_cast<unsigned long long>(count()), kRetainCap,
             kRetainCap);
    std::vector<double> s = retained();
    if (s.empty())
        return 0.0;
    std::sort(s.begin(), s.end());
    // Nearest-rank: the smallest value with at least q% of the
    // samples at or below it.
    std::size_t rank =
        std::size_t(std::ceil(q / 100.0 * double(s.size())));
    if (rank < 1)
        rank = 1;
    if (rank > s.size())
        rank = s.size();
    return s[rank - 1];
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    for (auto &s : samples_)
        s.store(0.0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    saturationWarned_.store(false, std::memory_order_relaxed);
}

namespace {

enum class Kind
{
    Counter,
    Gauge,
    Histogram,
};

/** Registry of every metric, in registration order per kind. */
struct Registry
{
    std::mutex mutex;
    std::unordered_map<std::string, Kind> kinds;
    std::vector<Counter *> counters;
    std::vector<Gauge *> gauges;
    std::vector<Histogram *> histograms;
    std::unordered_map<std::string, Counter *> counterByName;
    std::unordered_map<std::string, Gauge *> gaugeByName;
    std::unordered_map<std::string, Histogram *> histogramByName;
};

/** Process that registered the exit-time export. */
pid_t gExportOwner = 0;

void
writeAtExit()
{
    // A forked child inherits the registration but not the thread
    // that may hold the registry lock at fork time: exporting there
    // could block on it, and would overwrite the parent's file.
    if (getpid() != gExportOwner)
        return;
    const char *path = std::getenv("INCA_METRICS");
    if (path == nullptr || *path == '\0')
        return;
    std::ofstream out(path);
    if (out)
        out << toJson();
}

Registry &
registry()
{
    // Leaked on purpose: metrics are updated from function-local
    // statics that may outlive any particular destruction order.
    // First use also registers the INCA_METRICS exit-time export so
    // every binary honors the variable without driver changes.
    static Registry *r = [] {
        auto *reg = new Registry;
        if (const char *env = std::getenv("INCA_METRICS")) {
            if (*env != '\0') {
                gExportOwner = getpid();
                std::atexit(writeAtExit);
            }
        }
        return reg;
    }();
    return *r;
}

/**
 * Touch the registry during static initialization so INCA_METRICS is
 * honored even by a process that never registers a metric (the atexit
 * export then writes an empty registry rather than nothing).
 */
const bool gInitAtStartup = (registry(), true);

void
claimName(Registry &r, const std::string &name, Kind kind)
{
    auto [it, inserted] = r.kinds.emplace(name, kind);
    inca_assert(it->second == kind,
                "metric '%s' registered twice with different kinds",
                name.c_str());
    (void)inserted;
}

/** Default microsecond buckets: 1 us .. 2^25 us (~34 s), powers of 2. */
std::vector<double>
defaultUsBounds()
{
    std::vector<double> bounds;
    bounds.reserve(26);
    double b = 1.0;
    for (int i = 0; i <= 25; ++i, b *= 2.0)
        bounds.push_back(b);
    return bounds;
}

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Counter);
    auto it = r.counterByName.find(name);
    if (it != r.counterByName.end())
        return *it->second;
    auto *c = new Counter(name);
    r.counters.push_back(c);
    r.counterByName.emplace(name, c);
    return *c;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Gauge);
    auto it = r.gaugeByName.find(name);
    if (it != r.gaugeByName.end())
        return *it->second;
    auto *g = new Gauge(name);
    r.gauges.push_back(g);
    r.gaugeByName.emplace(name, g);
    return *g;
}

Histogram &
histogram(const std::string &name)
{
    return histogram(name, defaultUsBounds());
}

Histogram &
histogram(const std::string &name, std::vector<double> bounds)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Histogram);
    auto it = r.histogramByName.find(name);
    if (it != r.histogramByName.end())
        return *it->second;
    auto *h = new Histogram(name, std::move(bounds));
    r.histograms.push_back(h);
    r.histogramByName.emplace(name, h);
    return *h;
}

std::string
toJson()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(r.counters[i]->name())
           << "\": " << r.counters[i]->value();
    }
    os << (r.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    for (std::size_t i = 0; i < r.gauges.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(r.gauges[i]->name())
           << "\": " << num(r.gauges[i]->value());
    }
    os << (r.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    for (std::size_t i = 0; i < r.histograms.size(); ++i) {
        const Histogram &h = *r.histograms[i];
        os << (i ? "," : "") << "\n    \"" << jsonEscape(h.name())
           << "\": {\"count\": " << h.count()
           << ", \"sum\": " << num(h.sum())
           << ", \"p50\": " << num(h.percentile(50.0))
           << ", \"p95\": " << num(h.percentile(95.0))
           << ", \"p99\": " << num(h.percentile(99.0))
           << ", \"saturated\": "
           << (h.retainedSaturated() ? "true" : "false")
           << ", \"buckets\": [";
        const auto counts = h.bucketCounts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
            os << (b ? ", " : "") << "{\"le\": ";
            if (b < h.bounds().size())
                os << num(h.bounds()[b]);
            else
                os << "\"+Inf\"";
            os << ", \"count\": " << counts[b] << "}";
        }
        os << "]}";
    }
    os << (r.histograms.empty() ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

void
printText(std::FILE *out)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto isCache = [](const std::string &name) {
        return name.rfind("cache.", 0) == 0;
    };
    bool any = false;
    for (const Counter *c : r.counters)
        any = any || (!isCache(c->name()) && c->value() > 0);
    for (const Gauge *g : r.gauges)
        any = any || (!isCache(g->name()) && g->value() != 0.0);
    for (const Histogram *h : r.histograms)
        any = any || (!isCache(h->name()) && h->count() > 0);
    if (!any)
        return;
    std::fprintf(out, "\nprocess metrics:\n");
    for (const Counter *c : r.counters) {
        if (isCache(c->name()) || c->value() == 0)
            continue;
        std::fprintf(out, "  %-40s %12llu\n", c->name().c_str(),
                     (unsigned long long)c->value());
    }
    for (const Gauge *g : r.gauges) {
        if (isCache(g->name()) || g->value() == 0.0)
            continue;
        std::fprintf(out, "  %-40s %12.4g\n", g->name().c_str(),
                     g->value());
    }
    for (const Histogram *h : r.histograms) {
        if (isCache(h->name()) || h->count() == 0)
            continue;
        std::fprintf(out,
                     "  %-40s %12llu obs  mean %10.1f  "
                     "p50 %10.1f  p95 %10.1f  p99 %10.1f%s\n",
                     h->name().c_str(), (unsigned long long)h->count(),
                     h->mean(), h->percentile(50.0),
                     h->percentile(95.0), h->percentile(99.0),
                     h->retainedSaturated() ? "  (p~first 4096)" : "");
    }
}

void
resetAll()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (Counter *c : r.counters)
        c->reset();
    for (Gauge *g : r.gauges)
        g->reset();
    for (Histogram *h : r.histograms)
        h->reset();
}

} // namespace metrics
} // namespace inca
