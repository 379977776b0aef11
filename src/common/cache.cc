#include "common/cache.hh"

#include "common/trace.hh"

namespace inca {

namespace {

/** Registry of live caches, in registration order. */
struct Registry
{
    std::mutex mutex;
    std::vector<CacheBase *> caches;
};

Registry &
registry()
{
    // Leaked on purpose: caches are function-local statics in the
    // modules that own them and may be touched during static
    // destruction; the registry must outlive them all.
    static Registry *r = new Registry;
    return *r;
}

} // namespace

CacheBase::CacheBase(std::string name)
    : name_(std::move(name)),
      hits_(metrics::counter("cache." + name_ + ".hit")),
      misses_(metrics::counter("cache." + name_ + ".miss")),
      evictions_(metrics::counter("cache." + name_ + ".eviction")),
      missUs_(metrics::histogram("cache." + name_ + ".miss_us")),
      traceHits_("cache." + name_ + ".hits"),
      traceMisses_("cache." + name_ + ".misses")
{
    // A fresh cache starts from zero even if an earlier same-named
    // cache already registered these metrics (test isolation).
    resetCounters();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.caches.push_back(this);
}

void
CacheBase::recordHit()
{
    hits_.inc();
    if (trace::enabled())
        trace::counter(traceHits_, double(hits_.value()));
}

void
CacheBase::recordMiss(double seconds)
{
    misses_.inc();
    missUs_.observe(seconds * 1e6);
    if (trace::enabled())
        trace::counter(traceMisses_, double(misses_.value()));
}

void
CacheBase::recordEviction()
{
    evictions_.inc();
}

void
CacheBase::resetCounters()
{
    hits_.reset();
    misses_.reset();
    evictions_.reset();
    missUs_.reset();
}

CacheBase::~CacheBase()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto it = r.caches.begin(); it != r.caches.end(); ++it) {
        if (*it == this) {
            r.caches.erase(it);
            break;
        }
    }
}

std::vector<CacheStatsSnapshot>
cacheStats()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<CacheStatsSnapshot> out;
    out.reserve(r.caches.size());
    for (const CacheBase *cache : r.caches)
        out.push_back(cache->stats());
    return out;
}

void
clearAllCaches()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (CacheBase *cache : r.caches)
        cache->clear();
}

} // namespace inca
