/**
 * @file
 * Content-addressed memoization, and the canonical keys behind the
 * simulator's provenance hashes.
 *
 * CacheKey is the canonical byte string of a computation's inputs.
 * Besides keying the cache below, its hash is the config_key_hash
 * every export carries, part of the DSE journal signature, and the
 * seed of each fault-campaign point's trial streams.
 *
 * EvalCache memoizes one evaluation: the serving cost table's
 * per-(chip, network, shard, batch size) batch costs ("serving.batch"),
 * which serving-axis DSE sweeps revisit across candidates and waves.
 * It is the only cache, and it is always on. The other analytic
 * models are cheap enough that a memo does not pay for its key
 * building and lookups, and dse::Explorer::run already evaluates each
 * distinct candidate once per run.
 *
 * Correctness contract (and why it is easy to honor):
 *  - Every cached function is a pure function of its canonicalized
 *    inputs. A CacheKey is the full canonical byte string of those
 *    inputs -- the map compares whole keys, never just hashes, so a
 *    hash collision can degrade sharding but never aliasing.
 *  - A hit returns a copy of a value that was produced by the exact
 *    same arithmetic, so cold and warm runs are bit-identical at
 *    every thread count.
 *  - Two threads that miss the same key concurrently both compute the
 *    (identical) value; the first insert wins. No lock is held while
 *    computing, so the shards compose with the ThreadPool fan-out.
 *
 * Each cache keeps hit/miss/eviction counters and the wall-clock
 * spent in misses (see sim::printCacheStats).
 */

#ifndef INCA_COMMON_CACHE_HH
#define INCA_COMMON_CACHE_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hh"

namespace inca {

/**
 * Canonical content-addressed key: an append-only byte string plus an
 * incrementally maintained FNV-1a 64-bit hash (used only to pick a
 * shard; equality always compares the full bytes). Each field is
 * prefixed with a one-byte type tag so adjacent fields of different
 * types cannot alias. Append fields in a fixed, documented order --
 * the byte string IS the identity of the computation's inputs.
 */
class CacheKey
{
  public:
    CacheKey() { bytes_.reserve(96); }

    CacheKey &add(std::uint64_t v) { return tagged('u', &v, 8); }
    CacheKey &add(std::int64_t v) { return tagged('i', &v, 8); }
    CacheKey &add(int v)
    {
        const std::int64_t wide = v;
        return tagged('n', &wide, 8);
    }
    CacheKey &add(bool v)
    {
        const unsigned char b = v ? 1 : 0;
        return tagged('b', &b, 1);
    }
    CacheKey &add(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, 8);
        return tagged('d', &bits, 8);
    }
    CacheKey &add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        return tagged('s', s.data(), s.size());
    }
    CacheKey &add(const char *s) { return add(std::string(s)); }

    /** FNV-1a 64 hash of the bytes so far (shard selector). */
    std::uint64_t hash() const { return hash_; }

    /** The canonical byte string (full map key). */
    const std::string &bytes() const { return bytes_; }

    bool operator==(const CacheKey &o) const
    {
        return bytes_ == o.bytes_;
    }

  private:
    CacheKey &tagged(char tag, const void *data, std::size_t n)
    {
        append(&tag, 1);
        append(data, n);
        return *this;
    }

    void append(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        bytes_.append(reinterpret_cast<const char *>(p), n);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL; // FNV-1a prime
        }
    }

    std::string bytes_;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

/** Point-in-time counters of one named cache. */
struct CacheStatsSnapshot
{
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    double missSeconds = 0.0; ///< wall clock spent computing misses

    /** Hits / lookups, in [0, 1]; 0 when never used. */
    double hitRate() const
    {
        const double lookups = double(hits) + double(misses);
        return lookups == 0.0 ? 0.0 : double(hits) / lookups;
    }
};

/**
 * Registry interface every EvalCache implements. The hit/miss/
 * eviction counters and the miss-latency histogram live in the
 * process-wide metrics registry ("cache.<name>.hit" etc.), so
 * metrics::toJson() exports them alongside everything else; this base
 * keeps references and mirrors them into CacheStatsSnapshot for the
 * existing reports. When tracing is on, every hit/miss also samples a
 * trace counter series so cache efficiency is visible on the
 * timeline.
 */
class CacheBase
{
  public:
    explicit CacheBase(std::string name);
    virtual ~CacheBase();

    CacheBase(const CacheBase &) = delete;
    CacheBase &operator=(const CacheBase &) = delete;

    const std::string &name() const { return name_; }

    virtual CacheStatsSnapshot stats() const = 0;

    /** Drop every entry and reset counters (test isolation). */
    virtual void clear() = 0;

  protected:
    void recordHit();
    void recordMiss(double seconds);
    void recordEviction();
    void resetCounters();

    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }
    std::uint64_t evictionCount() const { return evictions_.value(); }
    double missSecondsTotal() const { return missUs_.sum() / 1e6; }

  private:
    std::string name_;
    metrics::Counter &hits_;
    metrics::Counter &misses_;
    metrics::Counter &evictions_;
    metrics::Histogram &missUs_; ///< per-miss compute time [us]
    std::string traceHits_;      ///< trace counter-series names
    std::string traceMisses_;
};

/** Stats of every registered cache, in registration order. */
std::vector<CacheStatsSnapshot> cacheStats();

/** Clear every registered cache (differential-test isolation). */
void clearAllCaches();

/**
 * A sharded memoization map from CacheKey to V.
 *
 * Values must be copyable; getOrCompute returns by value so callers
 * may freely patch presentation-only fields (e.g. layer names) on the
 * copy. Shards use FIFO eviction once they exceed maxEntriesPerShard,
 * which bounds memory under adversarial sweep sizes while keeping the
 * common sweep (thousands of unique keys) fully resident.
 */
template <typename V>
class EvalCache : public CacheBase
{
  public:
    explicit EvalCache(std::string name,
                       std::size_t maxEntriesPerShard = 1 << 14,
                       int shards = 16)
        : CacheBase(std::move(name)),
          shards_(std::size_t(shards < 1 ? 1 : shards)),
          maxPerShard_(maxEntriesPerShard < 1 ? 1 : maxEntriesPerShard)
    {
    }

    /**
     * Return the cached value for @p key, or run @p compute, insert,
     * and return it.
     */
    template <typename Fn>
    V getOrCompute(const CacheKey &key, Fn &&compute)
    {
        Shard &shard = shards_[key.hash() % shards_.size()];
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.map.find(key.bytes());
            if (it != shard.map.end()) {
                recordHit();
                return it->second;
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        V value = compute();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        recordMiss(seconds);
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto [it, inserted] = shard.map.emplace(key.bytes(), value);
            (void)it;
            if (inserted) {
                shard.order.push_back(key.bytes());
                while (shard.map.size() > maxPerShard_) {
                    shard.map.erase(shard.order.front());
                    shard.order.pop_front();
                    recordEviction();
                }
            }
        }
        return value;
    }

    CacheStatsSnapshot stats() const override
    {
        CacheStatsSnapshot s;
        s.name = name();
        s.hits = hitCount();
        s.misses = missCount();
        s.evictions = evictionCount();
        s.missSeconds = missSecondsTotal();
        for (const Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            s.entries += shard.map.size();
        }
        return s;
    }

    void clear() override
    {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.map.clear();
            shard.order.clear();
        }
        resetCounters();
    }

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, V> map;
        std::deque<std::string> order; ///< FIFO eviction queue
    };

    std::vector<Shard> shards_;
    std::size_t maxPerShard_;
};

} // namespace inca

#endif // INCA_COMMON_CACHE_HH
