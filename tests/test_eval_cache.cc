/**
 * @file
 * The evaluation cache and its canonical keys: engine sweeps are
 * byte-identical at every thread count, a repeated serving cost is
 * answered from the one remaining cache ("serving.batch") without
 * changing a bit, and the mechanics that contract rests on --
 * canonical keys, counters, FIFO eviction -- hold.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "baseline/engine.hh"
#include "common/cache.hh"
#include "common/thread_pool.hh"
#include "inca/engine.hh"
#include "nn/layer.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "serving/cost_model.hh"
#include "test_fixtures.hh"

namespace inca {
namespace {

/**
 * Every number in a RunCost, rendered with full double precision.
 * Byte-equality of two transcripts is bit-equality of two runs.
 */
std::string
transcript(const arch::RunCost &run)
{
    char buf[64];
    std::string out = run.network + "/" +
                      std::to_string(run.batchSize) + "\n";
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
    };
    for (const auto &layer : run.layers) {
        out += layer.name + " k" +
               std::to_string(int(layer.kind)) + " t=";
        num(layer.latency);
        for (const auto &[stat, value] : layer.stats.entries()) {
            out += " " + stat + "=";
            num(value);
        }
        out += "\n";
    }
    out += "latency=";
    num(run.latency);
    out += " static=";
    num(run.staticEnergy);
    out += "\n";
    return out;
}

/**
 * The 3-model x 3-config sweep of the differential tests: every
 * (config, network, phase) pair through both engines, concatenated
 * into one transcript.
 */
std::string
sweepTranscript()
{
    std::string out;
    const auto nets = testing::cacheSweepModels();
    for (const auto &point : testing::cacheSweepPoints()) {
        core::IncaEngine inca(testing::incaPointConfig(point));
        baseline::BaselineEngine base(arch::paperBaseline());
        for (const auto &net : nets) {
            out += transcript(inca.inference(net, point.batch));
            out += transcript(inca.training(net, point.batch));
            out += transcript(base.inference(net, point.batch));
            out += transcript(base.training(net, point.batch));
        }
    }
    return out;
}

/** Start and end every test with empty caches and one thread. */
class EvalCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearAllCaches();
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
        clearAllCaches();
    }
};

TEST_F(EvalCacheTest, CachedSweepIsByteIdenticalAtEveryThreadCount)
{
    ThreadPool::setGlobalThreads(1);
    const std::string reference = sweepTranscript();
    ASSERT_FALSE(reference.empty());

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        // Twice: a repeated sweep must transcribe identically.
        EXPECT_EQ(sweepTranscript(), reference);
        EXPECT_EQ(sweepTranscript(), reference);
    }
}

TEST_F(EvalCacheTest, RepeatedRunsHitTheCache)
{
    // Serial, so concurrent misses on one key cannot skew the
    // miss-vs-entry accounting this test pins down.
    ThreadPool::setGlobalThreads(1);
    const serving::BatchCostModel model(arch::paperInca(), {});
    const auto net = nn::lenet5();

    const serving::BatchCost cold = model.cost(net, 4);
    std::uint64_t missesAfterFirst = 0, hitsAfterFirst = 0;
    for (const auto &s : cacheStats()) {
        missesAfterFirst += s.misses;
        hitsAfterFirst += s.hits;
    }
    EXPECT_GT(missesAfterFirst, 0u);

    const serving::BatchCost warm = model.cost(net, 4);
    std::uint64_t misses = 0, hits = 0, entries = 0;
    for (const auto &s : cacheStats()) {
        misses += s.misses;
        hits += s.hits;
        entries += s.entries;
    }
    // The repeat is answered from the batch-cost cache: new hits, no
    // new misses, the entry count stands still, and not a bit moves.
    EXPECT_EQ(misses, missesAfterFirst);
    EXPECT_GT(hits, hitsAfterFirst);
    EXPECT_GT(entries, 0u);
    EXPECT_EQ(entries, missesAfterFirst);
    EXPECT_EQ(warm.latencyS, cold.latencyS);
    EXPECT_EQ(warm.energyJ, cold.energyJ);
}

TEST_F(EvalCacheTest, FifoEvictionBoundsEntries)
{
    EvalCache<int> cache("test.evict", /*maxEntriesPerShard=*/2,
                         /*shards=*/1);
    for (int i = 0; i < 5; ++i) {
        CacheKey key;
        key.add(std::int64_t(i));
        EXPECT_EQ(cache.getOrCompute(key, [&] { return 10 * i; }),
                  10 * i);
    }
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 5u);
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(s.entries, 2u);

    // The oldest key was evicted: looking it up recomputes...
    CacheKey first;
    first.add(std::int64_t(0));
    EXPECT_EQ(cache.getOrCompute(first, [] { return -1; }), -1);
    // ...while the newest is still resident.
    CacheKey last;
    last.add(std::int64_t(4));
    EXPECT_EQ(cache.getOrCompute(last, [] { return -2; }), 40);
    s = cache.stats();
    EXPECT_EQ(s.misses, 6u);
    EXPECT_EQ(s.hits, 1u);
}

TEST_F(EvalCacheTest, ClearResetsEntriesAndCounters)
{
    EvalCache<int> cache("test.clear");
    CacheKey key;
    key.add("value");
    (void)cache.getOrCompute(key, [] { return 1; });
    (void)cache.getOrCompute(key, [] { return 1; });
    cache.clear();
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(cache.getOrCompute(key, [] { return 2; }), 2);
}

TEST(CacheKeyTest, SameFieldsSameKey)
{
    CacheKey a, b;
    a.add(7).add(3.5).add(true).add("vgg16");
    b.add(7).add(3.5).add(true).add("vgg16");
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a == b);
}

TEST(CacheKeyTest, TypeTagsPreventCrossTypeAliasing)
{
    // 1 as int, int64, uint64, double, and bool all carry different
    // tags; none of the five keys may collide.
    std::vector<CacheKey> keys(5);
    keys[0].add(1);
    keys[1].add(std::int64_t(1));
    keys[2].add(std::uint64_t(1));
    keys[3].add(1.0);
    keys[4].add(true);
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].bytes(), keys[j].bytes()) << i << j;
}

TEST(CacheKeyTest, LengthPrefixPreventsStringConcatAliasing)
{
    CacheKey a, b;
    a.add("ab").add("c");
    b.add("a").add("bc");
    EXPECT_NE(a.bytes(), b.bytes());
}

TEST(CacheKeyTest, FieldOrderMatters)
{
    CacheKey a, b;
    a.add(1).add(2);
    b.add(2).add(1);
    EXPECT_NE(a.bytes(), b.bytes());
}

TEST(CacheKeyTest, LayerKeyIgnoresNameNetworkKeyDoesNot)
{
    nn::LayerDesc l1;
    l1.name = "conv1";
    l1.inC = 3;
    l1.inH = l1.inW = 32;
    l1.outC = 16;
    l1.outH = l1.outW = 32;
    l1.kh = l1.kw = 3;
    nn::LayerDesc l2 = l1;
    l2.name = "conv1.renamed";

    CacheKey k1, k2;
    nn::appendKey(k1, l1);
    nn::appendKey(k2, l2);
    EXPECT_EQ(k1.bytes(), k2.bytes());

    nn::NetworkDesc n1;
    n1.name = "tiny";
    n1.layers = {l1};
    nn::NetworkDesc n2 = n1;
    n2.name = "tiny.renamed";
    CacheKey nk1, nk2;
    nn::appendKey(nk1, n1);
    nn::appendKey(nk2, n2);
    EXPECT_NE(nk1.bytes(), nk2.bytes());
}

TEST(CacheKeyTest, ConfigKeySeparatesDesignPoints)
{
    const auto points = inca::testing::cacheSweepPoints();
    std::vector<std::string> keys;
    for (const auto &p : points) {
        CacheKey k;
        arch::appendKey(k, inca::testing::incaPointConfig(p));
        keys.push_back(k.bytes());
    }
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << j;
}

} // namespace
} // namespace inca
