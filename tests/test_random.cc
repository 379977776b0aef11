/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"

namespace inca {
namespace {

TEST(Random, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Random, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformBoundsRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Random, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, BelowInRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, BelowCoversAllValues)
{
    Rng rng(15);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++hits[size_t(rng.below(8))];
    for (int h : hits)
        EXPECT_GT(h, 0);
}

TEST(Random, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sumSq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sumSq += g * g;
    }
    const double mean = sum / n;
    const double var = sumSq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Random, GaussianShifted)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 0.5);
    EXPECT_NEAR(sum / n, 5.0, 0.03);
}

/** Bit pattern of a double, so -0.0 and NaN compare exactly. */
std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/**
 * fillGaussian() is n sequential gaussian() calls, bit for bit, with
 * the pending spare consumed on entry and carried out on exit -- at
 * every count (empty, odd, even, across the chunk boundary) and at
 * every pool size.
 */
TEST(Random, FillGaussianMatchesSequential)
{
    const std::vector<std::size_t> counts = {0,    1,    2,    3,
                                             7,    4096, 4097, 40321};
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        for (std::size_t count : counts) {
            for (bool pendingSpare : {false, true}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " count=" + std::to_string(count) +
                             " pendingSpare=" +
                             std::to_string(pendingSpare));
                Rng batched(23 + count), sequential(23 + count);
                if (pendingSpare) {
                    EXPECT_EQ(bits(batched.gaussian()),
                              bits(sequential.gaussian()));
                }
                std::vector<double> out(count);
                batched.fillGaussian(out.data(), count);
                for (std::size_t i = 0; i < count; ++i) {
                    ASSERT_EQ(bits(out[i]), bits(sequential.gaussian()))
                        << "value " << i;
                }
                // The carried spare (or its absence) shows in what
                // follows.
                for (int i = 0; i < 5; ++i) {
                    EXPECT_EQ(bits(batched.gaussian()),
                              bits(sequential.gaussian()))
                        << "follow-up " << i;
                }
            }
        }
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(RandomDeath, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "below");
}

} // namespace
} // namespace inca
