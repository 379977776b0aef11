#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace inca {

namespace {

/** Pairs drawn, then transformed, per fillGaussian() chunk. */
constexpr std::size_t kGaussianChunkPairs = 2048;

/** Smallest run of pairs worth a pool task. */
constexpr std::int64_t kGaussianGrain = 256;

/**
 * The pure half of Box-Muller: the standard normal pair of one
 * (u1, u2) draw. gaussian() and fillGaussian() share it so both
 * compile to the same arithmetic.
 */
inline void
boxMuller(double u1, double u2, double &first, double &second)
{
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double twoPi = 2.0 * M_PI;
    first = mag * std::cos(twoPi * u2);
    second = mag * std::sin(twoPi * u2);
}

} // namespace

void
SplitMix64::nextBatch(std::uint64_t *out, std::size_t count)
{
    // Counter form of the sequential recurrence: draw i mixes
    // state_ + (i+1)*gamma. Each iteration is independent, so the
    // compiler is free to vectorize the mix; the emitted sequence is
    // identical to `count` next() calls either way.
    constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t base = state_;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t z = base + (std::uint64_t(i) + 1) * gamma;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        out[i] = z ^ (z >> 31);
    }
    state_ = base + std::uint64_t(count) * gamma;
}

void
SplitMix64::uniformBatch(double *out, std::size_t count)
{
    constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t base = state_;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t z = base + (std::uint64_t(i) + 1) * gamma;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        out[i] = double(z >> 11) * 0x1.0p-53;
    }
    state_ = base + std::uint64_t(count) * gamma;
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = detail::splitmixStep(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

void
Rng::fillRaw(std::uint64_t *out, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = next();
}

void
Rng::fillUniform(double *out, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = double(next() >> 11) * 0x1.0p-53;
}

void
Rng::drawUniformPair(double &u1, double &u2)
{
    u1 = 0.0;
    // Avoid log(0).
    while (u1 <= 0.0)
        u1 = uniform();
    u2 = uniform();
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0, u2 = 0.0, first = 0.0;
    drawUniformPair(u1, u2);
    boxMuller(u1, u2, first, spare_);
    hasSpare_ = true;
    return first;
}

void
Rng::fillGaussian(double *out, std::size_t count)
{
    std::size_t i = 0;
    if (count > 0 && hasSpare_) {
        out[i++] = spare_;
        hasSpare_ = false;
    }
    // Whole pairs: each pair's two slots first hold its uniforms
    // (drawn serially, in gaussian()'s order), then its two normals.
    while (count - i >= 2) {
        const std::size_t pairs =
            std::min((count - i) / 2, kGaussianChunkPairs);
        double *chunk = out + i;
        for (std::size_t p = 0; p < pairs; ++p)
            drawUniformPair(chunk[2 * p], chunk[2 * p + 1]);
        parallel_for(std::int64_t(pairs), kGaussianGrain,
                     [chunk](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t p = lo; p < hi; ++p) {
                             double *pair = chunk + 2 * p;
                             boxMuller(pair[0], pair[1], pair[0],
                                       pair[1]);
                         }
                     });
        i += 2 * pairs;
    }
    // An odd tail opens one more pair and keeps its second value as
    // the spare, exactly as gaussian() does.
    if (i < count)
        out[i] = gaussian();
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

} // namespace inca
