/**
 * @file
 * Deterministic random number generation.
 *
 * The simulator must be reproducible run-to-run, so all stochastic
 * components (dataset synthesis, weight init, noise injection) draw from
 * an explicitly seeded xoshiro256** generator rather than global state.
 */

#ifndef INCA_COMMON_RANDOM_HH
#define INCA_COMMON_RANDOM_HH

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace inca {

/** Default seed used when none is supplied. */
inline constexpr std::uint64_t kDefaultSeed = 0x1234abcd5678ef01ULL;

namespace detail {

/** One splitmix64 step: advance @p x by gamma and mix. */
inline std::uint64_t
splitmixStep(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace detail

/**
 * splitmix64: the minimal 64-bit generator used to expand seeds (and
 * by the DSE strategies, which need many cheap independent streams
 * that are trivially reproducible from a single integer). One
 * uint64_t of state, one add + two xor-shift-multiplies per draw;
 * passes BigCrush. Identical to the expander Rng uses internally, so
 * SplitMix64(seed).next() is also the documented seeding path of the
 * simulator's xoshiro256** streams.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed = kDefaultSeed)
        : state_(seed)
    {
    }

    // The single-draw methods are inline: Monte-Carlo hot loops
    // (notably the per-cell campaign writes) make tens of millions
    // of calls per run, and the call overhead used to show up as
    // ~15% of campaign wall-clock in gprof.

    /** Next raw 64-bit value. */
    std::uint64_t next() { return detail::splitmixStep(state_); }

    /** Uniform double in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [0, n). @p n must be > 0. */
    std::uint64_t below(std::uint64_t n)
    {
        inca_assert(n > 0, "below(0) is undefined");
        return next() % n;
    }

    /**
     * Fill @p out with the next @p count raw values. Byte-identical
     * to @p count sequential next() calls on the same stream key --
     * splitmix64's state walk is a plain counter (state += gamma per
     * draw), so draw i mixes state + (i+1)*gamma independently of
     * draws before it. That makes the batch trivially vectorizable
     * while the guarantee holds by construction; the property test
     * pins it anyway.
     */
    void nextBatch(std::uint64_t *out, std::size_t count);

    /** Batched uniform(): out[i] in [0, 1), same sequence guarantee. */
    void uniformBatch(double *out, std::size_t count);

    /** A child generator seeded from this stream (stream splitting). */
    SplitMix64 split() { return SplitMix64(next()); }

  private:
    std::uint64_t state_;
};

/** xoshiro256** with splitmix64 seeding; fast and deterministic. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = kDefaultSeed);

    // next()/uniform()/below() are inline for the same hot-loop
    // reason as SplitMix64's -- see the note there.

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = detail::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = detail::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @p n must be > 0. */
    std::uint64_t below(std::uint64_t n)
    {
        inca_assert(n > 0, "below(0) is undefined");
        return next() % n;
    }

    /**
     * Fill @p out with the next @p count raw values -- exactly the
     * sequence @p count next() calls would produce. xoshiro256** is
     * inherently serial, so this is a buffering convenience (one call
     * per chunk instead of one per draw in hot loops), not a SIMD
     * kernel.
     */
    void fillRaw(std::uint64_t *out, std::size_t count);

    /** Batched uniform(): out[i] in [0, 1), same draw sequence. */
    void fillUniform(double *out, std::size_t count);

    /** Standard normal via Box-Muller (cached second value). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /**
     * Fill @p out with exactly the values @p count sequential
     * gaussian() calls would return, bit for bit, consuming a pending
     * spare first and leaving one pending when @p count ends halfway
     * through a pair. The uniform draws stay serial; the pure
     * Box-Muller transform of each pair is fanned across the thread
     * pool in fixed-size chunks, so the result is the same at every
     * thread count and no memory beyond @p out is used.
     */
    void fillGaussian(double *out, std::size_t count);

  private:
    /** The serial half of one Box-Muller pair: u1 in (0, 1), u2. */
    void drawUniformPair(double &u1, double &u2);

    std::uint64_t s_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace inca

#endif // INCA_COMMON_RANDOM_HH
