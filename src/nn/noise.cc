#include "nn/noise.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace inca {
namespace nn {

using tensor::Tensor;

void
addRangeNoiseInPlace(Tensor &t, double sigma, Rng &rng)
{
    if (sigma <= 0.0)
        return;
    const double range = t.absMax();
    if (range == 0.0)
        return;
    const double scale = sigma * range;
    // The draws arrive in fixed-size batches, so memory stays bounded
    // while each value is still gaussian(0.0, scale)'s, bit for bit.
    constexpr std::int64_t kChunk = 4096;
    std::vector<double> z(std::size_t(std::min(kChunk, t.size())));
    float *ts = t.data();
    for (std::int64_t base = 0; base < t.size(); base += kChunk) {
        const std::int64_t m = std::min(kChunk, t.size() - base);
        rng.fillGaussian(z.data(), std::size_t(m));
        for (std::int64_t j = 0; j < m; ++j)
            ts[base + j] += float(0.0 + scale * z[std::size_t(j)]);
    }
}

Tensor
addRangeNoise(const Tensor &t, double sigma, Rng &rng)
{
    Tensor out = t;
    addRangeNoiseInPlace(out, sigma, rng);
    return out;
}

void
quantizeInPlace(Tensor &t, int bits)
{
    if (bits <= 0)
        return;
    inca_assert(bits <= 24, "quantize: %d bits exceeds float mantissa",
                bits);
    const float range = t.absMax();
    if (range == 0.0f)
        return;
    // Symmetric grid with 2^(bits-1) - 1 positive levels.
    const float levels = float((1 << (bits - 1)) - 1);
    const float step = range / levels;
    for (std::int64_t i = 0; i < t.size(); ++i)
        t[i] = std::round(t[i] / step) * step;
}

Tensor
quantize(const Tensor &t, int bits)
{
    Tensor out = t;
    quantizeInPlace(out, bits);
    return out;
}

} // namespace nn
} // namespace inca
