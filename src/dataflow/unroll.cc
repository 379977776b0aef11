#include "dataflow/unroll.hh"

namespace inca {
namespace dataflow {

std::int64_t
unrolledInputCount(const nn::LayerDesc &layer)
{
    if (!layer.isConvLike())
        return 0;
    // Every output position stores its full window. Depthwise layers
    // unroll per channel (K_H * K_W each, C channels), which sums to
    // the same K_H * K_W * C elements per position.
    const std::int64_t window = std::int64_t(layer.kh) * layer.kw *
                                layer.inC;
    return window * layer.outH * layer.outW;
}

std::int64_t
directInputCount(const nn::LayerDesc &layer)
{
    if (!layer.isConvLike())
        return 0;
    return layer.inputCount();
}

UnrollSummary
unrollComparison(const nn::NetworkDesc &net)
{
    UnrollSummary sum;
    for (const auto &layer : net.layers) {
        sum.unrolled += unrolledInputCount(layer);
        sum.direct += directInputCount(layer);
    }
    return sum;
}

} // namespace dataflow
} // namespace inca
