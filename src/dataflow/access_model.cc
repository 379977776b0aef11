#include "dataflow/access_model.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace inca {
namespace dataflow {

std::uint64_t
fetchWordsPerOutput(const nn::LayerDesc &layer, const AccessConfig &cfg)
{
    if (!layer.isConvLike())
        return 0;
    const auto values = std::uint64_t(layer.accumDepth());
    return ceilDiv(values * std::uint64_t(cfg.bitPrecision),
                   std::uint64_t(cfg.busWidthBits));
}

std::uint64_t
saveWords(const nn::LayerDesc &layer, const AccessConfig &cfg)
{
    if (!layer.isConvLike())
        return 0;
    const auto perPosition =
        ceilDiv(std::uint64_t(layer.outC) *
                    std::uint64_t(cfg.bitPrecision),
                std::uint64_t(cfg.busWidthBits));
    return perPosition * std::uint64_t(layer.outH) *
           std::uint64_t(layer.outW);
}

std::uint64_t
wsLayerAccesses(const nn::LayerDesc &layer, const AccessConfig &cfg)
{
    if (!layer.isConvLike())
        return 0;
    const std::uint64_t positions =
        std::uint64_t(layer.outH) * std::uint64_t(layer.outW);
    return fetchWordsPerOutput(layer, cfg) * positions +
           saveWords(layer, cfg);
}

std::uint64_t
isLayerAccesses(const nn::LayerDesc &layer, const AccessConfig &cfg)
{
    if (!layer.isConvLike())
        return 0;
    // Depthwise layers fetch one kernel per channel; regular layers one
    // kernel stack per output channel.
    const auto kernels = std::uint64_t(
        layer.kind == nn::LayerKind::Depthwise ? layer.inC : layer.outC);
    return fetchWordsPerOutput(layer, cfg) * kernels;
}

AccessSummary
networkAccesses(const nn::NetworkDesc &net, const AccessConfig &cfg)
{
    AccessSummary sum;
    for (const auto &layer : net.layers) {
        if (!cfg.includeFullyConnected &&
            layer.kind == nn::LayerKind::FullyConnected) {
            continue;
        }
        sum.baseline += wsLayerAccesses(layer, cfg);
        sum.inca += isLayerAccesses(layer, cfg);
    }
    return sum;
}

AccessSummary
networkTrainingAccesses(const nn::NetworkDesc &net,
                        const AccessConfig &cfg)
{
    AccessSummary sum;
    for (const auto &layer : net.layers) {
        if (!layer.isConvLike())
            continue;
        if (!cfg.includeFullyConnected &&
            layer.kind == nn::LayerKind::FullyConnected) {
            continue;
        }
        // Baseline training (PipeLayer-style): the forward traffic
        // repeats in the backward pass; updated weights reprogram
        // the crossbars in situ, not through the buffers.
        sum.baseline += 2 * wsLayerAccesses(layer, cfg);
        // INCA training: the backward pass fetches the transposed
        // weights from the same buffer bytes, doubling the forward
        // count (Section V-B-1).
        sum.inca += 2 * isLayerAccesses(layer, cfg);
    }
    return sum;
}

} // namespace dataflow
} // namespace inca
