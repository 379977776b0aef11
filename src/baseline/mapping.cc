#include "baseline/mapping.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace inca {
namespace baseline {

WsMapping
mapLayer(const nn::LayerDesc &layer, const arch::BaselineConfig &cfg)
{
    inca_assert(layer.isConvLike(), "mapLayer on non-conv layer %s",
                layer.name.c_str());
    const auto s = std::uint64_t(cfg.subarraySize);
    WsMapping m;
    m.windows = layer.outH * layer.outW;

    if (layer.kind == nn::LayerKind::Depthwise) {
        // One tiny kernel column group per channel; channels cannot
        // accumulate together, so each needs its own rows.
        m.usedRows = std::int64_t(layer.kh) * layer.kw;
        m.usedCols = cfg.weightBits;
        m.rowTiles = std::int64_t(
            ceilDiv(std::uint64_t(m.usedRows), s));
        m.colTiles = std::int64_t(
            ceilDiv(std::uint64_t(m.usedCols), s));
        m.channelGroups = layer.inC;
        return m;
    }

    m.usedRows = layer.accumDepth();
    m.usedCols = std::int64_t(cfg.weightBits) * layer.outC;
    m.rowTiles = std::int64_t(ceilDiv(std::uint64_t(m.usedRows), s));
    m.colTiles = std::int64_t(ceilDiv(std::uint64_t(m.usedCols), s));
    m.channelGroups = 1;
    return m;
}

std::int64_t
arraysForNetwork(const nn::NetworkDesc &net,
                 const arch::BaselineConfig &cfg)
{
    std::int64_t total = 0;
    for (const auto &layer : net.layers) {
        if (layer.isConvLike())
            total += mapLayer(layer, cfg).arrays();
    }
    return total;
}

} // namespace baseline
} // namespace inca
