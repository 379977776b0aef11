#include "arch/utilization.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace inca {
namespace arch {

namespace {

/** Allocated IS cells for one layer (per image, one bit plane). */
double
incaAllocated(const nn::LayerDesc &l, int s)
{
    if (l.kind == nn::LayerKind::FullyConnected) {
        // FC folds the flattened input onto 2D planes (Section IV-C).
        const double cells = double(s) * s;
        return double(ceilDiv(std::uint64_t(l.inC), std::uint64_t(s * s)))
               * cells;
    }
    const auto tilesH = ceilDiv(std::uint64_t(l.inH), std::uint64_t(s));
    const auto tilesW = ceilDiv(std::uint64_t(l.inW), std::uint64_t(s));
    return double(l.inC) * double(tilesH) * double(tilesW) * s * s;
}

/** Allocated WS cells for one layer (kernels unrolled, bit-sliced). */
double
wsAllocated(const nn::LayerDesc &l, int s, int weightBits)
{
    const double rows = double(l.accumDepth());
    const double cols = double(l.outC) * weightBits;
    const double rowTiles = double(ceilDiv(std::uint64_t(rows),
                                           std::uint64_t(s)));
    const double colTiles = double(ceilDiv(std::uint64_t(cols),
                                           std::uint64_t(s)));
    double tiles = rowTiles * colTiles;
    if (l.kind == nn::LayerKind::Depthwise) {
        // Each depthwise channel is its own tiny kernel column group;
        // channels cannot share accumulation columns.
        tiles = double(l.inC) *
                double(ceilDiv(std::uint64_t(l.kh * l.kw),
                               std::uint64_t(s))) *
                double(ceilDiv(std::uint64_t(weightBits),
                               std::uint64_t(s)));
    }
    return tiles * double(s) * s;
}

double
wsUsed(const nn::LayerDesc &l, int weightBits)
{
    return double(l.weightCount()) * weightBits;
}

} // namespace

double
incaLayerUtilization(const nn::LayerDesc &layer, int arraySize)
{
    inca_assert(arraySize > 0, "array size must be positive");
    if (!layer.isConvLike())
        return 0.0;
    const double used = layer.kind == nn::LayerKind::FullyConnected
                            ? double(layer.inC)
                            : double(layer.inputCount());
    const double alloc = incaAllocated(layer, arraySize);
    return alloc == 0.0 ? 0.0 : used / alloc;
}

double
wsLayerUtilization(const nn::LayerDesc &layer, int arraySize,
                   int weightBits)
{
    inca_assert(arraySize > 0, "array size must be positive");
    if (!layer.isConvLike())
        return 0.0;
    const double alloc = wsAllocated(layer, arraySize, weightBits);
    return alloc == 0.0 ? 0.0 : wsUsed(layer, weightBits) / alloc;
}

double
incaNetworkUtilization(const nn::NetworkDesc &net, int arraySize)
{
    double used = 0.0, alloc = 0.0;
    for (const auto &l : net.layers) {
        if (!l.isConvLike())
            continue;
        alloc += incaAllocated(l, arraySize);
        used += l.kind == nn::LayerKind::FullyConnected
                    ? double(l.inC)
                    : double(l.inputCount());
    }
    return alloc == 0.0 ? 0.0 : used / alloc;
}

double
wsNetworkUtilization(const nn::NetworkDesc &net, int arraySize,
                     int weightBits)
{
    double used = 0.0, alloc = 0.0;
    for (const auto &l : net.layers) {
        if (!l.isConvLike())
            continue;
        alloc += wsAllocated(l, arraySize, weightBits);
        used += wsUsed(l, weightBits);
    }
    return alloc == 0.0 ? 0.0 : used / alloc;
}

} // namespace arch
} // namespace inca
