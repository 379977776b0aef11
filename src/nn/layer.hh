/**
 * @file
 * Architectural layer descriptors.
 *
 * The analytic side of the simulator (access counting, energy, latency,
 * utilization, footprint) does not need weight values -- only layer
 * *shapes*. A LayerDesc captures the shape of one network layer using
 * the paper's notation (Fig. 3a): input C x H x W, kernels N x C x KH x
 * KW, output N x OH x OW.
 */

#ifndef INCA_NN_LAYER_HH
#define INCA_NN_LAYER_HH

#include <cstdint>
#include <string>

namespace inca {

class CacheKey;

namespace nn {

/** The layer taxonomy the paper's analysis distinguishes. */
enum class LayerKind
{
    Conv,           ///< regular convolution (accumulates over C)
    Depthwise,      ///< depthwise convolution (no cross-channel accum)
    Pointwise,      ///< 1x1 convolution
    FullyConnected, ///< dense layer (modelled as 1x1 conv over a 1x1 map)
    MaxPool,        ///< max pooling
    AvgPool,        ///< average pooling (incl. global)
    ReLU,           ///< activation
    Add,            ///< residual elementwise addition
};

/** @return a short human-readable name for @p kind. */
const char *layerKindName(LayerKind kind);

/** Shape description of one network layer. */
struct LayerDesc
{
    LayerKind kind = LayerKind::Conv;
    std::string name;

    // Input feature map (per image).
    std::int64_t inC = 0, inH = 0, inW = 0;
    // Output feature map (per image).
    std::int64_t outC = 0, outH = 0, outW = 0;
    // Kernel attributes (paper notation: K_H, K_W; N == outC).
    int kh = 0, kw = 0;
    int stride = 1, pad = 0;

    /** True for layers that hold weights and perform MACs. */
    bool isConvLike() const;

    /** True for the depthwise/pointwise layers of light models. */
    bool isLight() const
    {
        return kind == LayerKind::Depthwise ||
               kind == LayerKind::Pointwise;
    }

    /** Number of weight parameters. */
    std::int64_t weightCount() const;

    /** Input activation element count (per image). */
    std::int64_t inputCount() const { return inC * inH * inW; }

    /** Output activation element count (per image). */
    std::int64_t outputCount() const { return outC * outH * outW; }

    /** Multiply-accumulate operations per image. */
    std::int64_t macs() const;

    /**
     * Number of products accumulated into one output element -- the
     * column depth a WS crossbar must provide (K_H * K_W * C for regular
     * convolution, K_H * K_W for depthwise).
     */
    std::int64_t accumDepth() const;

    /** One-line summary for reports. */
    std::string str() const;
};

/**
 * Append the *shape* of @p l to @p key (cache canonicalization).
 * Excludes LayerDesc::name; the network key, which adds each layer's
 * name before its shape, is what separates layers by name.
 */
void appendKey(CacheKey &key, const LayerDesc &l);

} // namespace nn
} // namespace inca

#endif // INCA_NN_LAYER_HH
