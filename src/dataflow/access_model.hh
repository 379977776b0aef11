/**
 * @file
 * Buffer-access counting for WS vs. IS dataflow (paper Eqs. 5 & 6,
 * Fig. 7a, Table III).
 *
 * Eq. 5 -- fetch words per output element:
 *     ceil(K_H * K_W * C * bit_precision / bus_width)
 * Eq. 6 -- save words per layer (WS only; ISAAC's pipeline redirects
 * every output to eDRAM):
 *     ceil(N * bit_precision / bus_width) * O_H * O_W
 *
 * Per layer (Table III):
 *     baseline accesses = Eq5 * O_H * O_W + Eq6
 *     INCA accesses     = Eq5 * N          (fetched weights are reused
 *                                           across the whole channel)
 * Training roughly doubles INCA's count (transposed-weight fetches,
 * Section V-B-1) while the baseline's stays pipeline-dominated.
 */

#ifndef INCA_DATAFLOW_ACCESS_MODEL_HH
#define INCA_DATAFLOW_ACCESS_MODEL_HH

#include <cstdint>

#include "nn/network.hh"

namespace inca {

namespace dataflow {

/** Precision / bus configuration of the access analysis. */
struct AccessConfig
{
    int bitPrecision = 8; ///< data precision (Table II: 8-bit)
    int busWidthBits = 256;
    /**
     * Include fully-connected layers in the network totals. The
     * paper's Table III / Fig. 7a count the convolution traffic
     * ("access to load and save is necessary at each convolution"):
     * with FC included, INCA's VGG16 count would be dominated by the
     * 25088 x 4096 classifier, while the paper reports ~460 k -- which
     * is exactly the conv-only sum under 8-bit / 256-bit.
     */
    bool includeFullyConnected = false;
};

/** Eq. 5: fetch words per output element of @p layer. */
std::uint64_t fetchWordsPerOutput(const nn::LayerDesc &layer,
                                  const AccessConfig &cfg);

/** Eq. 6: save words for the whole @p layer (WS pipelining). */
std::uint64_t saveWords(const nn::LayerDesc &layer,
                        const AccessConfig &cfg);

/** Baseline (WS) buffer accesses for one layer. */
std::uint64_t wsLayerAccesses(const nn::LayerDesc &layer,
                              const AccessConfig &cfg);

/** INCA (IS) buffer accesses for one layer. */
std::uint64_t isLayerAccesses(const nn::LayerDesc &layer,
                              const AccessConfig &cfg);

/** Per-network totals over all conv-like layers. */
struct AccessSummary
{
    std::uint64_t baseline = 0;
    std::uint64_t inca = 0;

    double ratio() const
    {
        return inca == 0 ? 0.0 : double(baseline) / double(inca);
    }
};

/** Inference access totals (Table III / Fig. 7a). */
AccessSummary networkAccesses(const nn::NetworkDesc &net,
                              const AccessConfig &cfg);

/**
 * Training access totals: INCA doubles (transposed weights fetched
 * from the same buffer), the baseline adds weight write-backs.
 */
AccessSummary networkTrainingAccesses(const nn::NetworkDesc &net,
                                      const AccessConfig &cfg);

} // namespace dataflow
} // namespace inca

#endif // INCA_DATAFLOW_ACCESS_MODEL_HH
