/**
 * @file
 * Wear-aware RRAM fault model (the reliability subsystem's device
 * layer).
 *
 * The paper names endurance as INCA's open risk: the IS dataflow
 * rewrites its activation cells at every layer of every batch, while
 * WS rewrites weights only on updates. arch::endurance quantifies the
 * write pressure; this module turns that pressure into faults. Three
 * fault classes are modelled, following the RRAM literature the paper
 * cites (and the taxonomy NeuroSim-style reliability studies use):
 *
 *  - stuck-at-0 / stuck-at-1: hard faults. A cell's filament fails
 *    permanently (forming failure or endurance wear-out) and the cell
 *    reads a constant regardless of writes. Rate grows with per-cell
 *    write count.
 *  - write variation: soft faults. A write pulse leaves the cell in
 *    the wrong state with some probability; a verify-read detects it
 *    and a retry pulse usually fixes it (see mitigation.hh).
 *  - conductance drift: a zero-mean analog disturbance of the stored
 *    level, modelled as extra device noise fed to the existing
 *    nn::noise / dse::accuracyProxy substrate.
 *
 * The wear -> BER map is the standard super-linear wear-out curve:
 * rate(w) = rate0 + rateWear * (w / endurance)^shape, clamped to
 * [0, 0.5]. All sampling is seeded and deterministic: the same
 * (spec, wear, geometry, stream id) always yields the same fault map,
 * at any thread count.
 */

#ifndef INCA_RELIABILITY_FAULT_MODEL_HH
#define INCA_RELIABILITY_FAULT_MODEL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/endurance.hh"
#include "common/random.hh"

namespace inca {

namespace core {
class BitPlane;
}
namespace baseline {
class WsCrossbar;
}

namespace reliability {

/** The modelled fault classes. */
enum class FaultKind
{
    StuckAt0,       ///< hard: cell reads 0 forever
    StuckAt1,       ///< hard: cell reads 1 forever
    WriteVariation, ///< soft: a write pulse misses its target state
    Drift,          ///< analog: conductance disturbance (extra noise)
};

/** "stuck_at_0", "stuck_at_1", "write_variation", "drift". */
const char *faultKindName(FaultKind kind);

/**
 * Device fault rates and how they scale with wear. Defaults are
 * mid-range literature values for current-art RRAM; every campaign
 * and DSE knob can override them.
 */
struct FaultSpec
{
    /** Fresh-device stuck-cell (hard) rate. */
    double hardBer0 = 1e-6;
    /** Additional stuck-cell rate at full rated wear. */
    double hardBerWear = 1e-2;
    /** Fresh-device write-variation (soft, per pulse) rate. */
    double softBer0 = 1e-5;
    /** Additional write-variation rate at full rated wear. */
    double softBerWear = 1e-3;
    /** Wear-out curve exponent (super-linear onset). */
    double wearShape = 2.0;
    /** Conductance-drift noise sigma at full rated wear. */
    double driftSigmaWear = 0.02;
    /** Endurance rating the wear fraction is measured against. */
    double endurance = arch::kEnduranceTypical;
    /** Seed of every fault map this spec generates. */
    std::uint64_t seed = kDefaultSeed;
};

/** Consumed life in [0, inf): writes per cell / endurance rating. */
inline double
wearFraction(const FaultSpec &spec, double writesPerCell)
{
    if (spec.endurance <= 0.0 || writesPerCell <= 0.0)
        return 0.0;
    return writesPerCell / spec.endurance;
}

/** Wear-out curve shared by the hard and soft rates (clamped). */
inline double
wearRate(double rate0, double rateWear, double shape, double wear)
{
    const double grown =
        rate0 + rateWear * std::pow(std::max(wear, 0.0), shape);
    return std::min(std::max(grown, 0.0), 0.5);
}

/** Stuck-cell (hard) rate after @p writesPerCell writes. */
inline double
stuckCellRate(const FaultSpec &spec, double writesPerCell)
{
    return wearRate(spec.hardBer0, spec.hardBerWear, spec.wearShape,
                    wearFraction(spec, writesPerCell));
}

/** Write-variation (soft, per pulse) rate after @p writesPerCell. */
inline double
softErrorRate(const FaultSpec &spec, double writesPerCell)
{
    return wearRate(spec.softBer0, spec.softBerWear, spec.wearShape,
                    wearFraction(spec, writesPerCell));
}

/** Conductance-drift sigma after @p writesPerCell writes. */
inline double
driftSigmaAt(const FaultSpec &spec, double writesPerCell)
{
    return spec.driftSigmaWear *
           std::min(wearFraction(spec, writesPerCell), 1.0);
}

/**
 * Equivalent relative noise sigma of a residual bit-error rate on
 * @p activationBits-bit stored values: a flipped bit at position b
 * perturbs the value by 2^b, so the RMS perturbation relative to full
 * scale is sqrt(ber * mean_b 4^b) / (2^bits - 1). This is the bridge
 * from residual (post-mitigation) faults into the existing
 * noise-accuracy substrate (dse::accuracyProxy, Table VI).
 */
inline double
faultNoiseSigma(double residualBer, int activationBits)
{
    if (residualBer <= 0.0 || activationBits <= 0)
        return 0.0;
    double meanSquare = 0.0;
    for (int b = 0; b < activationBits; ++b)
        meanSquare += std::pow(4.0, b);
    meanSquare /= double(activationBits);
    const double fullScale = double((1u << activationBits) - 1u);
    return std::sqrt(std::min(residualBer, 1.0) * meanSquare) /
           fullScale;
}

/**
 * One sampled hard-fault pattern over a rows x cols array. Spare
 * lines are assumed fault-free (they are sized, guard-banded rows;
 * see mitigation.hh), so a map only covers the logical region.
 */
struct FaultMap
{
    int rows = 0;
    int cols = 0;
    /** -1 healthy, 0/1 stuck value, row-major. */
    std::vector<std::int8_t> stuck;
    int stuckCount = 0;

    std::int8_t at(int row, int col) const
    {
        return stuck[std::size_t(row) * std::size_t(cols) +
                     std::size_t(col)];
    }
};

/**
 * A FaultSpec evaluated at one lifetime point: holds the concrete
 * rates and samples deterministic fault maps. @p streamId selects an
 * independent substream (per plane / per Monte-Carlo trial), so maps
 * are reproducible regardless of sampling order.
 */
class FaultModel
{
  public:
    FaultModel(const FaultSpec &spec, double writesPerCell);

    const FaultSpec &spec() const { return spec_; }

    double writesPerCell() const { return writesPerCell_; }

    /** Consumed life (writes / endurance). */
    double wear() const { return wearFraction(spec_, writesPerCell_); }

    /** Stuck-cell rate at this lifetime point. */
    double stuckRate() const
    {
        return stuckCellRate(spec_, writesPerCell_);
    }

    /** Per-pulse write-variation rate at this lifetime point. */
    double softRate() const
    {
        return softErrorRate(spec_, writesPerCell_);
    }

    /** Drift noise sigma at this lifetime point. */
    double driftSigma() const
    {
        return driftSigmaAt(spec_, writesPerCell_);
    }

    /** Sample a stuck-cell map (deterministic in all arguments). */
    FaultMap sample(int rows, int cols, std::uint64_t streamId) const;

  private:
    FaultSpec spec_;
    double writesPerCell_;
};

/** Inject a map's stuck cells into an INCA plane. */
void applyFaults(const FaultMap &map, core::BitPlane &plane);

/** Inject a map's stuck cells into a WS crossbar. */
void applyFaults(const FaultMap &map, baseline::WsCrossbar &xbar);

} // namespace reliability
} // namespace inca

#endif // INCA_RELIABILITY_FAULT_MODEL_HH
