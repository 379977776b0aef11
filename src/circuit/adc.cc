#include "circuit/adc.hh"

#include <cmath>

#include "common/logging.hh"

namespace inca {
namespace circuit {

namespace {

// Anchor: a 22 nm 4-bit SAR conversion, in the range NeuroSim-style
// frameworks report. The absolute value cancels in all INCA/baseline
// ratios; only the E(b) scaling law affects the reproduced shapes.
constexpr Joules kE4 = 0.25e-12;

// Frequency anchors from the paper's FORMS citation.
constexpr double kFreq4 = 2.1e9;
constexpr double kFreq8 = 1.2e9;

// Per-ADC area anchors derived from Table V (see arch/area.cc for the
// roll-up that reproduces the table): geometric interpolation between
// the 4-bit and 8-bit design points.
constexpr SquareMeters kArea8 = 1878e-12;
constexpr SquareMeters kArea4 = 284e-12;

} // namespace

Joules
adc4AnchorEnergy()
{
    return kE4;
}

AdcModel
makeAdc(int bits)
{
    inca_assert(bits >= 1 && bits <= 12, "unsupported ADC resolution %d",
                bits);
    AdcModel adc;
    adc.bits = bits;
    // Linear interpolation of clock between the two published
    // points, extrapolated gently outside [4, 8].
    adc.frequencyHz = kFreq4 + (kFreq8 - kFreq4) * (bits - 4) / 4.0;
    adc.energyPerConversion = kE4 * std::pow(2.0, (bits - 4) / 2.0);
    const double ratio = kArea8 / kArea4;
    adc.area = kArea4 * std::pow(ratio, (bits - 4) / 4.0);
    return adc;
}

DacModel
makeDac()
{
    return DacModel{};
}

} // namespace circuit
} // namespace inca
