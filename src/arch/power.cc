#include "arch/power.hh"

#include "common/logging.hh"

namespace inca {
namespace arch {

Watts
idlePowerFromArea(const AreaBreakdown &area, const LeakageDensity &d,
                  int adcBits, double adcActiveFraction)
{
    inca_assert(adcActiveFraction >= 0.0 && adcActiveFraction <= 1.0,
                "active fraction %f out of [0,1]", adcActiveFraction);
    return area.adc * d.adcDensity(adcBits) * adcActiveFraction +
           area.buffer * d.buffer +
           (area.others + area.postProcessing) * d.digital +
           (area.array + area.dac) * d.array;
}

Watts
incaIdlePower(const IncaConfig &cfg, const LeakageDensity &density)
{
    // IS knows which stacks hold live activations; idle ADC groups
    // power-gate.
    constexpr double kAdcActiveFraction = 0.25;
    return idlePowerFromArea(incaArea(cfg), density, cfg.adcBits,
                             kAdcActiveFraction);
}

Watts
baselineIdlePower(const BaselineConfig &cfg,
                  const LeakageDensity &density)
{
    return idlePowerFromArea(baselineArea(cfg), density,
                             cfg.adcBits, 1.0);
}

} // namespace arch
} // namespace inca
