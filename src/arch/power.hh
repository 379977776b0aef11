/**
 * @file
 * Chip idle (leakage) power models.
 *
 * NeuroSim-style evaluations charge leakage over the makespan of a
 * run; with ms-scale layer latencies this term is first-order. The
 * dominant leakers are the ADC banks: a SAR converter's comparator and
 * capacitive DAC stay biased, and their leakage grows roughly 2x per
 * resolution bit, so the baseline's 16k always-on 8-bit ADCs leak an
 * order of magnitude more than INCA's 4-bit ones. INCA additionally
 * power-gates the ADC groups of stacks whose activations are dead --
 * the IS dataflow knows statically which macros hold live data, while
 * the WS pipeline keeps every crossbar's converter armed for the next
 * window. Buffers, digital logic and arrays contribute smaller
 * area-proportional terms (RRAM itself is nonvolatile).
 */

#ifndef INCA_ARCH_POWER_HH
#define INCA_ARCH_POWER_HH

#include "arch/area.hh"
#include "arch/config.hh"
#include "common/units.hh"

namespace inca {
namespace arch {

/** Leakage densities (W per m^2) by component class. */
struct LeakageDensity
{
    double adc8bit = 0.46e6;  ///< an 8-bit SAR bank, fully armed
    double buffer = 0.020e6;  ///< SRAM retention
    double digital = 0.010e6; ///< others / post-processing
    double array = 0.001e6;   ///< access FETs only (RRAM nonvolatile)

    /** ADC leakage density at a given resolution (2x per bit). */
    double
    adcDensity(int bits) const
    {
        double d = adc8bit;
        for (int b = bits; b < 8; ++b)
            d *= 0.5;
        for (int b = 8; b < bits; ++b)
            d *= 2.0;
        return d;
    }
};

/**
 * Idle power from an area breakdown.
 *
 * @param adcBits ADC resolution (scales the mixed-signal leakage)
 * @param adcActiveFraction fraction of ADC groups left un-gated
 */
Watts idlePowerFromArea(const AreaBreakdown &area,
                        const LeakageDensity &density, int adcBits,
                        double adcActiveFraction = 1.0);

/**
 * Idle power of the INCA chip. IS mapping pins each layer's
 * activations to known macros, so converters of idle stacks power-gate
 * (modelled as 25 % of groups armed on average).
 */
Watts incaIdlePower(const IncaConfig &cfg,
                    const LeakageDensity &density = {});

/** Idle power of the WS baseline chip (all converters armed). */
Watts baselineIdlePower(const BaselineConfig &cfg,
                        const LeakageDensity &density = {});

} // namespace arch
} // namespace inca

#endif // INCA_ARCH_POWER_HH
