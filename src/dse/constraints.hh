/**
 * @file
 * Cheap design-point feasibility filters.
 *
 * Constraints gate a candidate before the expensive engine run: every
 * bound below is evaluated from the materialized config and the
 * pre-scoring scalars (area, idle power, utilization, accuracy proxy),
 * all of which are pure closed-form functions. A rejected candidate
 * costs microseconds instead of a full network walk, which is what
 * makes budgeted random/annealing searches over mostly-infeasible
 * spaces affordable.
 *
 * A rejection always names the violated constraint and the offending
 * values -- rejections are warn()ed, never silent, so a sweep that
 * filters a design point says exactly why (the satellite fix for
 * design_space's previously silent skips).
 */

#ifndef INCA_DSE_CONSTRAINTS_HH
#define INCA_DSE_CONSTRAINTS_HH

#include <string>

#include "dse/objectives.hh"

namespace inca {
namespace dse {

/**
 * Feasibility bounds. A value of 0 (or false) disables the bound, so
 * a default-constructed Constraints accepts everything.
 */
struct Constraints
{
    double maxAreaMm2 = 0.0;      ///< chip area budget [mm^2]
    double maxIdlePowerW = 0.0;   ///< idle-power budget [W]
    double minUtilization = 0.0;  ///< network array utilization floor
    double minAccuracy = 0.0;     ///< accuracy-proxy floor
    double minAccuracyAtBer = 0.0; ///< resilience-proxy floor
    bool losslessAdc = false;     ///< ADC must digitize a full window
    /**
     * Serving SLO ceiling on the p99 request latency [ms]. Unlike the
     * bounds above this one needs a serving simulation, so the
     * explorer checks it after scoring (selecting it turns serving
     * scoring on), not in the cheap pre-scoring filter.
     */
    double maxP99Ms = 0.0;
    /**
     * Serving availability floor in [0, 1]. Like max_p99_ms this
     * needs a serving simulation (with failure injection active in
     * the scenario), so the explorer checks it after scoring;
     * selecting it turns serving scoring on.
     */
    double minAvailability = 0.0;

    /** True when no bound is active. */
    bool empty() const
    {
        return maxAreaMm2 <= 0.0 && maxIdlePowerW <= 0.0 &&
               minUtilization <= 0.0 && minAccuracy <= 0.0 &&
               minAccuracyAtBer <= 0.0 && !losslessAdc &&
               maxP99Ms <= 0.0 && minAvailability <= 0.0;
    }

    /**
     * Apply one "key=value" bound (the CLI / journal spelling):
     * max_area_mm2, max_idle_w, min_utilization, min_accuracy,
     * min_accuracy_at_ber, lossless_adc, max_p99_ms,
     * min_availability. Fatal on an unknown key or
     * unparsable value.
     */
    void set(const std::string &keyValue);

    /** Active bounds as comma-separated "key=value" pairs. */
    std::string str() const;
};

/** Outcome of a feasibility check. */
struct ConstraintCheck
{
    bool ok = true;
    /** "max_area_mm2 (612.4 > 450)" -- the violated bound. */
    std::string reason;
};

/**
 * Check the cheap scalars of @p e (areaM2, idlePowerW, utilization,
 * accuracy must already be filled) against @p c. @p adcBits and
 * @p maxWindow drive the lossless-ADC bound for the IS dataflow
 * (2^bits - 1 levels must cover a k x k window's sum).
 */
ConstraintCheck checkConstraints(const Constraints &c,
                                 const Evaluation &e,
                                 EngineKind kind, int adcBits,
                                 int maxWindow);

} // namespace dse
} // namespace inca

#endif // INCA_DSE_CONSTRAINTS_HH
