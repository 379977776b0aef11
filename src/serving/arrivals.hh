/**
 * @file
 * Open-loop request arrival processes for the serving simulator.
 *
 * Three seeded generators over virtual time: Poisson (exponential
 * interarrivals at a constant rate), bursty (a two-state on/off MMPP
 * whose sojourns are exponential and whose time-averaged rate equals
 * the requested rate), and diurnal (a non-homogeneous Poisson process
 * with sinusoidal rate modulation, drawn by thinning). Every process
 * is a pure function of (spec, duration): the ascending arrival trace
 * is drawn up front from one SplitMix64 stream, so two runs with the
 * same spec are bit-identical at any thread count. The simulator
 * copies the trace into its per-request records and frees the
 * vector before its event loop starts; the loop reads arrival times
 * from the records through cursors -- arrivals, batch-timeout ticks
 * and deadlines are the trace plus a constant, so each family is
 * already in time order and never enters its event heap.
 */

#ifndef INCA_SERVING_ARRIVALS_HH
#define INCA_SERVING_ARRIVALS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"

namespace inca {
namespace serving {

/** Arrival process shape. */
enum class ArrivalKind
{
    Poisson, ///< constant-rate, exponential interarrivals
    Bursty,  ///< on/off MMPP: bursts at a multiple of the mean rate
    Diurnal, ///< sinusoidal rate modulation (thinned Poisson)
};

/** "poisson" / "bursty" / "diurnal". */
const char *arrivalKindName(ArrivalKind kind);

/** Parse an arrival-kind name; fatal on anything else. */
ArrivalKind arrivalKindByName(const std::string &name);

/** Everything that determines an arrival trace (plus the duration). */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double ratePerS = 100.0; ///< time-averaged offered rate
    std::uint64_t seed = 1;

    /**
     * Bursty: the on-state arrival rate is burstFactor x ratePerS;
     * the off-state rate is derived so the time average stays
     * ratePerS (and clamps at zero when the factor saturates the
     * on-fraction). Sojourns are exponential with the given means.
     */
    double burstFactor = 4.0;
    Seconds meanOnS = 0.05;
    Seconds meanOffS = 0.20;

    /**
     * Diurnal: rate(t) = ratePerS * (1 + depth * sin(2 pi t / period)).
     * depth in [0, 1); the period is a scaled-down "day".
     */
    Seconds diurnalPeriodS = 2.0;
    double diurnalDepth = 0.8;
};

/**
 * Exponential variate with mean 1 / @p rate from one uniform draw of
 * @p rng: the interarrival, sojourn, time-to-fail and repair draw of
 * every seeded serving process.
 */
double exponential(SplitMix64 &rng, double rate);

/**
 * Generate every arrival timestamp in [0, duration), sorted
 * ascending. Pure and deterministic (see file comment); panics on a
 * non-positive rate or duration, or an out-of-range burst/diurnal
 * parameter.
 */
std::vector<Seconds> generateArrivals(const ArrivalSpec &spec,
                                      Seconds duration);

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_ARRIVALS_HH
