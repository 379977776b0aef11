#include "serving/arrivals.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace inca {
namespace serving {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Exponential variate with mean 1/rate from one uniform draw. */
double
exponential(SplitMix64 &rng, double rate)
{
    // 1 - uniform() is in (0, 1], so the log is always finite.
    return -std::log(1.0 - rng.uniform()) / rate;
}

std::vector<Seconds>
poissonTrace(SplitMix64 &rng, double rate, Seconds duration)
{
    std::vector<Seconds> out;
    out.reserve(std::size_t(rate * duration * 1.1) + 16);
    Seconds t = exponential(rng, rate);
    while (t < duration) {
        out.push_back(t);
        t += exponential(rng, rate);
    }
    return out;
}

std::vector<Seconds>
burstyTrace(const ArrivalSpec &spec, SplitMix64 &rng,
            Seconds duration)
{
    inca_assert(spec.burstFactor >= 1.0,
                "burst factor %f must be >= 1", spec.burstFactor);
    inca_assert(spec.meanOnS > 0.0 && spec.meanOffS > 0.0,
                "bursty sojourn means must be positive");
    // Pick the per-state rates so the time average equals ratePerS:
    //   pOn * rateOn + (1 - pOn) * rateOff = rate.
    // A factor saturating the on-fraction clamps rateOff at zero (the
    // trace then averages slightly below the nominal rate; the report
    // always prints the realized rate, never the nominal one).
    const double pOn =
        spec.meanOnS / (spec.meanOnS + spec.meanOffS);
    const double rateOn = spec.burstFactor * spec.ratePerS;
    const double rateOff = std::max(
        0.0, (spec.ratePerS - pOn * rateOn) / (1.0 - pOn));
    std::vector<Seconds> out;
    out.reserve(std::size_t(spec.ratePerS * duration * 1.1) + 16);
    Seconds t = 0.0;
    bool on = false; // start in the quiet state
    while (t < duration) {
        const double mean = on ? spec.meanOnS : spec.meanOffS;
        const double rate = on ? rateOn : rateOff;
        const Seconds sojournEnd =
            t + exponential(rng, 1.0 / mean);
        if (rate > 0.0) {
            Seconds a = t + exponential(rng, rate);
            while (a < sojournEnd && a < duration) {
                out.push_back(a);
                a += exponential(rng, rate);
            }
        }
        t = sojournEnd;
        on = !on;
    }
    return out;
}

std::vector<Seconds>
diurnalTrace(const ArrivalSpec &spec, SplitMix64 &rng,
             Seconds duration)
{
    inca_assert(spec.diurnalDepth >= 0.0 && spec.diurnalDepth < 1.0,
                "diurnal depth %f outside [0, 1)", spec.diurnalDepth);
    inca_assert(spec.diurnalPeriodS > 0.0,
                "diurnal period must be positive");
    // Thinning: draw candidates at the envelope rate and accept each
    // with probability rate(t) / rateMax. The sin modulation averages
    // to zero over whole periods, so the realized mean tracks
    // ratePerS.
    const double rateMax = spec.ratePerS * (1.0 + spec.diurnalDepth);
    std::vector<Seconds> out;
    out.reserve(std::size_t(spec.ratePerS * duration * 1.1) + 16);
    Seconds t = exponential(rng, rateMax);
    while (t < duration) {
        const double rate =
            spec.ratePerS *
            (1.0 + spec.diurnalDepth *
                       std::sin(2.0 * kPi * t /
                                spec.diurnalPeriodS));
        if (rng.uniform() * rateMax < rate)
            out.push_back(t);
        t += exponential(rng, rateMax);
    }
    return out;
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    panic("unreachable arrival kind %d", int(kind));
}

ArrivalKind
arrivalKindByName(const std::string &name)
{
    for (const ArrivalKind k :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        if (name == arrivalKindName(k))
            return k;
    }
    fatal("unknown arrival process '%s' (expected poisson, bursty, "
          "or diurnal)",
          name.c_str());
}

std::vector<Seconds>
generateArrivals(const ArrivalSpec &spec, Seconds duration)
{
    inca_assert(spec.ratePerS > 0.0, "arrival rate %f must be > 0",
                spec.ratePerS);
    inca_assert(duration > 0.0, "duration %f must be > 0", duration);
    SplitMix64 rng(spec.seed);
    switch (spec.kind) {
      case ArrivalKind::Poisson:
        return poissonTrace(rng, spec.ratePerS, duration);
      case ArrivalKind::Bursty:
        return burstyTrace(spec, rng, duration);
      case ArrivalKind::Diurnal:
        return diurnalTrace(spec, rng, duration);
    }
    panic("unreachable arrival kind %d", int(spec.kind));
}

} // namespace serving
} // namespace inca
