/**
 * @file
 * Exploration objectives and the per-candidate evaluation record.
 *
 * Objectives are the axes of the Pareto comparison: each one reads a
 * scalar off an Evaluation, and dominance is computed over the vector
 * of selected objectives with every entry re-oriented so that smaller
 * is better (maximized objectives are negated). An Evaluation carries
 * both the cheap pre-scoring scalars (area, idle power, utilization,
 * accuracy proxy -- computable without running an engine, which is
 * what lets Constraints filter before the expensive part) and the
 * engine-scored ones (energy, latency), plus the provenance hash that
 * ties the point back to its exact arch config. It holds scalars
 * only: the engine's per-layer report is dropped once they are read,
 * and Explorer::engineRun() rebuilds it for the points that need it.
 *
 * The accuracy objective is an analytic proxy, not a training run:
 * ADC window clipping (a b-bit ADC represents 2^b - 1 levels; a k x k
 * direct-convolution window sums up to k^2 unit products, so 3 bits
 * clip a 3x3 window -- the paper's Section V-B-1 argument) times a
 * linear noise penalty calibrated to Table VI's endpoints (WS weight
 * noise accumulates as a random walk, sigma 0.05 costs ~67 points; IS
 * activation noise is transient, ~3.6 points). It preserves the
 * trends the paper reports at zero per-candidate cost; training-based
 * accuracy stays in nn::train for the Table VI bench.
 */

#ifndef INCA_DSE_OBJECTIVES_HH
#define INCA_DSE_OBJECTIVES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dse/space.hh"
#include "nn/network.hh"
#include "reliability/mitigation.hh"

namespace inca {
namespace dse {

/** A Pareto objective. */
enum class Objective
{
    Energy,       ///< energy per batch [J] (minimize)
    Latency,      ///< batch makespan [s] (minimize)
    Area,         ///< chip area [m^2] (minimize)
    Edp,          ///< energy-delay product [J*s] (minimize)
    IdlePower,    ///< chip idle power [W] (minimize)
    Utilization,  ///< network array utilization [0,1] (maximize)
    Accuracy,     ///< accuracy-under-noise proxy [0,1] (maximize)
    Resilience,   ///< accuracy-under-faults proxy [0,1] (maximize)
    LatencyTimed, ///< event-backend makespan, overlap on [s] (min.)
    P99Latency,   ///< serving p99 request latency [s] (minimize)
    Goodput,      ///< serving within-SLO throughput [rps] (maximize)
    EnergyPerRequest, ///< serving energy per request [J] (minimize)
    Availability, ///< serving up-fraction under failures (maximize)
    ShedFraction, ///< serving shed / offered [0,1] (minimize)
};

/** "energy", "latency", ... (the CLI spelling). */
const char *objectiveName(Objective o);

/** Parse an objective name; fatal on anything else. */
Objective objectiveByName(const std::string &name);

/** Parse a comma-separated objective list ("energy,latency,area"). */
std::vector<Objective> objectivesByNames(const std::string &list);

/** True for objectives where larger is better. */
bool objectiveMaximized(Objective o);

/** One scored (or constraint-rejected) design point. */
struct Evaluation
{
    Candidate candidate;
    bool feasible = true;     ///< passed every constraint
    bool scored = false;      ///< an engine run produced energy/latency
    bool reused = false;      ///< replayed from a journal, not computed
    std::string rejectedBy;   ///< violated constraint (when infeasible)

    // Cheap pre-scoring scalars (no engine run needed).
    double areaM2 = 0.0;
    double idlePowerW = 0.0;
    double utilization = 0.0;
    double accuracy = 0.0;
    double resilience = 0.0; ///< accuracy at the reference fault BER

    // Engine-scored scalars (valid when scored).
    double energyJ = 0.0;
    double latencyS = 0.0;
    /**
     * Event-backend makespan with load/compute overlap enabled
     * (ir::lower* + event::execute). Only computed when the
     * latency_timed objective is selected -- the event schedule is
     * pure but costs a full lowering per candidate -- so it reads
     * 0.0 otherwise (and for journals written before the objective
     * existed).
     */
    double timedLatencyS = 0.0;
    /**
     * Bottleneck attribution of the timed run: the unit carrying the
     * largest critical-path share of the event makespan, and that
     * share in [0, 1]. Computed alongside timedLatencyS (so only
     * when the latency_timed objective is selected); empty / 0.0
     * otherwise and for journals written before the analysis layer.
     */
    std::string bottleneckUnit;
    double criticalShare = 0.0;
    /**
     * Serving-simulator scalars: p99 request latency, within-SLO
     * throughput, and datacenter energy per request under the
     * explorer's serving scenario (arrival process, replicas,
     * sharding, batching -- see ExploreOptions::serving). Only
     * computed when a serving objective or the max_p99_ms constraint
     * is selected; 0.0 otherwise and for older journals.
     */
    double p99LatencyS = 0.0;
    double goodputRps = 0.0;
    double energyPerRequestJ = 0.0;
    /**
     * Chaos-serving scalars: fraction of the serving window with >= 1
     * accepting replica, and the shed fraction of offered requests.
     * Filled by the serving scenario when failure injection or
     * admission control is active; availability reads 1.0 and shed
     * 0.0 otherwise (and for older journals).
     */
    double availability = 1.0;
    double shedFraction = 0.0;
    std::uint64_t configKeyHash = 0;

    /**
     * Selected objective values with minimized orientation (maximized
     * objectives negated), in the explorer's objective order; the
     * vector dominance compares. Empty when not scored.
     */
    std::vector<double> objectives;

    /** Natural (un-negated) value of one objective. */
    double value(Objective o) const;
};

/** Fill @p e.objectives from its scalars, minimized orientation. */
void orientObjectives(Evaluation &e,
                      const std::vector<Objective> &objectives);

/**
 * Largest direct-convolution window (kernel k*k product count) among
 * the network's conv-like layers -- what the ADC must digitize
 * losslessly under the IS dataflow. The first conv is excluded: its
 * off-chip inputs go through the digital path (the engine's
 * firstConv special case), so its stem window never hits the ADC.
 */
int maxConvWindow(const nn::NetworkDesc &net);

/**
 * Analytic accuracy-under-noise proxy in [0, 1]; see the file
 * comment. @p maxWindow only penalizes the IS engine (the WS pipeline
 * shift-adds partial sums, so ADC clipping is not modelled for it).
 */
double accuracyProxy(EngineKind kind, int adcBits, int maxWindow,
                     double noiseSigma);

/**
 * Analytic accuracy-under-faults proxy in [0, 1]: the accuracy proxy
 * evaluated at the device-noise sigma plus the equivalent sigma of
 * the fault rate surviving mitigation. @p ber is the raw rate of both
 * hard (stuck) and soft (write-variation) faults; write-verify retry
 * shrinks the soft part geometrically and spare rows/columns cover
 * the expected faulty lines of a @p arraySize^2 array (first-order
 * expectation, matching the campaign's Monte-Carlo model in
 * src/reliability). The closed form keeps DSE constraint checks at
 * zero per-candidate cost; the campaign is the reference.
 */
double resilienceProxy(EngineKind kind, int adcBits, int maxWindow,
                       double noiseSigma, double ber,
                       int activationBits, int arraySize,
                       const reliability::MitigationSpec &mitigation);

} // namespace dse
} // namespace inca

#endif // INCA_DSE_OBJECTIVES_HH
