/**
 * @file
 * The exploration driver: strategy stream -> parallel evaluation ->
 * constraint filter -> Pareto reduction -> journal.
 *
 * Explorer::run() consumes candidate waves from the strategy.
 * Evaluation is a pure function of (space, options, candidate index),
 * so each distinct index is evaluated at most once per run: a wave
 * fans only its not-yet-seen indices out across the global
 * ThreadPool, and every proposal -- revisits included -- is filled
 * from one per-run index -> Evaluation map that also holds the
 * journal's replays. Everything order-sensitive (journal append,
 * frontier insert, metrics, strategy feedback) runs serially in
 * proposal order afterwards, once per proposal. The
 * combination makes the full result, exports included, bit-identical
 * at any thread count.
 *
 * Checkpoint/resume: every completed evaluation is appended to a
 * JSONL journal (when a path is given). A resumed run replays the
 * same deterministic strategy stream and substitutes journaled
 * evaluations for engine runs, so killing a run at any point and
 * resuming it yields the same frontier as never killing it.
 */

#ifndef INCA_DSE_EXPLORER_HH
#define INCA_DSE_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/cost.hh"
#include "dse/constraints.hh"
#include "dse/objectives.hh"
#include "dse/space.hh"
#include "dse/strategy.hh"
#include "serving/simulator.hh"

namespace inca {
namespace dse {

/** Everything that parameterizes an exploration run. */
struct ExploreOptions
{
    EngineKind engine = EngineKind::Inca;
    arch::Phase phase = arch::Phase::Inference;
    std::string network = "resnet18";

    StrategyKind strategy = StrategyKind::Grid;
    std::uint64_t seed = 1;

    /**
     * Maximum candidates to evaluate; 0 means unbounded (grid/random
     * stop when the space is exhausted; anneal requires a budget).
     */
    std::uint64_t budget = 0;

    std::vector<Objective> objectives = {Objective::Energy,
                                         Objective::Latency,
                                         Objective::Area};
    Constraints constraints;
    /**
     * Soft constraints warn and mark the point infeasible but still
     * score it (design_space uses this so every table row prints);
     * hard constraints skip scoring entirely.
     */
    bool softConstraints = false;

    /** Rescale tiles to keep base cell capacity (plane sweeps). */
    bool isoCapacity = false;

    /** Device-noise level for the accuracy proxy. */
    double noiseSigma = 0.05;

    /** Reference fault rate for the resilience proxy. */
    double faultBer = 1e-3;
    /** Mitigation hardware assumed by the resilience proxy. */
    reliability::MitigationSpec mitigation;

    /** Candidates proposed per wave (the parallel fan-out width). */
    std::size_t evalBatch = 64;

    /** Journal path; empty disables checkpointing. */
    std::string journalPath;
    /** Reuse an existing journal instead of overwriting it. */
    bool resume = false;

    /** Base design points the candidate axes perturb. */
    arch::IncaConfig baseInca = arch::paperInca();
    arch::BaselineConfig baseWs = arch::paperBaseline();

    /**
     * The serving scenario behind the p99_latency / goodput /
     * energy_per_request objectives and the max_p99_ms constraint.
     * Selecting any of those turns serving scoring on: each scored
     * candidate additionally runs one virtual-time serving simulation
     * of its materialized chip under this traffic. The search axes
     * replicas, serve_batch, shard, and shard_chips (when present in
     * the space) override the fixed values per candidate, which is
     * how the explorer searches the datacenter dimensions jointly
     * with the chip ones.
     */
    struct ServingScenario
    {
        serving::ArrivalSpec arrivals;
        Seconds durationS = 0.2;
        int replicas = 1;
        serving::ShardSpec shard;
        serving::BatchPolicy batch;
        Seconds sloS = 0.0; ///< goodput SLO (0: goodput=throughput)
        /**
         * Chaos layer under the availability / shed_fraction
         * objectives and the min_availability constraint: failure
         * injection, client retry, deadline, hedging, and bounded
         * queues, all forwarded into the per-candidate ServingSpec.
         * The failure_mtbf axis (when present in the space)
         * overrides failures.mtbfS per candidate -- its value is in
         * milliseconds, 0 meaning injection off.
         */
        serving::FailureSpec failures;
        serving::RetryPolicy retry;
        Seconds deadlineS = 0.0;
        Seconds hedgeDelayS = 0.0;
        std::uint64_t queueCap = 0;
    };
    ServingScenario serving;
};

/** Outcome of Explorer::run(). */
struct ExploreResult
{
    /** Every evaluation, in strategy proposal order. */
    std::vector<Evaluation> evaluations;
    /** Non-dominated feasible points, sorted by candidate index. */
    std::vector<Evaluation> frontier;

    std::uint64_t spaceSize = 0;
    std::uint64_t scored = 0;   ///< scored proposals, revisits included
    std::uint64_t filtered = 0; ///< hard-constraint rejections
    std::uint64_t reused = 0;   ///< journal replays
};

/** Runs one exploration over a space. */
class Explorer
{
  public:
    Explorer(SearchSpace space, ExploreOptions options);

    /** Execute the exploration (see file comment). */
    ExploreResult run();

    /**
     * Canonical run signature: everything that determines the
     * evaluation stream. Journal compatibility is signature equality.
     */
    std::string signature() const;

    const SearchSpace &space() const { return space_; }

    const ExploreOptions &options() const { return options_; }

    /**
     * Evaluate one candidate index (pure; what run() fans out).
     * Exposed for tests.
     */
    Evaluation evaluate(std::uint64_t flatIndex) const;

    /**
     * The IS or WS engine's per-layer report for @p cand at the run's
     * phase; evaluate() keeps only its scalars.
     */
    arch::RunCost engineRun(const Candidate &cand) const;

  private:
    /** Serving-simulate one scored candidate (fills p99/goodput/epr). */
    void scoreServing(Evaluation &e) const;

    /**
     * True when the serving scenario has any chaos feature active
     * (failures, retry, deadline, hedging, bounded queues), the
     * min_availability constraint is set, or the space searches the
     * failure_mtbf axis. Gates the chaos part of the signature so
     * chaos-free runs keep their pre-chaos journal identity.
     */
    bool servingChaosActive() const;

    SearchSpace space_;
    ExploreOptions options_;
    nn::NetworkDesc net_;
    int maxWindow_ = 0;
    /** latency_timed selected: score the event backend too. */
    bool wantTimed_ = false;
    /** Serving objective or max_p99_ms selected: simulate serving. */
    bool wantServing_ = false;
};

/**
 * Frontier CSV: one row per point with the candidate's axis values,
 * the objective scalars, and the config-key hash. %.17g numbers, so
 * two byte-identical CSVs mean two bit-identical frontiers.
 */
std::string frontierCsv(const SearchSpace &space,
                        const std::vector<Evaluation> &frontier,
                        const std::vector<Objective> &objectives);

/**
 * Frontier JSON report: run parameters, counters, the frontier with
 * per-point axis values and scalars, and the same run-provenance
 * manifest sim::toJson embeds (threads, build, INCA_* env).
 */
std::string frontierJson(const Explorer &explorer,
                         const ExploreResult &result);

/**
 * Write each frontier member's engine report (Explorer::engineRun)
 * as sim::toCsv / sim::toJson files named <prefix>-<index>.{csv,json}.
 * Only the engine runs again -- no timed lowering or serving
 * simulation -- and it is pure, so a run resumed from a journal
 * writes the same files.
 */
void exportFrontierRuns(const Explorer &explorer,
                        const ExploreResult &result,
                        const std::string &prefix);

} // namespace dse
} // namespace inca

#endif // INCA_DSE_EXPLORER_HH
