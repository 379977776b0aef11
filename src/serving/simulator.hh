/**
 * @file
 * Virtual-time serving simulator: open-loop arrivals -> batching
 * scheduler -> replicated (possibly sharded) chip servers.
 *
 * The simulated clock is driven purely by event timestamps -- the
 * seeded arrival trace (serving/arrivals.hh) and batch service times
 * from the memoized cost model (serving/cost_model.hh). Wall-clock
 * time never enters, so a simulation is a pure function of
 * its spec: bit-identical at any thread count and with the batch-cost
 * cache cold or warm. The only parallel phase is the pre-computation of the
 * (stream, batch size) cost table, which fans out pure cost-model
 * calls into pre-sized slots before the serial event loop runs.
 *
 * Scheduling policy: one FIFO queue per stream. A stream becomes
 * dispatchable when its queue reaches the batch-size cap or its head
 * request has waited the batch timeout. When a server is free, the
 * scheduler picks the dispatchable stream with the lowest priority
 * number (ties: oldest head request, then stream index) and dispatches
 * up to maxBatch requests from that stream only -- batches never mix
 * models. Every request has a timeout tick, so a drained arrival
 * trace still flushes: each queued request eventually ages past the
 * timeout and leaves with a recorded latency.
 *
 * Event queue: arrivals, timeout ticks (arrival + timeout) and
 * deadlines (arrival + deadline) are each the ascending trace plus a
 * constant, so they are read through three cursors over the trace
 * instead of being pushed up front. The binary heap holds only live
 * events -- server-ready, completion, failure/repair/up and retry --
 * so it stays O(replicas + in-flight batches + pending retries), and
 * each step takes the least of the three cursor heads and the heap
 * top under one (time, kind, seq) key, popping events in exactly the
 * order a single heap holding all of them would. Together with
 * selecting (not sorting) the latency percentiles, this took ~1M
 * Poisson requests on 4 replicas (perfbench serve_poisson_1m: Release
 * build, 2 pool threads, a shared 4-core x86-64 host) from 1.55 s to
 * 0.31 s of simulate + reportJson, and peak RSS from 208 MB to
 * 128 MB.
 *
 * Memory: one 64-byte RequestRecord per offered request (the only
 * copy of the arrival trace) plus a 1-byte loop state. Queue entries
 * carry their own entry time and exist only while queued; batches
 * live in a slot pool and a slot is freed once its last leg's
 * completion event has fired, so both are O(live work). The
 * queue-depth timeline is streamed to a DepthObserver and never
 * stored, and the loop state is freed before the roll-up allocates
 * its 8-byte-per-completion latency vector. This took the same run's
 * peak RSS from 128 MB to 73 MB.
 *
 * Servers admit one batch per initiation interval and complete it
 * after the batch latency; completions on one server are clamped
 * monotone (a pipeline is FIFO -- a later small batch cannot overtake
 * an earlier large one). Energy = sum of per-batch dynamic + link
 * energy, plus idle power x total chips x makespan (chips leak
 * whether busy or not).
 *
 * Chaos layer (serving/failures.hh): when a FailureSpec is enabled,
 * servers walk the up/degraded/down/recovering health machine on
 * seeded per-server failure traces; a fail-stop kills the server's
 * in-flight batches, whose requests are re-enqueued at the front of
 * their stream queue (or dropped, per spec.failures.dropInFlight).
 * Client policies: a per-request deadline, bounded retry with
 * exponential backoff + deterministic jitter, and hedged dispatch
 * onto a second idle server once a batch head has waited past
 * spec.hedgeDelayS. Admission control: per-stream queues are bounded
 * by spec.queueCap (0 = unbounded), the arriving request is the one
 * shed, and under global overload (total backlog >= cap x streams)
 * only the highest-priority class is admitted. All chaos features
 * default off, in which case the event loop takes exactly the
 * original code paths -- the report and every export are
 * byte-identical to the pre-chaos simulator.
 *
 * Availability is measured over the offered-traffic window
 * [0, durationS]: the fraction of that window with at least one
 * server accepting work (Up or Degraded). Per-server failure streams
 * are independent, so availability is monotone non-decreasing in the
 * replica count by construction.
 */

#ifndef INCA_SERVING_SIMULATOR_HH
#define INCA_SERVING_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/units.hh"
#include "serving/arrivals.hh"
#include "serving/cost_model.hh"
#include "serving/failures.hh"

namespace inca {
namespace serving {

/** One request class of the workload mix. */
struct StreamSpec
{
    std::string network = "vgg16"; ///< model zoo name
    double weight = 1.0;           ///< share of the arrival mix
    int priority = 0;              ///< lower dispatches first
};

/** Batch-forming policy (size cap OR head-of-line timeout). */
struct BatchPolicy
{
    int maxBatch = 8;
    Seconds timeoutS = 2e-3;
};

/** Everything that determines one serving simulation. */
struct ServingSpec
{
    bool incaEngine = true; ///< IS chip (false: WS baseline)
    arch::IncaConfig inca = arch::paperInca();
    arch::BaselineConfig ws = arch::paperBaseline();

    std::vector<StreamSpec> streams = {StreamSpec{}};
    ArrivalSpec arrivals;
    Seconds durationS = 1.0; ///< arrival-generation horizon

    int replicas = 1; ///< independent server groups
    ShardSpec shard;
    BatchPolicy batch;

    Seconds sloS = 0.0; ///< latency SLO; 0 disables goodput gating

    // -- Chaos layer; every default below means "off" and preserves
    //    the pre-chaos behavior byte-identically. -------------------
    FailureSpec failures;    ///< seeded per-server failure process
    RetryPolicy retry;       ///< client retry budget + backoff
    Seconds deadlineS = 0.0; ///< per-request deadline; 0 disables
    /** Hedge a batch onto a second idle server once its head has
     *  waited this long; 0 disables hedging. */
    Seconds hedgeDelayS = 0.0;
    /** Per-stream queue bound; arrivals to a full queue are shed.
     *  0 = unbounded (the original behavior). */
    std::uint64_t queueCap = 0;
};

/** True when any chaos feature (failures, retry, deadline, hedging,
 *  bounded queues) is active in @p spec. */
bool chaosEnabled(const ServingSpec &spec);

/**
 * Per-request trace row (the --csv export). One is retained per
 * offered request, so the members are ordered widest first to pack
 * into one 64-byte cache line.
 */
struct RequestRecord
{
    std::uint64_t id = 0;
    Seconds arrivalS = 0.0;
    Seconds dispatchS = 0.0;
    Seconds completionS = 0.0;
    Seconds queuedS = 0.0; ///< total time in queues, all attempts
    int stream = 0;
    int server = -1;
    int batchSize = 0;

    // Chaos accounting (all zero / Ok on the chaos-off path).
    int retries = 0;     ///< client retries performed
    RequestOutcome outcome = RequestOutcome::Ok;
    bool hedged = false; ///< dispatched on two servers at once

    Seconds latencyS() const { return completionS - arrivalS; }
    Seconds waitS() const { return dispatchS - arrivalS; }
};
static_assert(sizeof(RequestRecord) == 64,
              "RequestRecord must stay one cache line");

/** Per-server roll-up. */
struct ServerStats
{
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    Seconds busyS = 0.0;      ///< sum of initiation intervals
    double utilization = 0.0; ///< busyS / makespan
    std::uint64_t failures = 0;      ///< failure events (both modes)
    std::uint64_t killedBatches = 0; ///< in-flight batches lost
    Seconds downS = 0.0; ///< time not accepting work (down+recovering)
};

/** Per-stream chaos counters. */
struct StreamStats
{
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0; ///< requests re-enqueued off a corpse
};

/** Everything one simulation produces. */
struct ServingReport
{
    ServingSpec spec; ///< echoed for the emitters

    std::uint64_t offered = 0;   ///< requests generated
    std::uint64_t completed = 0; ///< outcome Ok (== offered, chaos off)
    std::uint64_t withinSlo = 0; ///< completions meeting the SLO
    Seconds makespanS = 0.0;     ///< last completion time

    // Chaos roll-up (all zero / 1.0 on the chaos-off path).
    std::uint64_t shed = 0;     ///< admission rejections (terminal)
    std::uint64_t timedOut = 0; ///< deadline misses (terminal)
    std::uint64_t failed = 0;   ///< died with a server (terminal)
    std::uint64_t retries = 0;  ///< client retry attempts
    std::uint64_t hedges = 0;   ///< hedge legs dispatched
    std::uint64_t failovers = 0;     ///< requests re-enqueued
    std::uint64_t killedBatches = 0; ///< in-flight batches lost
    std::uint64_t failureEvents = 0; ///< failures injected (all modes)
    /** Fraction of [0, durationS] with >= 1 server accepting work. */
    double availability = 1.0;
    Seconds unavailableS = 0.0; ///< (1 - availability) * durationS
    std::vector<StreamStats> streamStats; ///< one per spec stream

    double offeredRatePerS = 0.0; ///< offered / duration
    double throughputRps = 0.0;   ///< completed / makespan
    double goodputRps = 0.0;      ///< withinSlo / makespan (SLO set)

    // Exact latency summary over every completed request.
    Seconds meanLatencyS = 0.0;
    Seconds p50S = 0.0, p95S = 0.0, p99S = 0.0;
    Seconds maxLatencyS = 0.0;
    Seconds meanWaitS = 0.0;

    double meanQueueDepth = 0.0; ///< time-averaged over [0, makespan]
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;
    double utilization = 0.0; ///< mean server busy fraction

    Joules dynamicEnergyJ = 0.0; ///< compute + link, all batches
    Joules staticEnergyJ = 0.0;  ///< idle power x chips x makespan
    Joules energyJ = 0.0;
    Joules energyPerRequestJ = 0.0;

    std::vector<ServerStats> servers;
    std::vector<RequestRecord> requests; ///< in arrival order
    /** Depth changes the loop observed (DepthObserver calls). */
    std::uint64_t timelinePoints = 0;
};

/**
 * Queue-depth observer: called as (time, waiting requests) at every
 * depth change, in event order. The timeline is streamed through it
 * and never stored (serving/export.hh has the CSV and trace writers).
 */
using DepthObserver = std::function<void(Seconds, std::uint64_t)>;

/**
 * Exact nearest-rank percentile of @p samples for @p q in (0, 100];
 * 0 when empty. The reference percentile the report and the metrics
 * histograms agree on.
 */
double exactPercentile(std::vector<double> samples, double q);

/**
 * Run one simulation (pure; see file comment). @p onDepth, when set,
 * sees every point of the queue-depth timeline as it happens.
 */
ServingReport simulate(const ServingSpec &spec,
                       const DepthObserver &onDepth = {});

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_SIMULATOR_HH
