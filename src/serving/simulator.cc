#include "serving/simulator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <span>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace serving {

namespace {

/**
 * Event. Kind breaks timestamp ties; seq breaks kind ties. Arrivals,
 * timeouts and deadlines come from cursors over the trace; every
 * other kind lives in the heap. Kinds 4+ only occur when a chaos
 * feature needs them; completions (kind 3) always occur but are pure
 * finalizers -- they change no scheduler-visible state, so their
 * presence keeps the chaos-off event stream's observable behavior
 * identical.
 */
struct Ev
{
    Seconds t = 0.0;
    int kind = 0; ///< 0 server-ready, 1 arrival, 2 timeout,
                  ///< 3 completion, 4 fail, 5 repair, 6 up,
                  ///< 7 deadline, 8 retry
    std::uint64_t seq = 0;
    std::uint64_t payload = 0;
};

struct EvLater
{
    bool operator()(const Ev &a, const Ev &b) const
    {
        if (a.t != b.t)
            return a.t > b.t;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.seq > b.seq;
    }
};

constexpr int kEvServerReady = 0;
constexpr int kEvArrival = 1;
constexpr int kEvTimeout = 2;
constexpr int kEvCompletion = 3;
constexpr int kEvFail = 4;
constexpr int kEvRepair = 5;
constexpr int kEvUp = 6;
constexpr int kEvDeadline = 7;
constexpr int kEvRetry = 8;

struct Server
{
    Seconds readyAtS = 0.0;        ///< next admission slot
    Seconds lastCompletionS = 0.0; ///< FIFO monotonicity clamp
    ServerStats stats;

    // Chaos state.
    Health health = Health::Up;
    SplitMix64 rng{0};          ///< private failure stream
    std::uint64_t failCount = 0; ///< aging exponent
    std::vector<std::uint64_t> inflight; ///< live batch ids, dispatch order
    /** (time, accepting-work) transitions; implicit (0, true) start. */
    std::vector<std::pair<Seconds, bool>> healthLog;
};

/** One dispatched service attempt of a batch on one server. */
struct Leg
{
    Seconds completionS = 0.0;
    int server = -1;
    bool dead = false; ///< killed by a fail-stop before completing
};

/** A dispatched batch; hedged batches carry two legs. */
struct Batch
{
    std::uint64_t begin = 0, end = 0; ///< its ids in the request arena
    Leg legs[2];
    int stream = 0;
    std::uint8_t legCount = 0;
    bool done = false; ///< first surviving leg finalized it

    std::span<Leg> dispatched() { return {legs, legCount}; }
};

/** Where a request currently is (internal to the event loop). */
enum class RState : std::uint8_t
{
    Backoff,  ///< client will (re)send; also pre-arrival
    Queued,   ///< in its stream queue
    InFlight, ///< in a live batch
    Done,     ///< terminal (outcome recorded exactly once)
};

/** 1-based nearest rank of percentile @p q among @p n > 0 samples. */
std::size_t
nearestRank(std::size_t n, double q)
{
    const std::size_t rank = std::size_t(std::ceil(q / 100.0 * double(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

void
validateSpec(const ServingSpec &spec)
{
    inca_assert(spec.durationS > 0.0, "duration must be positive");
    inca_assert(spec.replicas >= 1, "need at least one replica");
    inca_assert(spec.batch.maxBatch >= 1,
                "batch cap must be at least 1");
    inca_assert(std::isfinite(spec.batch.timeoutS) &&
                    spec.batch.timeoutS >= 0.0,
                "batch timeout must be finite and non-negative");
    inca_assert(!spec.streams.empty(),
                "the workload needs at least one stream");
    for (const StreamSpec &s : spec.streams)
        inca_assert(s.weight > 0.0,
                    "stream '%s' needs a positive weight",
                    s.network.c_str());
    if (spec.failures.enabled) {
        inca_assert(spec.failures.mtbfS > 0.0,
                    "failure MTBF must be positive");
        inca_assert(spec.failures.mttrS >= 0.0,
                    "failure MTTR must be non-negative");
        inca_assert(spec.failures.degradedFraction >= 0.0 &&
                        spec.failures.degradedFraction <= 1.0,
                    "degraded fraction %f outside [0, 1]",
                    spec.failures.degradedFraction);
        inca_assert(spec.failures.slowdownFactor >= 1.0,
                    "slowdown factor %f must be >= 1",
                    spec.failures.slowdownFactor);
        inca_assert(spec.failures.recoveryS >= 0.0,
                    "recovery window must be non-negative");
        inca_assert(spec.failures.aging > 0.0 &&
                        spec.failures.aging <= 1.0,
                    "aging factor %f outside (0, 1]",
                    spec.failures.aging);
    }
    inca_assert(spec.retry.budget >= 0,
                "retry budget must be non-negative");
    if (spec.retry.budget > 0)
        inca_assert(spec.retry.backoffBaseS > 0.0,
                    "retry backoff base must be positive");
    inca_assert(spec.retry.jitter >= 0.0 && spec.retry.jitter <= 1.0,
                "retry jitter %f outside [0, 1]", spec.retry.jitter);
    inca_assert(spec.deadlineS >= 0.0,
                "deadline must be non-negative");
    inca_assert(spec.hedgeDelayS >= 0.0,
                "hedge delay must be non-negative");
}

} // namespace

bool
chaosEnabled(const ServingSpec &spec)
{
    return spec.failures.enabled || spec.retry.budget > 0 ||
           spec.deadlineS > 0.0 || spec.hedgeDelayS > 0.0 ||
           spec.queueCap > 0;
}

double
exactPercentile(std::vector<double> samples, double q)
{
    inca_assert(q > 0.0 && q <= 100.0,
                "percentile %f outside (0, 100]", q);
    if (samples.empty())
        return 0.0;
    // Selection, not a sort: the order statistic is the same value.
    const auto at =
        samples.begin() + std::ptrdiff_t(nearestRank(samples.size(), q) - 1);
    std::nth_element(samples.begin(), at, samples.end());
    return *at;
}

ServingReport
simulate(const ServingSpec &spec)
{
    validateSpec(spec);
    ServingReport rep;
    rep.spec = spec;

    // ---- Arrival trace + stream assignment (both seeded). --------
    const std::vector<Seconds> arrivals =
        generateArrivals(spec.arrivals, spec.durationS);
    rep.offered = arrivals.size();
    rep.offeredRatePerS = double(arrivals.size()) / spec.durationS;

    double totalWeight = 0.0;
    for (const StreamSpec &s : spec.streams)
        totalWeight += s.weight;
    SplitMix64 assign(spec.arrivals.seed ^ 0x53545245414d53ULL);
    rep.requests.resize(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        RequestRecord &r = rep.requests[i];
        r.id = i;
        r.arrivalS = arrivals[i];
        double u = assign.uniform() * totalWeight;
        int stream = 0;
        for (std::size_t s = 0; s < spec.streams.size(); ++s) {
            u -= spec.streams[s].weight;
            if (u < 0.0) {
                stream = int(s);
                break;
            }
        }
        r.stream = stream;
    }

    // ---- Cost table: the only parallel phase. --------------------
    // One slot per (stream, batch size); each slot is a pure
    // cost-model call, so the fan-out is scheduling-independent and
    // the serial loop below never computes a cost itself.
    const BatchCostModel model =
        spec.incaEngine ? BatchCostModel(spec.inca, spec.shard)
                        : BatchCostModel(spec.ws, spec.shard);
    std::vector<nn::NetworkDesc> nets;
    nets.reserve(spec.streams.size());
    for (const StreamSpec &s : spec.streams)
        nets.push_back(nn::byName(s.network));
    const int maxBatch = spec.batch.maxBatch;
    std::vector<BatchCost> table(spec.streams.size() *
                                 std::size_t(maxBatch));
    parallel_for_each(
        std::int64_t(table.size()), 1, [&](std::int64_t i) {
            const std::size_t stream =
                std::size_t(i) / std::size_t(maxBatch);
            const int batch = int(std::size_t(i) %
                                  std::size_t(maxBatch)) +
                              1;
            table[std::size_t(i)] = model.cost(nets[stream], batch);
        });
    const auto costOf = [&](int stream, int batch) -> const BatchCost & {
        return table[std::size_t(stream) * std::size_t(maxBatch) +
                     std::size_t(batch - 1)];
    };

    // ---- Serial virtual-time event loop. -------------------------
    // Request i has an arrival (seq 2i), a timeout tick (seq 2i+1)
    // and, with a deadline, a deadline (seq 2N+i). Each family is the
    // ascending trace plus a constant -- IEEE addition is monotone --
    // so each is read through a cursor in key order rather than
    // pushed; live events get seqs from 2N (3N with deadlines) up.
    //
    // Every request gets a timeout tick: the head-age dispatch
    // condition below compares against the identical floating-point
    // sum, so the tick fires the moment the condition becomes true --
    // and a drained trace still flushes. The head age counts from the
    // original arrival even after a failover or retry re-enqueue, so
    // a revived request past its tick is dispatchable at the next
    // opportunity and no per-episode tick is ever needed.
    const bool failuresOn = spec.failures.enabled;
    const std::uint64_t n = arrivals.size();
    std::uint64_t nextArrival = 0, nextTimeout = 0;
    std::uint64_t nextDeadline = spec.deadlineS > 0.0 ? 0 : n;
    std::uint64_t seq = spec.deadlineS > 0.0 ? 3 * n : 2 * n;
    std::priority_queue<Ev, std::vector<Ev>, EvLater> events;
    // The least of the three cursor heads and the heap top.
    const auto popNext = [&](Ev &ev) {
        std::uint64_t *cursor = nullptr;
        bool found = false;
        const auto offer = [&](const Ev &head, std::uint64_t *from) {
            if (!found || EvLater{}(ev, head)) {
                ev = head;
                cursor = from;
                found = true;
            }
        };
        if (nextArrival < n)
            offer(Ev{arrivals[nextArrival], kEvArrival, 2 * nextArrival,
                     nextArrival},
                  &nextArrival);
        if (nextTimeout < n)
            offer(Ev{arrivals[nextTimeout] + spec.batch.timeoutS,
                     kEvTimeout, 2 * nextTimeout + 1, nextTimeout},
                  &nextTimeout);
        if (nextDeadline < n)
            offer(Ev{arrivals[nextDeadline] + spec.deadlineS,
                     kEvDeadline, 2 * n + nextDeadline, nextDeadline},
                  &nextDeadline);
        if (!events.empty())
            offer(events.top(), nullptr);
        if (cursor)
            ++*cursor;
        else if (found)
            events.pop();
        return found;
    };

    std::vector<std::deque<std::uint64_t>> queues(
        spec.streams.size());
    std::vector<Server> servers(std::size_t(spec.replicas));
    rep.streamStats.resize(spec.streams.size());

    int minPriority = spec.streams[0].priority;
    for (const StreamSpec &s : spec.streams)
        minPriority = std::min(minPriority, s.priority);

    // Per-request loop state, parallel to rep.requests.
    std::vector<RState> state(rep.requests.size(), RState::Backoff);
    std::vector<Seconds> entryS(rep.requests.size(), 0.0);
    std::uint64_t unresolved = rep.requests.size();

    std::vector<Batch> batches;
    // Request ids of every dispatched batch, back to back.
    std::vector<std::uint64_t> batchReqs;
    batchReqs.reserve(n);
    const auto reqsOf = [&](const Batch &b) {
        return std::span<const std::uint64_t>(batchReqs).subspan(
            b.begin, b.end - b.begin);
    };

    // Per-server failure streams: independent by construction, so a
    // replica's trace never depends on how many replicas exist --
    // adding one grows the union of up-time, which is what makes
    // availability monotone in the replica count.
    if (failuresOn) {
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i].rng = SplitMix64(
                spec.failures.seed ^
                (0x4641494c55524553ULL +
                 std::uint64_t(i) * 0x9e3779b97f4a7c15ULL));
            const Seconds ttf =
                exponential(servers[i].rng, 1.0 / spec.failures.mtbfS);
            events.push(Ev{ttf, kEvFail, seq++, i});
        }
    }

    std::uint64_t waiting = 0;
    // Without chaos the depth changes once per admission and once per
    // dispatch, so this bound spares the doubling copies (and their
    // transient peak) of the report's largest vector.
    rep.queueTimeline.reserve(2 * n);
    Seconds lastTimelineT = 0.0;
    double depthIntegral = 0.0;
    // Integrate the piecewise-constant depth up to @p t BEFORE a
    // change, then record the new level after it.
    const auto advanceDepth = [&](Seconds t) {
        depthIntegral += double(waiting) * (t - lastTimelineT);
        lastTimelineT = t;
    };
    const auto noteDepth = [&](Seconds t) {
        rep.queueTimeline.push_back({t, waiting});
        rep.maxQueueDepth = std::max(rep.maxQueueDepth, waiting);
    };

    // The single terminal transition: records the outcome exactly
    // once and keeps every counter consistent by construction.
    const auto finish = [&](std::uint64_t id, RequestOutcome outcome) {
        inca_assert(state[id] != RState::Done,
                    "request %llu finished twice",
                    static_cast<unsigned long long>(id));
        state[id] = RState::Done;
        --unresolved;
        RequestRecord &r = rep.requests[id];
        r.outcome = outcome;
        StreamStats &ss = rep.streamStats[std::size_t(r.stream)];
        switch (outcome) {
          case RequestOutcome::Ok:
            break;
          case RequestOutcome::Shed:
            ++rep.shed;
            ++ss.shed;
            break;
          case RequestOutcome::Timeout:
            ++rep.timedOut;
            ++ss.timedOut;
            break;
          case RequestOutcome::Failed:
            ++rep.failed;
            ++ss.failed;
            break;
        }
    };

    // Client retry: one more attempt with exponential backoff and a
    // deterministic per-(request, attempt) jitter draw -- a pure
    // function of (seed, id, attempt), independent of event order.
    const auto retryOrFail = [&](std::uint64_t id, Seconds now,
                                 RequestOutcome cause) {
        RequestRecord &r = rep.requests[id];
        if (r.retries >= spec.retry.budget) {
            finish(id, cause);
            return;
        }
        ++r.retries;
        ++rep.retries;
        ++rep.streamStats[std::size_t(r.stream)].retries;
        SplitMix64 j(spec.arrivals.seed ^ 0x524554525953ULL ^
                     (id * 0x9e3779b97f4a7c15ULL +
                      std::uint64_t(r.retries)));
        const double backoff =
            spec.retry.backoffBaseS *
            double(std::uint64_t(1) << (r.retries - 1)) *
            (1.0 + spec.retry.jitter * j.uniform());
        state[id] = RState::Backoff;
        events.push(Ev{now + backoff, kEvRetry, seq++, id});
    };

    // Admission: bounded per-stream queues shed the arriving request;
    // under global overload only the highest-priority class gets in.
    // The cap-0 path is byte-identical to the original unbounded
    // admission.
    const auto admit = [&](std::uint64_t id, Seconds now) {
        RequestRecord &r = rep.requests[id];
        auto &q = queues[std::size_t(r.stream)];
        if (spec.queueCap > 0) {
            const bool full = q.size() >= std::size_t(spec.queueCap);
            const bool overload =
                waiting >= spec.queueCap * queues.size() &&
                spec.streams[std::size_t(r.stream)].priority >
                    minPriority;
            if (full || overload) {
                retryOrFail(id, now, RequestOutcome::Shed);
                return;
            }
        }
        state[id] = RState::Queued;
        entryS[id] = now;
        q.push_back(id);
        advanceDepth(now);
        ++waiting;
        noteDepth(now);
    };

    double batchSizeSum = 0.0;
    const auto accepts = [&](const Server &s) {
        return s.health == Health::Up ||
               s.health == Health::Degraded;
    };
    const auto dispatchable = [&](std::size_t s, Seconds now) {
        const auto &q = queues[s];
        if (q.empty())
            return false;
        if (q.size() >= std::size_t(maxBatch))
            return true;
        return now >= rep.requests[q.front()].arrivalS +
                          spec.batch.timeoutS;
    };
    // Dispatch one leg of @p b on @p srv; returns its completion.
    const auto dispatchLeg = [&](Batch &b, int srv, Seconds now) {
        Server &server = servers[std::size_t(srv)];
        const BatchCost &cost = costOf(b.stream, int(b.end - b.begin));
        Seconds latency = cost.latencyS;
        Seconds interval = cost.intervalS;
        if (server.health == Health::Degraded) {
            latency *= spec.failures.slowdownFactor;
            interval *= spec.failures.slowdownFactor;
        }
        // FIFO clamp: a pipeline cannot let a later (smaller)
        // batch finish before an earlier one.
        const Seconds completion =
            std::max(now + latency, server.lastCompletionS);
        server.lastCompletionS = completion;
        server.readyAtS = now + interval;
        server.stats.busyS += interval;
        server.stats.batches += 1;
        server.stats.requests += b.end - b.begin;
        events.push(Ev{server.readyAtS, kEvServerReady, seq++,
                       std::uint64_t(srv)});
        rep.dynamicEnergyJ += cost.energyJ;
        return completion;
    };
    const auto tryDispatch = [&](Seconds now) {
        for (;;) {
            // Lowest-index idle server that accepts work.
            int srv = -1;
            for (std::size_t i = 0; i < servers.size(); ++i) {
                if (servers[i].readyAtS <= now &&
                    accepts(servers[i])) {
                    srv = int(i);
                    break;
                }
            }
            if (srv < 0)
                return;
            // Dispatchable stream: lowest priority number, then
            // oldest head request, then stream index.
            int best = -1;
            for (std::size_t s = 0; s < queues.size(); ++s) {
                if (!dispatchable(s, now))
                    continue;
                if (best < 0) {
                    best = int(s);
                    continue;
                }
                const StreamSpec &a = spec.streams[s];
                const StreamSpec &b =
                    spec.streams[std::size_t(best)];
                const Seconds headA =
                    rep.requests[queues[s].front()].arrivalS;
                const Seconds headB =
                    rep.requests[queues[std::size_t(best)].front()]
                        .arrivalS;
                if (a.priority < b.priority ||
                    (a.priority == b.priority && headA < headB))
                    best = int(s);
            }
            if (best < 0)
                return;
            auto &q = queues[std::size_t(best)];
            const int batch =
                int(std::min<std::size_t>(q.size(),
                                          std::size_t(maxBatch)));
            const std::uint64_t batchId = batches.size();
            // Hedge once the head has waited past the delay and a
            // second idle healthy server exists: the same batch runs
            // on both, the first surviving completion wins.
            const bool wantHedge =
                spec.hedgeDelayS > 0.0 &&
                now - entryS[q.front()] >= spec.hedgeDelayS;
            Batch b;
            b.stream = best;
            b.begin = batchReqs.size();
            b.end = b.begin + std::uint64_t(batch);
            for (int i = 0; i < batch; ++i) {
                const std::uint64_t id = q.front();
                q.pop_front();
                batchReqs.push_back(id);
                RequestRecord &r = rep.requests[id];
                r.server = srv;
                r.batchSize = batch;
                r.dispatchS = now;
                r.queuedS += now - entryS[id];
                state[id] = RState::InFlight;
            }
            batches.push_back(b);
            Batch &placed = batches.back();
            const Seconds completion =
                dispatchLeg(placed, srv, now);
            placed.legs[placed.legCount++] = Leg{completion, srv, false};
            servers[std::size_t(srv)].inflight.push_back(batchId);
            events.push(Ev{completion, kEvCompletion, seq++,
                           batchId * 2});
            if (wantHedge) {
                int srv2 = -1;
                for (std::size_t i = 0; i < servers.size(); ++i) {
                    if (int(i) != srv &&
                        servers[i].readyAtS <= now &&
                        accepts(servers[i])) {
                        srv2 = int(i);
                        break;
                    }
                }
                if (srv2 >= 0) {
                    const Seconds completion2 =
                        dispatchLeg(placed, srv2, now);
                    placed.legs[placed.legCount++] =
                        Leg{completion2, srv2, false};
                    servers[std::size_t(srv2)].inflight.push_back(
                        batchId);
                    events.push(Ev{completion2, kEvCompletion,
                                   seq++, batchId * 2 + 1});
                    ++rep.hedges;
                    for (const std::uint64_t id : reqsOf(placed))
                        rep.requests[id].hedged = true;
                }
            }
            advanceDepth(now);
            waiting -= std::uint64_t(batch);
            noteDepth(now);
            rep.batches += 1;
            batchSizeSum += double(batch);
        }
    };

    // First surviving leg to complete finalizes the batch.
    const auto finalizeLeg = [&](std::uint64_t batchId, int legIdx) {
        Batch &b = batches[batchId];
        if (b.done)
            return;
        const Leg &leg = b.legs[legIdx];
        if (leg.dead)
            return;
        b.done = true;
        for (const Leg &l : b.dispatched()) {
            if (l.dead)
                continue;
            auto &fl = servers[std::size_t(l.server)].inflight;
            fl.erase(std::find(fl.begin(), fl.end(), batchId));
        }
        for (const std::uint64_t id : reqsOf(b)) {
            RequestRecord &r = rep.requests[id];
            r.server = leg.server;
            r.completionS = leg.completionS;
            const bool late =
                spec.deadlineS > 0.0 &&
                leg.completionS > r.arrivalS + spec.deadlineS;
            finish(id, late ? RequestOutcome::Timeout
                            : RequestOutcome::Ok);
        }
        rep.makespanS = std::max(rep.makespanS, leg.completionS);
    };

    // Fail-stop: kill the server's live legs; requests of batches
    // with no surviving leg fail over (front-of-queue re-enqueue, in
    // original order) or drop to the client's retry path.
    const auto failStop = [&](std::size_t srv, Seconds now) {
        Server &s = servers[srv];
        std::vector<std::uint64_t> revived;
        const std::vector<std::uint64_t> live = s.inflight;
        s.inflight.clear();
        for (const std::uint64_t batchId : live) {
            Batch &b = batches[batchId];
            bool anyAlive = false;
            for (Leg &l : b.dispatched()) {
                if (l.dead)
                    continue;
                if (l.server == int(srv)) {
                    l.dead = true;
                    ++s.stats.killedBatches;
                    ++rep.killedBatches;
                } else {
                    anyAlive = true;
                }
            }
            if (anyAlive || b.done)
                continue;
            for (const std::uint64_t id : reqsOf(b)) {
                RequestRecord &r = rep.requests[id];
                if (spec.failures.dropInFlight) {
                    retryOrFail(id, now, RequestOutcome::Failed);
                } else {
                    ++rep.failovers;
                    ++rep.streamStats[std::size_t(r.stream)]
                          .failovers;
                    revived.push_back(id);
                }
            }
        }
        // Front-of-queue, preserving original order: these were the
        // oldest requests of their streams.
        for (std::size_t i = revived.size(); i-- > 0;) {
            const std::uint64_t id = revived[i];
            state[id] = RState::Queued;
            entryS[id] = now;
            queues[std::size_t(rep.requests[id].stream)].push_front(
                id);
        }
        if (!revived.empty()) {
            advanceDepth(now);
            waiting += revived.size();
            noteDepth(now);
        }
        // The pipeline flushed; nothing completed survives to clamp
        // post-recovery batches, and the unserved remainder of the
        // current admission interval is refunded so busy time stays
        // a true occupancy (utilization <= 1).
        s.lastCompletionS = 0.0;
        if (s.readyAtS > now) {
            s.stats.busyS -= s.readyAtS - now;
            s.readyAtS = now;
        }
    };

    Ev ev;
    while (popNext(ev)) {
        // Once every request is terminal the failure process only
        // matters inside the availability window; past it the chain
        // stops regenerating and the heap drains.
        if (ev.kind >= kEvFail && ev.kind <= kEvUp &&
            unresolved == 0 && ev.t > spec.durationS)
            continue;
        switch (ev.kind) {
          case kEvArrival:
          case kEvRetry:
            // A retried request the deadline already reaped stays
            // finished; its pending retry is void.
            if (state[ev.payload] == RState::Backoff)
                admit(ev.payload, ev.t);
            break;
          case kEvCompletion:
            finalizeLeg(ev.payload / 2, int(ev.payload % 2));
            // Completions free no capacity (the initiation interval
            // does, via server-ready), so no dispatch attempt here.
            continue;
          case kEvFail: {
            Server &s = servers[ev.payload];
            ++s.stats.failures;
            ++rep.failureEvents;
            ++s.failCount;
            const bool slow =
                s.rng.uniform() < spec.failures.degradedFraction;
            const Seconds repair =
                spec.failures.mttrS > 0.0
                    ? exponential(s.rng, 1.0 / spec.failures.mttrS)
                    : 0.0;
            if (slow) {
                s.health = Health::Degraded;
                events.push(
                    Ev{ev.t + repair, kEvUp, seq++, ev.payload});
            } else {
                s.health = Health::Down;
                s.healthLog.push_back({ev.t, false});
                failStop(ev.payload, ev.t);
                events.push(
                    Ev{ev.t + repair, kEvRepair, seq++, ev.payload});
            }
            break;
          }
          case kEvRepair: {
            Server &s = servers[ev.payload];
            s.health = Health::Recovering;
            events.push(Ev{ev.t + spec.failures.recoveryS, kEvUp,
                           seq++, ev.payload});
            break;
          }
          case kEvUp: {
            Server &s = servers[ev.payload];
            if (s.health != Health::Degraded) {
                // Back from a fail-stop: fresh pipeline.
                s.healthLog.push_back({ev.t, true});
                s.readyAtS = ev.t;
            }
            s.health = Health::Up;
            const double scale =
                std::pow(spec.failures.aging, double(s.failCount));
            const Seconds ttf = exponential(
                s.rng, 1.0 / (spec.failures.mtbfS * scale));
            events.push(Ev{ev.t + ttf, kEvFail, seq++, ev.payload});
            break;
          }
          case kEvDeadline: {
            const std::uint64_t id = ev.payload;
            if (state[id] == RState::Queued) {
                auto &q = queues[std::size_t(
                    rep.requests[id].stream)];
                q.erase(std::find(q.begin(), q.end(), id));
                advanceDepth(ev.t);
                --waiting;
                noteDepth(ev.t);
                finish(id, RequestOutcome::Timeout);
            } else if (state[id] == RState::Backoff) {
                finish(id, RequestOutcome::Timeout);
            }
            // InFlight requests are judged at completion; Done ones
            // are already settled.
            break;
          }
          default:
            break; // server-ready / timeout: dispatch attempt only
        }
        tryDispatch(ev.t);
    }
    for (const auto &q : queues)
        inca_assert(q.empty(), "simulation ended with queued work");
    inca_assert(unresolved == 0,
                "simulation ended with unresolved requests");

    // ---- Roll-ups. -----------------------------------------------
    std::vector<double> latencies;
    latencies.reserve(rep.requests.size());
    double latencySum = 0.0, waitSum = 0.0;
    for (const RequestRecord &r : rep.requests) {
        ++rep.streamStats[std::size_t(r.stream)].offered;
        if (r.outcome != RequestOutcome::Ok)
            continue;
        ++rep.completed;
        ++rep.streamStats[std::size_t(r.stream)].completed;
        const double l = r.latencyS();
        latencies.push_back(l);
        latencySum += l;
        waitSum += r.waitS();
        rep.maxLatencyS = std::max(rep.maxLatencyS, l);
        if (spec.sloS > 0.0 && l <= spec.sloS)
            ++rep.withinSlo;
    }
    if (!latencies.empty()) {
        rep.meanLatencyS = latencySum / double(latencies.size());
        rep.meanWaitS = waitSum / double(latencies.size());
        // Nested selections, highest rank first: each leaves exactly
        // the smaller order statistics in front of its rank, so the
        // next one partitions only that prefix. Each value is the one
        // a full sort would put at that rank, at a fraction of the
        // cost of sorting a million latencies.
        auto end = latencies.end();
        const auto select = [&](double q) {
            const auto at =
                latencies.begin() +
                std::ptrdiff_t(nearestRank(latencies.size(), q) - 1);
            std::nth_element(latencies.begin(), at, end);
            end = at + 1;
            return *at;
        };
        rep.p99S = select(99.0);
        rep.p95S = select(95.0);
        rep.p50S = select(50.0);
    }
    if (rep.makespanS > 0.0) {
        rep.throughputRps =
            double(rep.completed) / rep.makespanS;
        rep.goodputRps =
            spec.sloS > 0.0
                ? double(rep.withinSlo) / rep.makespanS
                : rep.throughputRps;
        rep.meanQueueDepth = depthIntegral / rep.makespanS;
    }
    rep.meanBatchSize =
        rep.batches ? batchSizeSum / double(rep.batches) : 0.0;

    // Availability over the offered-traffic window: the measure of
    // [0, durationS] covered by >= 1 accepting server. Per-server
    // logs are clipped to the window first; a log ending "down"
    // stays down through the clip end.
    if (failuresOn) {
        struct Delta
        {
            Seconds t;
            int d;
        };
        std::vector<Delta> deltas;
        for (std::size_t i = 0; i < servers.size(); ++i) {
            Server &s = servers[i];
            Seconds upFrom = 0.0;
            bool up = true;
            Seconds acceptedLen = 0.0;
            for (const auto &tr : s.healthLog) {
                const Seconds t =
                    std::min(tr.first, spec.durationS);
                if (up && !tr.second) {
                    if (t > upFrom) {
                        deltas.push_back({upFrom, +1});
                        deltas.push_back({t, -1});
                        acceptedLen += t - upFrom;
                    }
                    up = false;
                } else if (!up && tr.second) {
                    upFrom = t;
                    up = true;
                }
            }
            if (up && spec.durationS > upFrom) {
                deltas.push_back({upFrom, +1});
                deltas.push_back({spec.durationS, -1});
                acceptedLen += spec.durationS - upFrom;
            }
            s.stats.downS = spec.durationS - acceptedLen;
        }
        std::sort(deltas.begin(), deltas.end(),
                  [](const Delta &a, const Delta &b) {
                      if (a.t != b.t)
                          return a.t < b.t;
                      return a.d < b.d;
                  });
        Seconds covered = 0.0;
        int depth = 0;
        Seconds coverFrom = 0.0;
        for (const Delta &d : deltas) {
            if (depth > 0 && d.t > coverFrom)
                covered += d.t - coverFrom;
            coverFrom = std::max(coverFrom, d.t);
            depth += d.d;
        }
        rep.availability = std::min(
            1.0, std::max(0.0, covered / spec.durationS));
        rep.unavailableS = spec.durationS - covered;
    }

    rep.servers.reserve(servers.size());
    double busySum = 0.0;
    for (const Server &s : servers) {
        ServerStats stats = s.stats;
        stats.utilization = rep.makespanS > 0.0
                                ? stats.busyS / rep.makespanS
                                : 0.0;
        busySum += stats.utilization;
        rep.servers.push_back(stats);
    }
    rep.utilization =
        servers.empty() ? 0.0 : busySum / double(servers.size());
    rep.staticEnergyJ = model.idlePowerPerServer() *
                        double(spec.replicas) * rep.makespanS;
    rep.energyJ = rep.dynamicEnergyJ + rep.staticEnergyJ;
    rep.energyPerRequestJ =
        rep.completed ? rep.energyJ / double(rep.completed) : 0.0;
    return rep;
}

} // namespace serving
} // namespace inca
