/**
 * @file
 * Chaos-layer tests: strict parsers for --failures/--retry, the
 * outcome partition (every request terminal exactly once), retry
 * budget exhaustion, availability bounds and replica monotonicity,
 * Little's law under failures, hedging/failover accounting,
 * byte-identity of failure-enabled runs across threads and cold or
 * warm caches, chaos-off equivalence with the pre-chaos simulator, and
 * the availability/shed DSE bridge with min_availability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/thread_pool.hh"
#include "dse/explorer.hh"
#include "json_lint.hh"
#include "serving/export.hh"
#include "serving/failures.hh"
#include "serving/simulator.hh"

namespace inca {
namespace serving {
namespace {

// ---------------------------------------------------------------
// CLI parsers

TEST(ChaosCli, ParseFailureSpecAcceptsTheGrammar)
{
    const FailureSpec off = parseFailureSpec("--failures", "none");
    EXPECT_FALSE(off.enabled);

    const FailureSpec basic =
        parseFailureSpec("--failures", "200ms:50ms");
    EXPECT_TRUE(basic.enabled);
    EXPECT_DOUBLE_EQ(basic.mtbfS, 0.2);
    EXPECT_DOUBLE_EQ(basic.mttrS, 0.05);
    EXPECT_DOUBLE_EQ(basic.degradedFraction, 0.0);

    const FailureSpec full =
        parseFailureSpec("--failures", "2s:100ms:0.3:8");
    EXPECT_DOUBLE_EQ(full.mtbfS, 2.0);
    EXPECT_DOUBLE_EQ(full.mttrS, 0.1);
    EXPECT_DOUBLE_EQ(full.degradedFraction, 0.3);
    EXPECT_DOUBLE_EQ(full.slowdownFactor, 8.0);
}

TEST(ChaosCli, ParseRetrySpecAcceptsTheGrammar)
{
    const RetryPolicy off = parseRetrySpec("--retry", "none");
    EXPECT_EQ(off.budget, 0);

    const RetryPolicy basic = parseRetrySpec("--retry", "3:1ms");
    EXPECT_EQ(basic.budget, 3);
    EXPECT_DOUBLE_EQ(basic.backoffBaseS, 1e-3);
    EXPECT_DOUBLE_EQ(basic.jitter, 0.5);

    const RetryPolicy full =
        parseRetrySpec("--retry", "5:500us:0.25");
    EXPECT_EQ(full.budget, 5);
    EXPECT_DOUBLE_EQ(full.backoffBaseS, 500e-6);
    EXPECT_DOUBLE_EQ(full.jitter, 0.25);
}

TEST(ChaosCliDeathTest, ParseFailureSpecRejectsMalformedInput)
{
    EXPECT_DEATH(parseFailureSpec("--failures", ""), "empty value");
    EXPECT_DEATH(parseFailureSpec("--failures", "banana"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "1s:2s:0.1:4:x"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "0s:50ms"),
                 "MTBF must be positive");
    EXPECT_DEATH(parseFailureSpec("--failures", "xs:50ms"),
                 "not a duration");
    EXPECT_DEATH(parseFailureSpec("--failures", "-1ms:50ms"),
                 "non-negative");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50"),
                 "needs a unit suffix");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50ms:1.5"),
                 "degraded fraction");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50ms:0.3:0.5"),
                 "slowdown factor");
}

TEST(ChaosCliDeathTest, ParseRetrySpecRejectsMalformedInput)
{
    EXPECT_DEATH(parseRetrySpec("--retry", ""), "empty value");
    EXPECT_DEATH(parseRetrySpec("--retry", "3"),
                 "is not budget:backoff");
    EXPECT_DEATH(parseRetrySpec("--retry", "1:2ms:0.5:zzz"),
                 "is not budget:backoff");
    EXPECT_DEATH(parseRetrySpec("--retry", "-1:1ms"),
                 "non-negative");
    EXPECT_DEATH(parseRetrySpec("--retry", "x:1ms"),
                 "not an integer");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:0"),
                 "backoff base must be positive");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:1ms:2"), "jitter");
}

TEST(ChaosCli, FailureSpecFromEnduranceDerivesTheMtbf)
{
    arch::EnduranceReport er;
    er.iterationsToWearOut = 1e6;
    const FailureSpec spec =
        failureSpecFromEndurance(er, 1e3, 0.05, 9);
    EXPECT_TRUE(spec.enabled);
    EXPECT_DOUBLE_EQ(spec.mtbfS, 1e3); // 1e6 iters / 1e3 per s
    EXPECT_DOUBLE_EQ(spec.mttrS, 0.05);
    EXPECT_DOUBLE_EQ(spec.aging, 0.9);
    EXPECT_EQ(spec.seed, 9u);
}

// ---------------------------------------------------------------
// Spec validation

ServingSpec
chaosSpec()
{
    ServingSpec spec;
    spec.streams = {StreamSpec{"lenet5", 1.0, 0}};
    spec.arrivals.kind = ArrivalKind::Poisson;
    spec.arrivals.ratePerS = 3000.0;
    spec.arrivals.seed = 17;
    spec.durationS = 0.2;
    spec.replicas = 2;
    spec.batch.maxBatch = 4;
    spec.batch.timeoutS = 1e-3;
    spec.sloS = 5e-3;
    spec.failures.enabled = true;
    spec.failures.mtbfS = 0.05;
    spec.failures.mttrS = 0.01;
    spec.failures.seed = 5;
    return spec;
}

TEST(ChaosSpecDeathTest, SimulateRejectsMalformedChaosFields)
{
    ServingSpec bad = chaosSpec();
    bad.failures.aging = 0.0;
    EXPECT_DEATH(simulate(bad), "aging factor");
    bad = chaosSpec();
    bad.retry.jitter = 2.0;
    EXPECT_DEATH(simulate(bad), "retry jitter");
    bad = chaosSpec();
    bad.deadlineS = -1.0;
    EXPECT_DEATH(simulate(bad), "deadline must be non-negative");
    bad = chaosSpec();
    bad.failures.slowdownFactor = 0.5;
    EXPECT_DEATH(simulate(bad), "slowdown factor");
}

// ---------------------------------------------------------------
// Chaos-off equivalence

TEST(ChaosOff, ExplicitNoneSpecMatchesTheDefaultByteForByte)
{
    ServingSpec plain = chaosSpec();
    plain.failures = FailureSpec{};
    const ServingReport ref = simulate(plain);

    ServingSpec off = plain;
    off.failures = parseFailureSpec("--failures", "none");
    off.retry = parseRetrySpec("--retry", "none");
    off.queueCap = 0;
    off.deadlineS = 0.0;
    EXPECT_FALSE(chaosEnabled(off));
    const ServingReport rep = simulate(off);

    EXPECT_EQ(reportText(rep), reportText(ref));
    EXPECT_EQ(reportJson(rep), reportJson(ref));
    EXPECT_EQ(requestsCsv(rep), requestsCsv(ref));
    EXPECT_EQ(rep.shed, 0u);
    EXPECT_EQ(rep.completed, rep.offered);
    EXPECT_DOUBLE_EQ(rep.availability, 1.0);
    for (const RequestRecord &r : rep.requests)
        EXPECT_EQ(r.outcome, RequestOutcome::Ok);
}

// ---------------------------------------------------------------
// Outcome accounting

TEST(ChaosOutcomes, EveryRequestIsTerminalExactlyOnce)
{
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 2;
    spec.deadlineS = 10e-3;
    spec.queueCap = 8;
    const ServingReport rep = simulate(spec);
    ASSERT_EQ(rep.requests.size(), rep.offered);

    // The roll-up counters partition the offered requests...
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
              rep.offered);
    // ... and agree with a per-request tally.
    std::uint64_t byOutcome[4] = {0, 0, 0, 0};
    std::uint64_t retries = 0;
    for (const RequestRecord &r : rep.requests) {
        ++byOutcome[int(r.outcome)];
        retries += std::uint64_t(r.retries);
    }
    EXPECT_EQ(byOutcome[int(RequestOutcome::Ok)], rep.completed);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Shed)], rep.shed);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Timeout)], rep.timedOut);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Failed)], rep.failed);
    EXPECT_EQ(retries, rep.retries);

    // Per-stream counters sum to the global ones.
    StreamStats total;
    for (const StreamStats &s : rep.streamStats) {
        total.offered += s.offered;
        total.completed += s.completed;
        total.shed += s.shed;
        total.timedOut += s.timedOut;
        total.failed += s.failed;
        total.retries += s.retries;
        total.failovers += s.failovers;
    }
    EXPECT_EQ(total.offered, rep.offered);
    EXPECT_EQ(total.completed, rep.completed);
    EXPECT_EQ(total.shed, rep.shed);
    EXPECT_EQ(total.timedOut, rep.timedOut);
    EXPECT_EQ(total.failed, rep.failed);
    EXPECT_EQ(total.retries, rep.retries);
    EXPECT_EQ(total.failovers, rep.failovers);
}

TEST(ChaosOutcomes, RetriesExhaustedRequestsAreCountedOnce)
{
    // Dropped in-flight work goes to the client's retry path; a
    // request that still dies must have burned its whole budget, and
    // the failure counter must see it exactly once.
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.002; // fail hard
    spec.failures.mttrS = 0.002;
    spec.failures.dropInFlight = true;
    spec.retry.budget = 1;
    spec.retry.backoffBaseS = 0.5e-3;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failed, 0u);
    std::uint64_t failed = 0;
    for (const RequestRecord &r : rep.requests) {
        EXPECT_LE(r.retries, spec.retry.budget);
        if (r.outcome == RequestOutcome::Failed) {
            ++failed;
            EXPECT_EQ(r.retries, spec.retry.budget)
                << "request " << r.id
                << " gave up with budget left";
        }
    }
    EXPECT_EQ(failed, rep.failed);
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
              rep.offered);
}

TEST(ChaosOutcomes, QueueCapShedsArrivalsBeyondTheBound)
{
    ServingSpec spec = chaosSpec();
    spec.failures = FailureSpec{};
    spec.arrivals.ratePerS = 60000.0; // overload
    spec.queueCap = 2;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.shed, 0u);
    EXPECT_EQ(rep.completed + rep.shed, rep.offered);
    for (const RequestRecord &r : rep.requests) {
        if (r.outcome != RequestOutcome::Shed)
            continue;
        // Shed requests never reached a server.
        EXPECT_EQ(r.server, -1);
        EXPECT_DOUBLE_EQ(r.completionS, 0.0);
    }
    // The cap bounds every stream queue, so the waiting population
    // never exceeds cap x streams (the global overload gate).
    EXPECT_LE(rep.maxQueueDepth,
              spec.queueCap * rep.streamStats.size());
}

TEST(ChaosOutcomes, DeadlineMissesAreTimeouts)
{
    ServingSpec spec = chaosSpec();
    spec.arrivals.ratePerS = 20000.0; // queueing delay
    spec.deadlineS = 0.5e-3;          // under the 1ms batch timeout
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.timedOut, 0u);
    for (const RequestRecord &r : rep.requests) {
        if (r.outcome == RequestOutcome::Ok) {
            EXPECT_LE(r.latencyS(),
                      spec.deadlineS + 1e-12)
                << "request " << r.id << " is late but Ok";
        } else if (r.outcome == RequestOutcome::Timeout &&
                   r.completionS > 0.0) {
            // Served late (reaped-in-queue ones never complete).
            EXPECT_GT(r.latencyS(), spec.deadlineS);
        }
    }
}

// ---------------------------------------------------------------
// Queueing identities

TEST(ChaosQueueing, LittlesLawHoldsUnderFailures)
{
    // The time-weighted depth integral and the per-request queue
    // residencies are independent accountings of the same queues;
    // with no deadline reaping they must agree exactly even while
    // servers die, work fails over, and arrivals are shed (a shed
    // request spends zero time queued on both sides).
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 3;
    spec.queueCap = 16;
    const ServingReport rep = simulate(spec);
    double queuedSum = 0.0;
    for (const RequestRecord &r : rep.requests)
        queuedSum += r.queuedS;
    const double integral = rep.meanQueueDepth * rep.makespanS;
    EXPECT_NEAR(integral, queuedSum,
                1e-9 * std::max(1.0, queuedSum));
}

// ---------------------------------------------------------------
// Failure machinery

TEST(ChaosFailures, AvailabilityIsBoundedAndMonotoneInReplicas)
{
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.03;
    spec.failures.mttrS = 0.02;
    double last = -1.0;
    for (const int replicas : {1, 2, 4, 8}) {
        spec.replicas = replicas;
        const ServingReport rep = simulate(spec);
        EXPECT_GE(rep.availability, 0.0);
        EXPECT_LE(rep.availability, 1.0);
        // Per-server failure streams are independent, so adding a
        // replica only grows the union of accepting time.
        EXPECT_GE(rep.availability, last)
            << "availability shrank at " << replicas << " replicas";
        last = rep.availability;
        EXPECT_NEAR(rep.unavailableS,
                    (1.0 - rep.availability) * spec.durationS,
                    1e-9);
    }
    // One replica with MTBF well under the window must lose time.
    spec.replicas = 1;
    EXPECT_LT(simulate(spec).availability, 1.0);
}

TEST(ChaosFailures, PerServerAccountingSumsToTheRollup)
{
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.02;
    spec.retry.budget = 1;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failureEvents, 0u);
    std::uint64_t failures = 0, killed = 0;
    for (const ServerStats &s : rep.servers) {
        failures += s.failures;
        killed += s.killedBatches;
        EXPECT_GE(s.downS, 0.0);
        EXPECT_LE(s.downS, spec.durationS + 1e-12);
        EXPECT_LE(s.utilization, 1.0 + 1e-9);
    }
    EXPECT_EQ(failures, rep.failureEvents);
    EXPECT_EQ(killed, rep.killedBatches);
}

TEST(ChaosFailures, FailoverRevivesInFlightWork)
{
    // Re-enqueue (the default) instead of dropping: every request
    // still completes -- failovers cost latency, not outcomes.
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.01;
    spec.failures.dropInFlight = false;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failovers, 0u);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.completed, rep.offered);
}

TEST(ChaosFailures, HedgingDuplicatesSlowBatches)
{
    ServingSpec spec = chaosSpec();
    spec.failures = FailureSpec{};
    spec.replicas = 8;
    spec.hedgeDelayS = 0.5e-3; // under the 1ms batch timeout
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.hedges, 0u);
    std::uint64_t flagged = 0;
    for (const RequestRecord &r : rep.requests)
        flagged += r.hedged ? 1 : 0;
    EXPECT_GT(flagged, 0u);
    EXPECT_EQ(rep.completed, rep.offered);
}

// ---------------------------------------------------------------
// Determinism + exports

TEST(ChaosDeterminism, FailureRunBytesIdenticalAcrossThreadsAndCache)
{
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 2;
    spec.deadlineS = 10e-3;
    spec.queueCap = 16;
    spec.hedgeDelayS = 0.5e-3;
    const ServingReport ref = simulate(spec);
    const std::string refText = reportText(ref);
    const std::string refCsv = requestsCsv(ref);
    for (const int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        const ServingReport rep = simulate(spec);
        EXPECT_EQ(reportText(rep), refText)
            << "at " << threads << " threads";
        EXPECT_EQ(requestsCsv(rep), refCsv)
            << "at " << threads << " threads";
    }
    // A cold batch-cost cache and a warm one give the same bytes.
    ThreadPool::setGlobalThreads(4);
    clearAllCaches();
    const ServingReport cold = simulate(spec);
    const ServingReport warm = simulate(spec);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(reportText(warm), reportText(cold));
    EXPECT_EQ(requestsCsv(warm), requestsCsv(cold));
}

TEST(ChaosExports, ChaosRunsExportWellFormedArtifacts)
{
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 1;
    spec.queueCap = 16;
    const ServingReport rep = simulate(spec);
    const std::string json = reportJson(rep);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    EXPECT_NE(json.find("\"chaos\""), std::string::npos);
    EXPECT_NE(json.find("\"availability\""), std::string::npos);
    const std::string csv = requestsCsv(rep);
    EXPECT_NE(csv.find(",outcome,retries,hedged,queued_s"),
              std::string::npos);
    EXPECT_EQ(std::size_t(std::count(csv.begin(), csv.end(), '\n')),
              rep.requests.size() + 1);
    const std::string text = reportText(rep);
    EXPECT_NE(text.find("availability"), std::string::npos);
}

// ---------------------------------------------------------------
// DSE bridge

dse::ExploreOptions
chaosExploreOptions()
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = dse::StrategyKind::Grid;
    opt.objectives = {dse::Objective::Availability,
                      dse::Objective::EnergyPerRequest};
    opt.serving.arrivals.ratePerS = 20000.0;
    opt.serving.arrivals.seed = 17;
    opt.serving.durationS = 0.1;
    opt.serving.batch.maxBatch = 4;
    opt.serving.batch.timeoutS = 1e-3;
    opt.serving.sloS = 5e-3;
    return opt;
}

dse::SearchSpace
chaosExploreSpace()
{
    dse::SearchSpace space;
    space.axis("plane", {16})
        .axis("replicas", {1, 2})
        .axis("failure_mtbf", {0, 20}); // ms; 0 = injection off
    return space;
}

TEST(DseChaos, FailureMtbfIsAServingAxis)
{
    EXPECT_TRUE(dse::isServingAxis("failure_mtbf"));
}

TEST(DseChaos, ExplorerScoresAvailability)
{
    dse::Explorer explorer(chaosExploreSpace(),
                           chaosExploreOptions());
    const dse::ExploreResult result = explorer.run();
    ASSERT_EQ(result.evaluations.size(), 4u);
    const auto &space = explorer.space();
    bool anyLoss = false;
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored);
        EXPECT_GE(e.availability, 0.0);
        EXPECT_LE(e.availability, 1.0);
        // The mtbf=0 arm runs with injection off: perfect nines.
        if (space.value(e.candidate, "failure_mtbf", 0) == 0)
            EXPECT_DOUBLE_EQ(e.availability, 1.0);
        else if (e.availability < 1.0)
            anyLoss = true;
    }
    // The single-replica injected arm must have lost some window.
    EXPECT_TRUE(anyLoss);
    EXPECT_FALSE(result.frontier.empty());
}

TEST(DseChaos, MinAvailabilityConstraintRejectsAfterScoring)
{
    dse::ExploreOptions opt = chaosExploreOptions();
    opt.constraints.set("min_availability=0.999999");
    dse::SearchSpace space;
    space.axis("plane", {16})
        .axis("replicas", {1})
        .axis("failure_mtbf", {1}); // 1ms MTBF: hopeless
    dse::Explorer explorer(space, opt);
    const dse::ExploreResult result = explorer.run();
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored); // post-scoring bound, not a filter
        EXPECT_FALSE(e.feasible);
        EXPECT_NE(e.rejectedBy.find("min_availability"),
                  std::string::npos);
    }
}

TEST(DseChaos, ChaosSignatureOnlyWhenChaosIsActive)
{
    // A chaos axis (or scenario) stamps the journal signature; a
    // plain serving exploration keeps the pre-chaos signature so old
    // journals stay replayable.
    dse::ExploreOptions opt = chaosExploreOptions();
    dse::SearchSpace plain;
    plain.axis("plane", {16}).axis("replicas", {1, 2});
    dse::Explorer off(plain, opt);
    EXPECT_EQ(off.signature().find("chaos="), std::string::npos);
    dse::Explorer on(chaosExploreSpace(), opt);
    EXPECT_NE(on.signature().find("chaos="), std::string::npos);
}

TEST(DseChaos, FrontierExportsCarryChaosColumns)
{
    dse::Explorer explorer(chaosExploreSpace(),
                           chaosExploreOptions());
    const dse::ExploreResult result = explorer.run();
    const std::string csv =
        dse::frontierCsv(explorer.space(), result.frontier,
                         explorer.options().objectives);
    EXPECT_NE(csv.find("availability,shed_fraction"),
              std::string::npos);
    const std::string json = dse::frontierJson(explorer, result);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    EXPECT_NE(json.find("\"availability\""), std::string::npos);
}

} // namespace
} // namespace serving
} // namespace inca
