/**
 * @file
 * Serving-simulator tests: arrival-process statistics, virtual-time
 * scheduling invariants (Little's law, FIFO within priority),
 * bit-identity of the full report across thread counts and cold or
 * warm caches, p99 scaling with replicas, exact percentiles (simulator
 * and metrics histogram), export digests and a nearest-rank latency
 * oracle over the serving scenario matrix (tests/serving_digest.hh),
 * strict CLI parsers, and the DSE bridge (journal round-trip,
 * max_p99_ms end-to-end).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "examples/cli.hh"
#include "json_lint.hh"
#include "serving/export.hh"
#include "serving/simulator.hh"
#include "serving_digest.hh"

namespace inca {
namespace serving {
namespace {

/** One pinned (case, json, requests csv, timeline csv) digest row. */
struct ServingGolden
{
    const char *name;
    std::uint64_t json;
    std::uint64_t requests;
    std::uint64_t timeline;
};

#include "goldens_serving.inc"

// ---------------------------------------------------------------
// Arrival processes

TEST(Arrivals, PoissonInterarrivalMoments)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.ratePerS = 1000.0;
    spec.seed = 7;
    const std::vector<Seconds> t = generateArrivals(spec, 20.0);
    ASSERT_GT(t.size(), 1000u);
    // Realized rate within 5% of the offered one.
    EXPECT_NEAR(double(t.size()) / 20.0, 1000.0, 50.0);
    // Exponential interarrivals: mean 1/lambda, variance 1/lambda^2.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.size(); ++i)
        gaps.push_back(t[i] - t[i - 1]);
    double mean = 0.0;
    for (const double g : gaps)
        mean += g;
    mean /= double(gaps.size());
    double var = 0.0;
    for (const double g : gaps)
        var += (g - mean) * (g - mean);
    var /= double(gaps.size());
    EXPECT_NEAR(mean, 1e-3, 1e-4);
    EXPECT_NEAR(var, 1e-6, 2e-7);
}

TEST(Arrivals, TracesAreSortedAndSeeded)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 500.0;
        spec.seed = 3;
        const auto a = generateArrivals(spec, 4.0);
        const auto b = generateArrivals(spec, 4.0);
        EXPECT_EQ(a, b) << arrivalKindName(kind);
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
        ASSERT_FALSE(a.empty());
        EXPECT_GE(a.front(), 0.0);
        EXPECT_LT(a.back(), 4.0);
        spec.seed = 4;
        EXPECT_NE(generateArrivals(spec, 4.0), a)
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, BurstyAndDiurnalKeepTheTimeAverageRate)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 800.0;
        spec.seed = 11;
        const auto t = generateArrivals(spec, 30.0);
        EXPECT_NEAR(double(t.size()) / 30.0, 800.0, 80.0)
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, BurstyIsBurstierThanPoisson)
{
    // Dispersion of per-100ms counts: ~1 for Poisson, > 1 when the
    // on/off modulation concentrates arrivals.
    const auto dispersion = [](ArrivalKind kind) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 400.0;
        spec.seed = 5;
        const auto t = generateArrivals(spec, 50.0);
        std::vector<double> counts(500, 0.0);
        for (const Seconds s : t)
            counts[std::min<std::size_t>(std::size_t(s / 0.1),
                                         499)] += 1.0;
        double mean = 0.0;
        for (const double c : counts)
            mean += c;
        mean /= double(counts.size());
        double var = 0.0;
        for (const double c : counts)
            var += (c - mean) * (c - mean);
        var /= double(counts.size());
        return var / mean;
    };
    EXPECT_GT(dispersion(ArrivalKind::Bursty),
              2.0 * dispersion(ArrivalKind::Poisson));
}

// ---------------------------------------------------------------
// Percentiles

TEST(Percentile, ExactNearestRank)
{
    std::vector<double> s;
    for (int i = 1; i <= 100; ++i)
        s.push_back(double(i));
    EXPECT_DOUBLE_EQ(exactPercentile(s, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(exactPercentile({42.0}, 99.0), 42.0);
    EXPECT_DOUBLE_EQ(exactPercentile({}, 99.0), 0.0);
}

TEST(Percentile, HistogramMatchesReference)
{
    auto &h = metrics::histogram("test.serving.percentile");
    h.reset();
    std::vector<double> s;
    for (int i = 0; i < 1000; ++i) {
        const double v = double((i * 37) % 1000);
        s.push_back(v);
        h.observe(v);
    }
    for (const double q : {50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), exactPercentile(s, q));
    EXPECT_FALSE(h.retainedSaturated());
}

TEST(Percentile, HistogramSaturationIsFlagged)
{
    auto &h = metrics::histogram("test.serving.saturation");
    h.reset();
    const std::size_t n = metrics::Histogram::kRetainCap + 10;
    for (std::size_t i = 0; i < n; ++i)
        h.observe(double(i));
    EXPECT_TRUE(h.retainedSaturated());
    EXPECT_EQ(h.retained().size(), metrics::Histogram::kRetainCap);
    h.reset();
    EXPECT_FALSE(h.retainedSaturated());
    EXPECT_TRUE(h.retained().empty());
}

// ---------------------------------------------------------------
// Simulator invariants

ServingSpec
tinySpec()
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
    return spec;
}

TEST(Simulator, ServesEveryRequestExactlyOnce)
{
    const ServingReport rep = simulate(tinySpec());
    EXPECT_EQ(rep.completed, rep.offered);
    EXPECT_EQ(rep.requests.size(), rep.offered);
    std::uint64_t served = 0;
    for (const auto &s : rep.servers)
        served += s.requests;
    EXPECT_EQ(served, rep.offered);
    for (const RequestRecord &r : rep.requests) {
        EXPECT_GE(r.dispatchS, r.arrivalS);
        EXPECT_GT(r.completionS, r.dispatchS);
        EXPECT_GE(r.server, 0);
        EXPECT_GE(r.batchSize, 1);
        EXPECT_LE(r.batchSize, 4);
    }
}

TEST(Simulator, LittlesLawTiesTimelineToPerRequestWaits)
{
    // The time-weighted queue-depth integral and the per-request wait
    // accounting are independent code paths over the same events;
    // Little's law (L = lambda * W) says they must agree exactly.
    const ServingReport rep = simulate(tinySpec());
    const double lambda = double(rep.completed) / rep.makespanS;
    const double expectL = lambda * rep.meanWaitS;
    ASSERT_GT(rep.meanQueueDepth, 0.0);
    EXPECT_NEAR(rep.meanQueueDepth, expectL,
                1e-9 * std::max(1.0, expectL));
}

TEST(Simulator, FifoWithinEachStream)
{
    ServingSpec spec = tinySpec();
    spec.streams = {StreamSpec{"lenet5", 1.0, 0},
                    StreamSpec{"lenet5", 1.0, 1}};
    const ServingReport rep = simulate(spec);
    // Requests of one stream dispatch in arrival (id) order.
    std::vector<const RequestRecord *> byDispatch;
    for (const auto &r : rep.requests)
        byDispatch.push_back(&r);
    std::sort(byDispatch.begin(), byDispatch.end(),
              [](const RequestRecord *a, const RequestRecord *b) {
                  if (a->dispatchS != b->dispatchS)
                      return a->dispatchS < b->dispatchS;
                  return a->id < b->id;
              });
    std::uint64_t lastId[2] = {0, 0};
    bool seen[2] = {false, false};
    for (const RequestRecord *r : byDispatch) {
        const int s = r->stream;
        if (seen[s]) {
            EXPECT_GT(r->id, lastId[s]);
        }
        lastId[s] = r->id;
        seen[s] = true;
    }
    // Completions on one server never move backwards (FIFO pipeline).
    std::vector<Seconds> lastCompletion(rep.servers.size(), 0.0);
    std::vector<Seconds> lastDispatch(rep.servers.size(), -1.0);
    for (const RequestRecord *r : byDispatch) {
        const std::size_t srv = std::size_t(r->server);
        if (r->dispatchS >= lastDispatch[srv]) {
            EXPECT_GE(r->completionS, lastCompletion[srv]);
            lastCompletion[srv] = r->completionS;
            lastDispatch[srv] = r->dispatchS;
        }
    }
}

TEST(Simulator, PriorityStreamWaitsLess)
{
    ServingSpec spec = tinySpec();
    spec.arrivals.ratePerS = 6000.0; // force contention
    spec.streams = {StreamSpec{"lenet5", 1.0, 0},
                    StreamSpec{"lenet5", 1.0, 1}};
    const ServingReport rep = simulate(spec);
    double wait[2] = {0.0, 0.0};
    std::uint64_t n[2] = {0, 0};
    for (const auto &r : rep.requests) {
        wait[r.stream] += r.waitS();
        ++n[r.stream];
    }
    ASSERT_GT(n[0], 0u);
    ASSERT_GT(n[1], 0u);
    EXPECT_LT(wait[0] / double(n[0]), wait[1] / double(n[1]));
}

TEST(Simulator, ReportBytesIdenticalAcrossThreadsAndCache)
{
    const ServingReport ref = simulate(tinySpec());
    const std::string refText = reportText(ref);
    const std::string refCsv = requestsCsv(ref);
    for (const int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        const ServingReport rep = simulate(tinySpec());
        EXPECT_EQ(reportText(rep), refText)
            << "at " << threads << " threads";
        EXPECT_EQ(requestsCsv(rep), refCsv)
            << "at " << threads << " threads";
    }
    // A cold batch-cost cache and a warm one give the same bytes.
    ThreadPool::setGlobalThreads(4);
    clearAllCaches();
    const ServingReport cold = simulate(tinySpec());
    const ServingReport warm = simulate(tinySpec());
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(reportText(warm), reportText(cold));
    EXPECT_EQ(requestsCsv(warm), requestsCsv(cold));
}

TEST(Simulator, P99DropsAsReplicasGrow)
{
    ServingSpec spec = tinySpec();
    spec.arrivals.ratePerS = 600000.0; // overload even 8 servers
    double last = 0.0;
    for (const int replicas : {1, 4, 8}) {
        spec.replicas = replicas;
        const ServingReport rep = simulate(spec);
        if (replicas > 1) {
            EXPECT_LT(rep.p99S, last)
                << "p99 must shrink from " << last << " at "
                << replicas << " replicas";
        }
        last = rep.p99S;
    }
}

TEST(Simulator, ShardingChangesTheCostModelNotTheContract)
{
    ServingSpec spec = tinySpec();
    for (const ShardKind kind :
         {ShardKind::Replica, ShardKind::Pipeline,
          ShardKind::Tensor}) {
        spec.shard.kind = kind;
        spec.shard.chips = kind == ShardKind::Replica ? 1 : 4;
        const ServingReport rep = simulate(spec);
        EXPECT_EQ(rep.completed, rep.offered)
            << shardKindName(kind);
        EXPECT_GT(rep.p99S, 0.0) << shardKindName(kind);
        EXPECT_GT(rep.energyJ, 0.0) << shardKindName(kind);
    }
}

TEST(Simulator, StaticEnergyScalesWithChips)
{
    ServingSpec spec = tinySpec();
    spec.shard.kind = ShardKind::Tensor;
    spec.shard.chips = 1;
    const ServingReport one = simulate(spec);
    spec.shard.chips = 4;
    const ServingReport four = simulate(spec);
    // Four chips leak roughly four servers' worth per second; the
    // makespans differ, so compare idle power, not raw energy.
    EXPECT_NEAR(four.staticEnergyJ / four.makespanS,
                4.0 * one.staticEnergyJ / one.makespanS,
                1e-6 * four.staticEnergyJ / four.makespanS);
}

TEST(Simulator, ExportsAreWellFormed)
{
    const ServingReport rep = simulate(tinySpec());
    const std::string json = reportJson(rep);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    const std::string csv = requestsCsv(rep);
    const std::size_t rows =
        std::size_t(std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, rep.requests.size() + 1);
    const std::string timeline = timelineCsv(rep);
    EXPECT_EQ(std::size_t(std::count(timeline.begin(),
                                     timeline.end(), '\n')),
              rep.queueTimeline.size() + 1);
}

// ---------------------------------------------------------------
// Scenario matrix: pinned exports and an independent latency oracle

TEST(ServingMatrix, ExportDigestsMatchGoldenTable)
{
    const std::vector<ServingDigestCase> cases = servingDigestCases();
    ASSERT_EQ(std::size(kServingGoldens), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const ServingGolden &g = kServingGoldens[i];
        SCOPED_TRACE(cases[i].name);
        ASSERT_EQ(cases[i].name, g.name);
        const ServingDigests d = servingDigests(simulate(cases[i].spec));
        EXPECT_EQ(d.json, g.json);
        EXPECT_EQ(d.requests, g.requests);
        EXPECT_EQ(d.timeline, g.timeline);
    }
}

/** Nearest-rank percentile of ascending @p sorted, for q in (0, 100]. */
double
nearestRank(const std::vector<double> &sorted, double q)
{
    const double n = double(sorted.size());
    std::size_t rank = std::size_t(std::ceil(q / 100.0 * n));
    rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

TEST(ServingMatrix, LatencySummaryMatchesANearestRankOracle)
{
    for (const ServingDigestCase &c : servingDigestCases()) {
        SCOPED_TRACE(c.name);
        const ServingReport rep = simulate(c.spec);
        EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
                  rep.offered);
        std::vector<double> ok;
        double sum = 0.0;
        for (const RequestRecord &r : rep.requests) {
            if (r.outcome != RequestOutcome::Ok)
                continue;
            ok.push_back(r.latencyS());
            sum += r.latencyS();
        }
        ASSERT_EQ(ok.size(), rep.completed);
        if (ok.empty()) {
            EXPECT_EQ(rep.p99S, 0.0);
            continue;
        }
        std::sort(ok.begin(), ok.end());
        EXPECT_EQ(rep.p50S, nearestRank(ok, 50.0));
        EXPECT_EQ(rep.p95S, nearestRank(ok, 95.0));
        EXPECT_EQ(rep.p99S, nearestRank(ok, 99.0));
        EXPECT_EQ(rep.maxLatencyS, ok.back());
        EXPECT_DOUBLE_EQ(rep.meanLatencyS, sum / double(ok.size()));
    }
}

// ---------------------------------------------------------------
// CLI parsers

TEST(Cli, ParseDurationAcceptsUnits)
{
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "500ms"), 0.5);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "2s"), 2.0);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "750us"), 750e-6);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "1e3ns"), 1e-6);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "0"), 0.0);
}

TEST(CliDeathTest, ParseDurationRejectsMalformedInput)
{
    EXPECT_DEATH(cli::parseDuration("--t", "5"), "unit suffix");
    EXPECT_DEATH(cli::parseDuration("--t", "5 s"), "unknown");
    EXPECT_DEATH(cli::parseDuration("--t", "-1ms"), "non-negative");
    EXPECT_DEATH(cli::parseDuration("--t", "5m"), "unknown");
    EXPECT_DEATH(cli::parseDuration("--t", "banana"),
                 "not a duration");
    EXPECT_DEATH(cli::parseDuration("--t", ""), "empty");
}

TEST(Cli, ParseRateAcceptsMultipliers)
{
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "80/s"), 80.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "80"), 80.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "1.5k/s"), 1500.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "2M/s"), 2e6);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "1G/s"), 1e9);
}

TEST(CliDeathTest, ParseRateRejectsMalformedInput)
{
    EXPECT_DEATH(cli::parseRate("--r", "1.5k"), "needs '/s'");
    EXPECT_DEATH(cli::parseRate("--r", "80/min"), "trailing");
    EXPECT_DEATH(cli::parseRate("--r", "-5/s"), "positive");
    EXPECT_DEATH(cli::parseRate("--r", "0/s"), "positive");
    EXPECT_DEATH(cli::parseRate("--r", "fast"), "not a rate");
}

// ---------------------------------------------------------------
// DSE bridge

TEST(DseBridge, JournalRoundTripsServingScalars)
{
    dse::Evaluation e;
    e.candidate.index = 9;
    e.scored = true;
    e.p99LatencyS = 0.0123456789012345678;
    e.goodputRps = 1234.5678901234567;
    e.energyPerRequestJ = 4.2e-3;
    e.objectives = {1.0, -2.0};
    const std::string path = "test_serving_journal.jsonl";
    {
        dse::JournalWriter writer;
        dse::JournalHeader header;
        header.signature = "test";
        header.spaceSize = 10;
        writer.open(path, header, false);
        writer.append(e);
    }
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, contents));
    std::remove(path.c_str());
    ASSERT_EQ(contents.evals.count(9), 1u);
    const dse::Evaluation &back = contents.evals[9];
    EXPECT_EQ(back.p99LatencyS, e.p99LatencyS);
    EXPECT_EQ(back.goodputRps, e.goodputRps);
    EXPECT_EQ(back.energyPerRequestJ, e.energyPerRequestJ);
}

TEST(DseBridge, JournalDefaultsServingScalarsWhenAbsent)
{
    // A pre-serving journal line must parse with zeroed serving
    // scalars, not fail.
    const std::string path = "test_serving_journal_old.jsonl";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs(
            "{\"type\":\"header\",\"version\":1,\"space_size\":2,"
            "\"signature\":\"old\"}\n"
            "{\"type\":\"eval\",\"index\":1,\"feasible\":true,"
            "\"scored\":true,\"rejected_by\":\"\","
            "\"config_key_hash\":7,\"area_m2\":1,\"idle_w\":2,"
            "\"utilization\":0.5,\"accuracy\":0.9,\"energy_j\":3,"
            "\"latency_s\":4,\"objectives\":[3,4]}\n",
            f);
        std::fclose(f);
    }
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, contents));
    std::remove(path.c_str());
    ASSERT_EQ(contents.evals.count(1), 1u);
    EXPECT_EQ(contents.evals[1].p99LatencyS, 0.0);
    EXPECT_EQ(contents.evals[1].goodputRps, 0.0);
    EXPECT_EQ(contents.evals[1].energyPerRequestJ, 0.0);
}

dse::ExploreOptions
servingExploreOptions()
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = dse::StrategyKind::Grid;
    opt.objectives = {dse::Objective::Energy,
                      dse::Objective::P99Latency,
                      dse::Objective::Goodput};
    // Deep overload: p99 is queue-drain-bound, so it depends on the
    // replica count (the monotonicity assertion below).
    opt.serving.arrivals.ratePerS = 200000.0;
    opt.serving.arrivals.seed = 17;
    opt.serving.durationS = 0.1;
    opt.serving.batch.maxBatch = 4;
    opt.serving.batch.timeoutS = 1e-3;
    opt.serving.sloS = 5e-3;
    return opt;
}

dse::SearchSpace
servingExploreSpace()
{
    dse::SearchSpace space;
    space.axis("plane", {16, 32})
        .axis("replicas", {1, 2})
        .axis("serve_batch", {4});
    return space;
}

TEST(DseBridge, ServingAxesAreSkippedByTheChipMaterializers)
{
    EXPECT_TRUE(dse::isServingAxis("replicas"));
    EXPECT_TRUE(dse::isServingAxis("shard_chips"));
    EXPECT_FALSE(dse::isServingAxis("plane"));
    const dse::SearchSpace space = servingExploreSpace();
    const dse::Candidate cand = space.candidate(3);
    const arch::IncaConfig cfg = dse::materializeInca(
        space, cand, arch::paperInca(), false);
    EXPECT_EQ(cfg.subarraySize, 32); // chip axis applied
}

TEST(DseBridge, ExplorerScoresServingObjectives)
{
    dse::Explorer explorer(servingExploreSpace(),
                           servingExploreOptions());
    const dse::ExploreResult result = explorer.run();
    ASSERT_EQ(result.evaluations.size(), 4u);
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored);
        EXPECT_GT(e.p99LatencyS, 0.0);
        EXPECT_GT(e.goodputRps, 0.0);
        EXPECT_GT(e.energyPerRequestJ, 0.0);
        ASSERT_EQ(e.objectives.size(), 3u);
        // Goodput is maximized: oriented value is negated.
        EXPECT_DOUBLE_EQ(e.objectives[2], -e.goodputRps);
    }
    // More replicas at a fixed overload means lower p99.
    const auto &space = explorer.space();
    for (const auto &a : result.evaluations)
        for (const auto &b : result.evaluations)
            if (space.value(a.candidate, "plane", 0) ==
                    space.value(b.candidate, "plane", 0) &&
                space.value(a.candidate, "replicas", 0) <
                    space.value(b.candidate, "replicas", 0)) {
                EXPECT_GT(a.p99LatencyS, b.p99LatencyS);
            }
}

TEST(DseBridge, MaxP99ConstraintRejectsAfterScoring)
{
    dse::ExploreOptions opt = servingExploreOptions();
    opt.constraints.set("max_p99_ms=0.0001"); // impossible SLO
    dse::Explorer explorer(servingExploreSpace(), opt);
    const dse::ExploreResult result = explorer.run();
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored); // post-scoring bound, not a filter
        EXPECT_FALSE(e.feasible);
        EXPECT_NE(e.rejectedBy.find("max_p99_ms"),
                  std::string::npos);
    }
}

TEST(DseBridge, ServingSignatureOnlyWhenServingIsScored)
{
    dse::ExploreOptions plain = servingExploreOptions();
    plain.objectives = {dse::Objective::Energy};
    dse::Explorer off(servingExploreSpace(), plain);
    EXPECT_EQ(off.signature().find("serving="), std::string::npos);
    dse::Explorer on(servingExploreSpace(),
                     servingExploreOptions());
    EXPECT_NE(on.signature().find("serving="), std::string::npos);
}

TEST(DseBridge, FrontierExportsCarryServingColumns)
{
    dse::Explorer explorer(servingExploreSpace(),
                           servingExploreOptions());
    const dse::ExploreResult result = explorer.run();
    const std::string csv =
        dse::frontierCsv(explorer.space(), result.frontier,
                         explorer.options().objectives);
    EXPECT_NE(csv.find("p99_latency_s,goodput_rps,"
                       "energy_per_request_j"),
              std::string::npos);
    const std::string json = dse::frontierJson(explorer, result);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    EXPECT_NE(json.find("\"goodput_rps\""), std::string::npos);
}

} // namespace
} // namespace serving
} // namespace inca
