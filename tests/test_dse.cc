/**
 * @file
 * Design-space exploration subsystem tests: RNG and strategy
 * determinism, space indexing, Pareto dominance, constraint
 * filtering, journal round-trip/resume, thread-count invariance of
 * the frontier, and JSON lint of every machine-readable artifact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/engine.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/pareto.hh"
#include "inca/engine.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"
#include "test_fixtures.hh"

namespace inca {
namespace dse {
namespace {

// ---------------------------------------------------------------
// SplitMix64

TEST(SplitMix64, DeterministicStream)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, SeedsDiverge)
{
    SplitMix64 a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 8; ++i)
        differ = differ || a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(SplitMix64, UniformInUnitInterval)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(SplitMix64, BelowInRange)
{
    SplitMix64 rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(SplitMix64, SplitIsIndependent)
{
    SplitMix64 root(5);
    SplitMix64 child = root.split();
    // The child stream is not a shifted copy of the parent's.
    SplitMix64 rootCopy(5);
    rootCopy.next(); // account for the split() draw
    EXPECT_NE(child.next(), rootCopy.next());
}

// ---------------------------------------------------------------
// SearchSpace

SearchSpace
tinySpace()
{
    SearchSpace space;
    space.axis("plane", {8, 16});
    space.axis("adc_bits", {3, 4, 6});
    return space;
}

TEST(SearchSpace, SizeIsCrossProduct)
{
    EXPECT_EQ(tinySpace().size(), 6u);
}

TEST(SearchSpace, IndexRoundTrip)
{
    const SearchSpace space = tinySpace();
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const Candidate c = space.candidate(i);
        EXPECT_EQ(c.index, i);
        std::vector<std::size_t> valueIndices;
        for (std::size_t a = 0; a < space.numAxes(); ++a) {
            const auto &vals = space.axes()[a].values;
            const auto it = std::find(vals.begin(), vals.end(),
                                      c.values[a]);
            ASSERT_NE(it, vals.end());
            valueIndices.push_back(
                std::size_t(it - vals.begin()));
        }
        EXPECT_EQ(space.flatIndex(valueIndices), i);
    }
}

TEST(SearchSpace, FirstAxisFastest)
{
    const SearchSpace space = tinySpace();
    EXPECT_EQ(space.candidate(0).values,
              (std::vector<std::int64_t>{8, 3}));
    EXPECT_EQ(space.candidate(1).values,
              (std::vector<std::int64_t>{16, 3}));
    EXPECT_EQ(space.candidate(2).values,
              (std::vector<std::int64_t>{8, 4}));
}

TEST(SearchSpace, ValueWithFallback)
{
    const SearchSpace space = tinySpace();
    const Candidate c = space.candidate(3);
    EXPECT_EQ(space.value(c, "plane", -1), 16);
    EXPECT_EQ(space.value(c, "absent", 99), 99);
}

TEST(SearchSpace, NeighborsAreOneStepMoves)
{
    const SearchSpace space = tinySpace();
    // Candidate 0 is (plane=8, adc=3): neighbors are plane+1 step
    // (index 1) and adc+1 step (index 2).
    const auto n0 = space.neighbors(0);
    EXPECT_EQ(n0, (std::vector<std::uint64_t>{1, 2}));
    // Candidate 3 is (16, 4): plane-1 -> 2, adc-1 -> 1, adc+1 -> 5.
    const auto n3 = space.neighbors(3);
    EXPECT_EQ(n3, (std::vector<std::uint64_t>{2, 1, 5}));
}

TEST(SearchSpace, IsoCapacityRescalesTiles)
{
    SearchSpace space;
    space.axis("plane", {8});
    const arch::IncaConfig base = arch::paperInca();
    const arch::IncaConfig cfg = materializeInca(
        space, space.candidate(0), base, /*isoCapacity=*/true);
    EXPECT_EQ(cfg.subarraySize, 8);
    // Hand-check the exact arithmetic design_space historically used.
    arch::IncaConfig manual = base;
    const std::int64_t cellsBefore = manual.totalCells();
    manual.subarraySize = 8;
    const double scale =
        double(cellsBefore) / double(manual.totalCells());
    manual.org.numTiles =
        std::max(1, int(manual.org.numTiles * scale + 0.5));
    EXPECT_EQ(cfg.org.numTiles, manual.org.numTiles);
}

TEST(SearchSpaceDeath, UnknownAxisIsFatal)
{
    SearchSpace space;
    space.axis("no_such_axis", {1});
    EXPECT_DEATH(materializeInca(space, space.candidate(0),
                                 arch::paperInca(), false),
                 "axis");
}

TEST(Space, MaxConvWindowSkipsStemConv)
{
    // ResNet18's 7x7 stem conv goes through the digital input path;
    // the ADC bound is over the 3x3 body -- the paper's "9 > 7".
    EXPECT_EQ(maxConvWindow(nn::resnet18()), 9);
}

// ---------------------------------------------------------------
// Pareto

Evaluation
point(std::uint64_t index, std::vector<double> objectives)
{
    Evaluation e;
    e.candidate.index = index;
    e.feasible = true;
    e.scored = true;
    e.objectives = std::move(objectives);
    return e;
}

TEST(Pareto, DominatesHandCases)
{
    EXPECT_TRUE(dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(dominates({1, 2}, {1, 3}));
    EXPECT_FALSE(dominates({1, 3}, {3, 1})); // incomparable
    EXPECT_FALSE(dominates({1, 1}, {1, 1})); // equal: no strict win
}

TEST(Pareto, InsertEvictsDominated)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(0, {2, 2})));
    EXPECT_TRUE(f.insert(point(1, {1, 3}))); // incomparable
    EXPECT_TRUE(f.insert(point(2, {1, 1}))); // dominates both
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.points()[0].candidate.index, 2u);
    EXPECT_FALSE(f.insert(point(3, {1, 2}))); // dominated
}

TEST(Pareto, EqualVectorsBothKept)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(0, {1, 2})));
    EXPECT_TRUE(f.insert(point(1, {1, 2})));
    EXPECT_EQ(f.size(), 2u);
}

TEST(Pareto, RevisitedCandidateNotDuplicated)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(7, {1, 2})));
    EXPECT_FALSE(f.insert(point(7, {1, 2})));
    EXPECT_EQ(f.size(), 1u);
}

TEST(Pareto, InsertionOrderIndependent)
{
    std::vector<Evaluation> pts = {
        point(0, {5, 1}), point(1, {1, 5}), point(2, {3, 3}),
        point(3, {4, 4}), // dominated by 2
        point(4, {2, 4}),
    };
    std::vector<std::size_t> order = {0, 1, 2, 3, 4};
    std::vector<std::uint64_t> reference;
    do {
        ParetoFrontier f(2);
        for (const std::size_t i : order)
            f.insert(pts[i]);
        std::vector<std::uint64_t> got;
        for (const auto &e : f.sorted())
            got.push_back(e.candidate.index);
        if (reference.empty())
            reference = got;
        EXPECT_EQ(got, reference);
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(reference,
              (std::vector<std::uint64_t>{0, 1, 2, 4}));
}

// ---------------------------------------------------------------
// Constraints

TEST(Constraints, ParseAndPrint)
{
    Constraints c;
    EXPECT_TRUE(c.empty());
    c.set("max_area_mm2=450");
    c.set("lossless_adc=1");
    EXPECT_FALSE(c.empty());
    EXPECT_DOUBLE_EQ(c.maxAreaMm2, 450.0);
    EXPECT_TRUE(c.losslessAdc);
    EXPECT_EQ(c.str(), "max_area_mm2=450,lossless_adc=1");
}

TEST(ConstraintsDeath, UnknownKeyIsFatal)
{
    Constraints c;
    EXPECT_DEATH(c.set("max_teapots=7"), "unknown constraint");
}

TEST(Constraints, RejectionNamesTheBound)
{
    Constraints c;
    c.set("max_area_mm2=1");
    Evaluation e;
    e.areaM2 = 5e-6; // 5 mm^2
    const auto check =
        checkConstraints(c, e, EngineKind::Inca, 4, 9);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("max_area_mm2"), std::string::npos);
    EXPECT_NE(check.reason.find("5"), std::string::npos);
}

TEST(Constraints, LosslessAdcOnlyBindsInca)
{
    Constraints c;
    c.set("lossless_adc=1");
    Evaluation e;
    // 3-bit ADC vs a 3x3 window: 7 < 9 clips under IS...
    EXPECT_FALSE(
        checkConstraints(c, e, EngineKind::Inca, 3, 9).ok);
    // ...but the WS pipeline shift-adds partial sums: no bound.
    EXPECT_TRUE(checkConstraints(c, e, EngineKind::Ws, 3, 9).ok);
    // 4 bits (15 levels) cover the window.
    EXPECT_TRUE(checkConstraints(c, e, EngineKind::Inca, 4, 9).ok);
}

TEST(Objectives, AccuracyProxyMonotoneInBits)
{
    double prev = -1.0;
    for (const int bits : {2, 3, 4, 6, 8}) {
        const double a =
            accuracyProxy(EngineKind::Inca, bits, 9, 0.05);
        EXPECT_GE(a, prev);
        prev = a;
    }
}

TEST(Objectives, AccuracyProxyNoiseHurtsWsMore)
{
    const double ws = accuracyProxy(EngineKind::Ws, 8, 9, 0.05);
    const double is = accuracyProxy(EngineKind::Inca, 8, 9, 0.05);
    EXPECT_LT(ws, is);
    // Calibration sanity: roughly Table VI's shape at sigma 0.05.
    EXPECT_NEAR(is, 0.914, 0.01);
    EXPECT_NEAR(ws, 0.28, 0.01);
}

TEST(Objectives, OrientNegatesMaximized)
{
    Evaluation e;
    e.energyJ = 2.0;
    e.utilization = 0.5;
    orientObjectives(
        e, {Objective::Energy, Objective::Utilization});
    EXPECT_EQ(e.objectives,
              (std::vector<double>{2.0, -0.5}));
}

// ---------------------------------------------------------------
// Strategies

std::vector<std::uint64_t>
drain(Strategy &s, std::size_t batch)
{
    std::vector<std::uint64_t> all;
    while (true) {
        const auto wave = s.nextBatch(batch);
        if (wave.empty())
            break;
        all.insert(all.end(), wave.begin(), wave.end());
        // Grid/Random ignore feedback; keep observe() exercised.
        std::vector<Evaluation> evals;
        for (const std::uint64_t idx : wave)
            evals.push_back(point(idx, {1, 1}));
        s.observe(evals);
    }
    return all;
}

TEST(Strategy, GridCoversInOrder)
{
    const SearchSpace space = tinySpace();
    const auto s =
        makeStrategy(StrategyKind::Grid, space, 1, {});
    const auto all = drain(*s, 4);
    ASSERT_EQ(all.size(), space.size());
    for (std::uint64_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], i);
}

TEST(Strategy, RandomIsAPermutation)
{
    const SearchSpace space = tinySpace();
    const auto s =
        makeStrategy(StrategyKind::Random, space, 3, {});
    const auto all = drain(*s, 4);
    EXPECT_EQ(all.size(), space.size());
    EXPECT_EQ(std::set<std::uint64_t>(all.begin(), all.end()).size(),
              space.size());
    // Seeded: same seed, same order; different seed, likely not.
    const auto s2 =
        makeStrategy(StrategyKind::Random, space, 3, {});
    EXPECT_EQ(drain(*s2, 4), all);
}

TEST(Strategy, AnnealIsDeterministic)
{
    SearchSpace space;
    space.axis("plane", {8, 16, 32, 64});
    space.axis("adc_bits", {3, 4, 6, 8});
    const std::vector<Objective> objs = {Objective::Energy};
    std::vector<std::uint64_t> streams[2];
    for (auto &stream : streams) {
        const auto s =
            makeStrategy(StrategyKind::Anneal, space, 11, objs);
        for (int round = 0; round < 10; ++round) {
            const auto wave = s->nextBatch(8);
            ASSERT_FALSE(wave.empty());
            stream.insert(stream.end(), wave.begin(), wave.end());
            std::vector<Evaluation> evals;
            for (const std::uint64_t idx : wave)
                // Synthetic score: prefer small indices.
                evals.push_back(point(idx, {double(idx) + 1.0}));
            s->observe(evals);
        }
    }
    EXPECT_EQ(streams[0], streams[1]);
    for (const std::uint64_t idx : streams[0])
        EXPECT_LT(idx, space.size());
}

// ---------------------------------------------------------------
// Journal

TEST(Journal, EvalLineRoundTrips)
{
    Evaluation e;
    e.candidate.index = 17;
    e.feasible = false;
    e.scored = true;
    e.rejectedBy = "max_area_mm2 (612.4 > 450)";
    e.areaM2 = 6.124e-4;
    e.idlePowerW = 1.0 / 3.0;
    e.utilization = 0.7;
    e.accuracy = 0.91;
    e.energyJ = 0.0841234567890123456;
    e.latencyS = 3.8e-2;
    e.configKeyHash = 0xdeadbeefcafef00dULL;
    e.timedLatencyS = 2.9e-2;
    e.bottleneckUnit = "array";
    e.criticalShare = 0.99726432101234567;
    e.objectives = {0.0841234567890123456, 3.8e-2};

    const std::string path = testing::tempPath("dse_roundtrip.jsonl");
    JournalHeader header;
    header.signature = "sig";
    header.spaceSize = 42;
    {
        JournalWriter w;
        w.open(path, header, /*append=*/false);
        w.append(e);
    }
    JournalContents contents;
    ASSERT_TRUE(readJournal(path, contents));
    EXPECT_EQ(contents.header.signature, "sig");
    EXPECT_EQ(contents.header.spaceSize, 42u);
    EXPECT_FALSE(contents.truncatedTail);
    ASSERT_EQ(contents.evals.count(17), 1u);
    const Evaluation &r = contents.evals.at(17);
    EXPECT_EQ(r.feasible, e.feasible);
    EXPECT_EQ(r.scored, e.scored);
    EXPECT_EQ(r.rejectedBy, e.rejectedBy);
    // Bit-exact doubles (the %.17g invariant resume depends on).
    EXPECT_EQ(r.areaM2, e.areaM2);
    EXPECT_EQ(r.idlePowerW, e.idlePowerW);
    EXPECT_EQ(r.energyJ, e.energyJ);
    EXPECT_EQ(r.latencyS, e.latencyS);
    EXPECT_EQ(r.configKeyHash, e.configKeyHash);
    EXPECT_EQ(r.timedLatencyS, e.timedLatencyS);
    EXPECT_EQ(r.bottleneckUnit, e.bottleneckUnit);
    EXPECT_EQ(r.criticalShare, e.criticalShare);
    EXPECT_EQ(r.objectives, e.objectives);
    std::remove(path.c_str());
}

TEST(Journal, LinesAreValidJson)
{
    JournalHeader header;
    header.signature = "with \"quotes\" and \\slashes";
    header.spaceSize = 7;
    EXPECT_TRUE(testutil::JsonLint(header.toJsonLine()).valid());

    Evaluation e;
    e.candidate.index = 3;
    e.rejectedBy = "min_accuracy (0.1 < 0.9)";
    e.objectives = {1.5, 2.5, 3.5};
    EXPECT_TRUE(testutil::JsonLint(evalToJsonLine(e)).valid());
}

TEST(Journal, TornTailTolerated)
{
    const std::string path = testing::tempPath("dse_torn.jsonl");
    JournalHeader header;
    header.signature = "sig";
    header.spaceSize = 2;
    {
        JournalWriter w;
        w.open(path, header, false);
        w.append(point(0, {1.0}));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"type\":\"eval\",\"index\":1,\"feasib";
    }
    JournalContents contents;
    ASSERT_TRUE(readJournal(path, contents));
    EXPECT_TRUE(contents.truncatedTail);
    EXPECT_EQ(contents.evals.size(), 1u);
    EXPECT_EQ(contents.evals.count(0), 1u);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileReturnsFalse)
{
    JournalContents contents;
    EXPECT_FALSE(readJournal(
        testing::tempPath("does_not_exist.jsonl"), contents));
}

// ---------------------------------------------------------------
// Explorer end-to-end

SearchSpace
explorerSpace()
{
    SearchSpace space;
    space.axis("plane", {8, 16});
    space.axis("adc_bits", {4, 6});
    return space;
}

ExploreOptions
explorerOptions()
{
    ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = StrategyKind::Grid;
    return opt;
}

TEST(Explorer, FrontierIdenticalAcrossThreadCounts)
{
    std::string reference;
    for (const int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        Explorer explorer(explorerSpace(), explorerOptions());
        const ExploreResult result = explorer.run();
        const std::string csv = frontierCsv(
            explorer.space(), result.frontier,
            explorer.options().objectives);
        if (reference.empty())
            reference = csv;
        EXPECT_EQ(csv, reference) << "at " << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(Explorer, HardConstraintSkipsScoring)
{
    ExploreOptions opt = explorerOptions();
    opt.constraints.set("max_area_mm2=0.000001");
    Explorer explorer(explorerSpace(), opt);
    const ExploreResult result = explorer.run();
    EXPECT_EQ(result.scored, 0u);
    EXPECT_EQ(result.filtered, result.evaluations.size());
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_FALSE(e.feasible);
        EXPECT_FALSE(e.scored);
        EXPECT_NE(e.rejectedBy.find("max_area_mm2"),
                  std::string::npos);
    }
}

TEST(Explorer, SoftConstraintStillScores)
{
    ExploreOptions opt = explorerOptions();
    opt.constraints.set("max_area_mm2=0.000001");
    opt.softConstraints = true;
    Explorer explorer(explorerSpace(), opt);
    const ExploreResult result = explorer.run();
    EXPECT_EQ(result.scored, result.evaluations.size());
    // Infeasible points never join the frontier, soft or not.
    EXPECT_TRUE(result.frontier.empty());
}

TEST(Explorer, BudgetBoundsEvaluations)
{
    ExploreOptions opt = explorerOptions();
    opt.budget = 3;
    Explorer explorer(explorerSpace(), opt);
    EXPECT_EQ(explorer.run().evaluations.size(), 3u);
}

TEST(Explorer, ResumeMatchesUninterrupted)
{
    const std::string full = testing::tempPath("dse_full.jsonl");
    const std::string torn = testing::tempPath("dse_torn_run.jsonl");

    ExploreOptions opt = explorerOptions();
    opt.journalPath = full;
    Explorer uninterrupted(explorerSpace(), opt);
    const ExploreResult want = uninterrupted.run();
    const std::string wantCsv = frontierCsv(
        uninterrupted.space(), want.frontier, opt.objectives);

    // Simulate a kill: keep the header + 2 evals + a torn line.
    {
        std::ifstream in(full);
        std::ofstream out(torn);
        std::string line;
        for (int i = 0; i < 3 && std::getline(in, line); ++i)
            out << line << "\n";
        out << "{\"type\":\"eval\",\"index\":2,\"feas";
    }

    ExploreOptions resumeOpt = explorerOptions();
    resumeOpt.journalPath = torn;
    resumeOpt.resume = true;
    Explorer resumed(explorerSpace(), resumeOpt);
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, 2u);
    EXPECT_EQ(got.scored, want.evaluations.size() - 2);
    EXPECT_EQ(frontierCsv(resumed.space(), got.frontier,
                          resumeOpt.objectives),
              wantCsv);

    // The torn journal is now complete: resuming again re-runs
    // nothing.
    Explorer replayed(explorerSpace(), resumeOpt);
    const ExploreResult replay = replayed.run();
    EXPECT_EQ(replay.scored, 0u);
    EXPECT_EQ(replay.reused, replay.evaluations.size());
    EXPECT_EQ(frontierCsv(replayed.space(), replay.frontier,
                          resumeOpt.objectives),
              wantCsv);

    std::remove(full.c_str());
    std::remove(torn.c_str());
}

TEST(ExplorerDeath, ForeignJournalIsFatal)
{
    const std::string path = testing::tempPath("dse_foreign.jsonl");
    {
        ExploreOptions opt = explorerOptions();
        opt.journalPath = path;
        Explorer explorer(explorerSpace(), opt);
        explorer.run();
    }
    ExploreOptions other = explorerOptions();
    other.journalPath = path;
    other.resume = true;
    other.seed = 999; // different stream -> different signature
    Explorer explorer(explorerSpace(), other);
    EXPECT_DEATH(explorer.run(), "different run");
    std::remove(path.c_str());
}

TEST(ExplorerDeath, AnnealWithoutBudgetIsFatal)
{
    ExploreOptions opt = explorerOptions();
    opt.strategy = StrategyKind::Anneal;
    Explorer explorer(explorerSpace(), opt);
    EXPECT_DEATH(explorer.run(), "budget");
}

TEST(Explorer, AnnealFindsGridOptimumOnTinySpace)
{
    // On an exhaustively searchable space, annealing's frontier must
    // be a subset of the grid frontier (it can miss points, never
    // invent dominated ones).
    ExploreOptions gridOpt = explorerOptions();
    gridOpt.objectives = {Objective::Energy};
    Explorer grid(explorerSpace(), gridOpt);
    const auto gridBest = grid.run().frontier;
    ASSERT_EQ(gridBest.size(), 1u);

    ExploreOptions annealOpt = gridOpt;
    annealOpt.strategy = StrategyKind::Anneal;
    annealOpt.budget = 64; // plenty for a 4-point space
    Explorer anneal(explorerSpace(), annealOpt);
    const auto annealBest = anneal.run().frontier;
    ASSERT_EQ(annealBest.size(), 1u);
    EXPECT_EQ(annealBest[0].candidate.index,
              gridBest[0].candidate.index);
}

TEST(Explorer, RevisitedCandidatesAreEvaluatedOnce)
{
    // A 6-point space (two of its ADC widths clip lenet5's 5x5
    // window, so the hard lossless_adc bound filters them) annealed
    // with a budget ten times its size: most proposals are revisits.
    SearchSpace space;
    space.axis("plane", {8, 16});
    space.axis("adc_bits", {3, 4, 6});
    ExploreOptions opt = explorerOptions();
    opt.strategy = StrategyKind::Anneal;
    opt.budget = 60;
    opt.evalBatch = 8;
    opt.constraints.set("lossless_adc=1");

    metrics::Histogram &evalHist = metrics::histogram("dse.eval_us");
    evalHist.reset();
    Explorer explorer(space, opt);
    const ExploreResult result = explorer.run();
    ASSERT_EQ(result.evaluations.size(), 60u);

    // One engine evaluation per distinct index, not per proposal.
    std::set<std::uint64_t> distinct;
    for (const Evaluation &e : result.evaluations)
        distinct.insert(e.candidate.index);
    ASSERT_LT(distinct.size(), result.evaluations.size());
    EXPECT_EQ(evalHist.count(), distinct.size());

    // Every proposal, revisits included, reports exactly what a
    // fresh evaluation of its index does, in proposal order, and is
    // counted once as scored or filtered.
    std::uint64_t scored = 0, filtered = 0;
    for (const Evaluation &e : result.evaluations) {
        SCOPED_TRACE(e.candidate.index);
        EXPECT_EQ(evalToJsonLine(e),
                  evalToJsonLine(explorer.evaluate(e.candidate.index)));
        ++(e.scored ? scored : filtered);
    }
    EXPECT_EQ(result.scored, scored);
    EXPECT_EQ(result.filtered, filtered);
    EXPECT_GT(filtered, 0u);
    EXPECT_EQ(result.reused, 0u);

    // Resume from a journal cut after 10 proposals: every proposal of
    // a journaled index is a replay (revisits too), the rest are
    // scored or filtered exactly as in the uninterrupted run.
    const std::string full = testing::tempPath("dse_memo_full.jsonl");
    const std::string cut = testing::tempPath("dse_memo_cut.jsonl");
    ExploreOptions journaled = opt;
    journaled.journalPath = full;
    Explorer uninterrupted(space, journaled);
    const ExploreResult want = uninterrupted.run();
    {
        std::ifstream in(full);
        std::ofstream out(cut);
        std::string line;
        for (int i = 0; i < 11 && std::getline(in, line); ++i)
            out << line << "\n";
    }
    std::set<std::uint64_t> kept;
    for (std::size_t i = 0; i < 10; ++i)
        kept.insert(want.evaluations[i].candidate.index);
    std::uint64_t wantReused = 0, wantScored = 0, wantFiltered = 0;
    for (const Evaluation &e : want.evaluations) {
        if (kept.count(e.candidate.index))
            ++wantReused;
        else if (e.scored)
            ++wantScored;
        if (!e.scored)
            ++wantFiltered;
    }

    ExploreOptions resumeOpt = journaled;
    resumeOpt.journalPath = cut;
    resumeOpt.resume = true;
    Explorer resumed(space, resumeOpt);
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, wantReused);
    EXPECT_EQ(got.scored, wantScored);
    EXPECT_EQ(got.filtered, wantFiltered);
    EXPECT_EQ(frontierCsv(space, got.frontier, opt.objectives),
              frontierCsv(space, want.frontier, opt.objectives));

    std::remove(full.c_str());
    std::remove(cut.c_str());
}

/** The engine's own report for a candidate, as the explorer's
 *  options materialise it. */
arch::RunCost
engineRun(const ExploreOptions &opt, const SearchSpace &space,
          const Candidate &cand)
{
    const nn::NetworkDesc net = nn::byName(opt.network);
    const bool training = opt.phase == arch::Phase::Training;
    if (opt.engine == EngineKind::Inca) {
        const arch::IncaConfig cfg = materializeInca(
            space, cand, opt.baseInca, opt.isoCapacity);
        const core::IncaEngine engine(cfg);
        return training ? engine.training(net, cfg.batchSize)
                        : engine.inference(net, cfg.batchSize);
    }
    const arch::BaselineConfig cfg =
        materializeWs(space, cand, opt.baseWs, opt.isoCapacity);
    const baseline::BaselineEngine engine(cfg);
    return training ? engine.training(net, cfg.batchSize)
                    : engine.inference(net, cfg.batchSize);
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::set<std::string>
fileNames(const std::filesystem::path &dir)
{
    std::set<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    return names;
}

TEST(Explorer, ExportFrontierRunsWritesEngineReports)
{
    namespace fs = std::filesystem;
    for (const EngineKind engine : {EngineKind::Inca, EngineKind::Ws}) {
        for (const arch::Phase phase :
             {arch::Phase::Inference, arch::Phase::Training}) {
            const std::string tag =
                std::string(engineKindName(engine)) +
                (phase == arch::Phase::Training ? "_train" : "_infer");
            SCOPED_TRACE(tag);
            const fs::path root = testing::tempPath("dse_export_" + tag);
            fs::remove_all(root);
            const fs::path fresh = root / "fresh";
            const fs::path resumed = root / "resumed";
            fs::create_directories(fresh);
            fs::create_directories(resumed);

            ExploreOptions opt = explorerOptions();
            opt.engine = engine;
            opt.phase = phase;
            opt.journalPath = (root / "journal.jsonl").string();
            Explorer explorer(explorerSpace(), opt);
            const ExploreResult result = explorer.run();
            ASSERT_FALSE(result.frontier.empty());
            exportFrontierRuns(explorer, result,
                               (fresh / "run").string());

            // Exactly one csv/json pair per frontier member, and each
            // CSV is the engine's own report for that config.
            std::set<std::string> want;
            for (const Evaluation &e : result.frontier) {
                const std::string base =
                    "run-" + std::to_string(e.candidate.index);
                want.insert(base + ".csv");
                want.insert(base + ".json");
                EXPECT_EQ(slurp(fresh / (base + ".csv")),
                          sim::toCsv(engineRun(opt, explorer.space(),
                                               e.candidate)));
            }
            EXPECT_EQ(fileNames(fresh), want);

            // Resumed from the full journal every point is a replay,
            // and the export is byte-identical.
            ExploreOptions resumeOpt = opt;
            resumeOpt.resume = true;
            Explorer replayed(explorerSpace(), resumeOpt);
            const ExploreResult replay = replayed.run();
            EXPECT_EQ(replay.scored, 0u);
            EXPECT_EQ(replay.reused, replay.evaluations.size());
            exportFrontierRuns(replayed, replay,
                               (resumed / "run").string());
            EXPECT_EQ(fileNames(resumed), want);
            for (const std::string &name : want)
                EXPECT_EQ(slurp(resumed / name), slurp(fresh / name))
                    << name;
            fs::remove_all(root);
        }
    }
}

TEST(Explorer, FrontierJsonIsValid)
{
    Explorer explorer(explorerSpace(), explorerOptions());
    const ExploreResult result = explorer.run();
    const std::string json = frontierJson(explorer, result);
    EXPECT_TRUE(testutil::JsonLint(json).valid())
        << "error at " << testutil::JsonLint(json).errorPos();
    EXPECT_NE(json.find("\"dse.frontier\""), std::string::npos);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
}

} // namespace
} // namespace dse
} // namespace inca
