/**
 * @file
 * The reliability engine: wear -> BER curves, deterministic fault
 * sampling, write-verify retry and spare-line remapping (including
 * ~200 seeded property cases), mitigation cost accounting, campaign
 * determinism across thread counts, and the DSE
 * resilience objective / min_accuracy_at_ber constraint wiring.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/crossbar.hh"
#include "common/env.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "dse/constraints.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/objectives.hh"
#include "inca/engine.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "reliability/campaign.hh"
#include "test_fixtures.hh"

namespace inca {
namespace reliability {
namespace {

// ---------------------------------------------------------------------
// Wear -> BER model
// ---------------------------------------------------------------------

TEST(WearModel, RatesGrowMonotonicallyWithWrites)
{
    FaultSpec spec;
    double lastHard = -1.0, lastSoft = -1.0, lastDrift = -1.0;
    for (const double writes :
         {0.0, 1e6, 1e8, 5e8, 1e9, 2e9, 1e10}) {
        const FaultModel model(spec, writes);
        EXPECT_GE(model.stuckRate(), lastHard);
        EXPECT_GE(model.softRate(), lastSoft);
        EXPECT_GE(model.driftSigma(), lastDrift);
        lastHard = model.stuckRate();
        lastSoft = model.softRate();
        lastDrift = model.driftSigma();
    }
}

TEST(WearModel, FreshDeviceSitsAtBaseRateAndRatesClampAtHalf)
{
    FaultSpec spec;
    const FaultModel fresh(spec, 0.0);
    EXPECT_DOUBLE_EQ(fresh.stuckRate(), spec.hardBer0);
    EXPECT_DOUBLE_EQ(fresh.softRate(), spec.softBer0);
    EXPECT_DOUBLE_EQ(fresh.driftSigma(), 0.0);

    // Far beyond the rating the curve explodes but the probability
    // stays a probability.
    const FaultModel dead(spec, 1e15);
    EXPECT_DOUBLE_EQ(dead.stuckRate(), 0.5);
    EXPECT_DOUBLE_EQ(dead.softRate(), 0.5);
    EXPECT_DOUBLE_EQ(dead.driftSigma(), spec.driftSigmaWear);
}

TEST(WearModel, RetryMathIsMonotone)
{
    // Residual soft error shrinks geometrically with the budget;
    // expected pulses grow with it. 0 retries = the raw rate.
    const double p = 0.05;
    EXPECT_DOUBLE_EQ(residualSoftBer(p, 0), p);
    double lastResidual = 2.0, lastPulses = 0.0;
    for (const int retries : {0, 1, 2, 4, 8}) {
        const double residual = residualSoftBer(p, retries);
        const double pulses = expectedWritePulses(p, retries);
        EXPECT_LT(residual, lastResidual);
        EXPECT_GT(pulses, lastPulses);
        lastResidual = residual;
        lastPulses = pulses;
    }
}

TEST(WearModel, FaultNoiseSigmaBridgesBerToNoise)
{
    EXPECT_DOUBLE_EQ(faultNoiseSigma(0.0, 8), 0.0);
    EXPECT_DOUBLE_EQ(faultNoiseSigma(1e-3, 0), 0.0);
    // More residual errors, more equivalent noise.
    EXPECT_GT(faultNoiseSigma(1e-2, 8), faultNoiseSigma(1e-4, 8));
    // A full-rate residual on 8-bit values is a huge disturbance.
    EXPECT_GT(faultNoiseSigma(0.5, 8), 0.1);
}

// ---------------------------------------------------------------------
// Deterministic fault sampling
// ---------------------------------------------------------------------

TEST(FaultSampling, SameStreamSameMapDifferentStreamDifferentMap)
{
    FaultSpec spec;
    spec.hardBer0 = 0.05; // high enough that maps are non-trivial
    const FaultModel model(spec, 0.0);
    const FaultMap a = model.sample(32, 32, 7);
    const FaultMap b = model.sample(32, 32, 7);
    EXPECT_EQ(a.stuck, b.stuck);
    EXPECT_GT(a.stuckCount, 0);
    const FaultMap c = model.sample(32, 32, 8);
    EXPECT_NE(a.stuck, c.stuck);
}

TEST(FaultSampling, AppliesToBothArrayFlavors)
{
    FaultSpec spec;
    spec.hardBer0 = 0.2;
    const FaultModel model(spec, 0.0);
    const FaultMap map = model.sample(16, 16, 1);
    ASSERT_GT(map.stuckCount, 0);

    core::BitPlane plane(16);
    applyFaults(map, plane);
    EXPECT_EQ(plane.faultCount(), map.stuckCount);

    baseline::WsCrossbar xbar(16, 16);
    applyFaults(map, xbar);
    EXPECT_EQ(xbar.faultCount(), map.stuckCount);
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            if (map.at(r, c) >= 0) {
                EXPECT_EQ(plane.cell(r, c), map.at(r, c) != 0);
                EXPECT_EQ(xbar.cell(r, c), map.at(r, c) != 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// WS crossbar fault semantics (mirrors the BitPlane suite)
// ---------------------------------------------------------------------

TEST(WsCrossbarFaults, StuckCellsIgnoreProgramming)
{
    baseline::WsCrossbar x(8, 8);
    x.injectStuckAt(2, 3, true);
    EXPECT_TRUE(x.cell(2, 3));
    x.program(2, 3, false);
    EXPECT_TRUE(x.cell(2, 3)); // still stuck high
    x.injectStuckAt(4, 4, false);
    x.program(4, 4, true);
    EXPECT_FALSE(x.cell(4, 4)); // stuck low
    EXPECT_EQ(x.faultCount(), 2);
    x.clearFaults();
    EXPECT_EQ(x.faultCount(), 0);
    EXPECT_TRUE(x.cell(4, 4)); // the program survived underneath
}

TEST(WsCrossbarFaults, MatvecSeesFaults)
{
    baseline::WsCrossbar x(4, 4);
    // A stuck-1 cell contributes current whenever its row is driven.
    x.injectStuckAt(0, 1, true);
    std::vector<std::uint8_t> rows = {1, 0, 0, 0};
    const auto out = x.matvecBits(rows, 8);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 1);
    // A stuck-0 cell stops contributing even when programmed high.
    x.program(0, 2, true);
    x.injectStuckAt(0, 2, false);
    EXPECT_EQ(x.matvecBits(rows, 8)[2], 0);
}

TEST(WsCrossbarFaultsDeath, OutOfRangeFaultIsFatal)
{
    baseline::WsCrossbar x(4, 4);
    EXPECT_EXIT(x.injectStuckAt(4, 0, true),
                ::testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(x.injectStuckAt(0, 9, false),
                ::testing::ExitedWithCode(1), "valid rows");
}

// ---------------------------------------------------------------------
// Property tests: remapping and retry (seeded, ~200 cases)
// ---------------------------------------------------------------------

TEST(RemapProperty, ReadsSurviveAnyFaultPatternWithinSpareCapacity)
{
    // 120 seeded cases: any set of stuck cells whose lines fit the
    // spare budget must leave every written bit readable.
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(kDefaultSeed ^ (seed * 0x9e3779b97f4a7c15ULL));
        const int size = 4 + int(rng.below(13)); // 4..16
        MitigationSpec spec;
        spec.writeVerifyRetries = 1 + int(rng.below(3));
        spec.spareRows = int(rng.below(4));
        spec.spareCols = int(rng.below(4));

        RemappedPlane array(size, spec);
        // Inject faults on distinct rows and distinct columns, at
        // most one per spare line, so the greedy row-first policy is
        // guaranteed to cover them all.
        const int faults =
            int(rng.below(std::uint64_t(
                std::min(spec.spareRows + spec.spareCols, size) + 1)));
        for (int f = 0; f < faults; ++f)
            array.plane().injectStuckAt(f, f, rng.below(2) != 0);

        std::vector<std::uint8_t> want(std::size_t(size) *
                                       std::size_t(size));
        for (int r = 0; r < size; ++r) {
            for (int c = 0; c < size; ++c) {
                const bool bit = rng.below(2) != 0;
                want[std::size_t(r) * std::size_t(size) +
                     std::size_t(c)] = bit ? 1 : 0;
                array.write(r, c, bit);
            }
        }
        EXPECT_EQ(array.residualErrors(), 0);
        EXPECT_LE(array.table().usedSpareRows(), spec.spareRows);
        EXPECT_LE(array.table().usedSpareCols(), spec.spareCols);
        EXPECT_EQ(array.table().residualFaults(), 0);
        for (int r = 0; r < size; ++r)
            for (int c = 0; c < size; ++c)
                ASSERT_EQ(array.read(r, c),
                          want[std::size_t(r) * std::size_t(size) +
                               std::size_t(c)] != 0);
    }
}

TEST(RemapProperty, ExhaustedSparesDegradeGracefully)
{
    // More faulty lines than spares: writes must still complete, the
    // overflow surfaces as residual faults, never an abort.
    MitigationSpec spec;
    spec.writeVerifyRetries = 1;
    spec.spareRows = 1;
    spec.spareCols = 1;
    RemappedPlane array(8, spec);
    for (int d = 0; d < 6; ++d)
        array.plane().injectStuckAt(d, d, true);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            array.write(r, c, false);
    EXPECT_EQ(array.table().usedSpareRows(), 1);
    EXPECT_EQ(array.table().usedSpareCols(), 1);
    EXPECT_GT(array.table().residualFaults(), 0);
    EXPECT_GT(array.residualErrors(), 0);
    EXPECT_LE(array.residualErrors(), 4); // the uncovered stuck cells
}

TEST(RetryProperty, PulsesMonotoneInBudgetAndSoftErrorsRetryAway)
{
    // 80 seeded cases: a bigger retry budget never issues fewer
    // pulses for the same write stream, and with verify enabled the
    // soft-error stream leaves no residual on healthy cells.
    for (std::uint64_t seed = 0; seed < 80; ++seed) {
        SCOPED_TRACE(seed);
        const int size = 8;
        const double softBer = 0.2;
        std::uint64_t lastPulses = 0;
        for (const int retries : {1, 3, 12}) {
            MitigationSpec spec;
            spec.writeVerifyRetries = retries;
            RemappedPlane array(size, spec);
            Rng rng(seed + 1);
            for (int r = 0; r < size; ++r)
                for (int c = 0; c < size; ++c)
                    array.write(r, c, rng.below(2) != 0, &rng,
                                softBer);
            EXPECT_GE(array.pulses(),
                      std::uint64_t(size) * std::uint64_t(size));
            // A deeper budget retries at least as often in
            // expectation; with a shared seed the draw sequences
            // differ, so compare against the floor rather than the
            // exact shallow-budget count.
            EXPECT_GE(array.pulses() + std::uint64_t(retries) *
                          std::uint64_t(size) * std::uint64_t(size),
                      lastPulses);
            lastPulses = array.pulses();
            // A shallow budget can exhaust on an unlucky cell (the
            // residual soft BER is p^(R+1), not zero), but at 12
            // retries 0.2^13 ~ 8e-10 -- residual-free in practice.
            if (retries >= 12) {
                EXPECT_EQ(array.residualErrors(), 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mitigation cost accounting
// ---------------------------------------------------------------------

TEST(WriteVerifyCost, ChargesEnergyAndLatencyIntoTheRun)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const nn::NetworkDesc net = nn::lenet5();
    const arch::RunCost ideal = engine.inference(net, 4);

    MitigationSpec spec;
    spec.writeVerifyRetries = 2;
    arch::RunCost run = ideal;
    const WriteVerifyCost cost = applyWriteVerify(
        run, spec, 1e-3, 1e-3, cfg.device,
        double(cfg.org.totalSubarrays()));
    EXPECT_GT(cost.extraEnergy, 0.0);
    EXPECT_GT(cost.extraLatency, 0.0);
    EXPECT_GT(run.energy(), ideal.energy());
    EXPECT_GT(run.latency, ideal.latency);
    // The surcharge is itemized in the stats, not smeared.
    double verifyEnergy = 0.0;
    for (const auto &layer : run.layers)
        verifyEnergy +=
            layer.stats.sumPrefix("energy.reliability");
    EXPECT_DOUBLE_EQ(verifyEnergy, cost.extraEnergy);
}

TEST(WriteVerifyCost, DisabledMitigationIsFree)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const arch::RunCost ideal = engine.inference(nn::lenet5(), 4);
    arch::RunCost run = ideal;
    const WriteVerifyCost cost = applyWriteVerify(
        run, MitigationSpec{}, 1e-3, 1e-3, cfg.device,
        double(cfg.org.totalSubarrays()));
    EXPECT_DOUBLE_EQ(cost.extraEnergy, 0.0);
    EXPECT_DOUBLE_EQ(cost.extraLatency, 0.0);
    EXPECT_DOUBLE_EQ(run.energy(), ideal.energy());
    EXPECT_DOUBLE_EQ(run.latency, ideal.latency);
}

TEST(WriteVerifyCost, CostGrowsWithTheRetryBudget)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const arch::RunCost ideal = engine.inference(nn::lenet5(), 4);
    double lastEnergy = ideal.energy();
    for (const int retries : {1, 2, 4, 8}) {
        MitigationSpec spec;
        spec.writeVerifyRetries = retries;
        arch::RunCost run = ideal;
        applyWriteVerify(run, spec, 5e-2, 1e-2, cfg.device,
                         double(cfg.org.totalSubarrays()));
        EXPECT_GT(run.energy(), lastEnergy);
        lastEnergy = run.energy();
    }
}

// ---------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------

CampaignOptions
smallCampaign()
{
    CampaignOptions opt;
    opt.network = "lenet5";
    opt.trials = 4;
    opt.bers = {1e-4, 1e-2};
    opt.lifetimes = {1e3, 1e8};
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 2;
    opt.mitigation.spareCols = 1;
    return opt;
}

/** Restore the thread count however a test exits. */
class CampaignTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
    }
};

TEST_F(CampaignTest, CsvIsByteIdenticalAtEveryThreadCount)
{
    std::string reference;
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        const CampaignResult result = runCampaign(smallCampaign());
        const std::string csv = campaignCsv(result);
        if (reference.empty())
            reference = csv;
        EXPECT_EQ(csv, reference);
    }
}

TEST_F(CampaignTest, DifferentFaultSpecsNeverAliasInTheCache)
{
    CampaignOptions opt = smallCampaign();
    const std::string a = campaignCsv(runCampaign(opt));
    opt.fault.hardBerWear *= 10.0; // only the wear curve changes
    opt.bers.clear();              // lifetime points see the change
    CampaignOptions ref = smallCampaign();
    ref.bers.clear();
    const std::string b = campaignCsv(runCampaign(opt));
    const std::string c = campaignCsv(runCampaign(ref));
    EXPECT_NE(b, c);
}

TEST_F(CampaignTest, SpareExhaustionDegradesInsteadOfAborting)
{
    CampaignOptions opt = smallCampaign();
    opt.bers = {0.05}; // far beyond what 2+1 spares can cover
    opt.lifetimes.clear();
    opt.runWs = false;
    const CampaignResult result = runCampaign(opt);
    ASSERT_EQ(result.curves.size(), 1u);
    const CampaignPoint &p = result.curves[0].points[0];
    EXPECT_GT(p.exhaustedFraction, 0.0);
    EXPECT_GT(p.residualBer, 0.0);
    EXPECT_LT(p.accuracy, p.idealAccuracy);
    EXPECT_GT(p.accuracy, 0.0); // degraded, not destroyed
}

TEST_F(CampaignTest, MitigationCostShowsUpInEngineNumbers)
{
    const CampaignResult result = runCampaign(smallCampaign());
    bool sawCharge = false;
    for (const auto &curve : result.curves) {
        for (const auto &p : curve.points) {
            EXPECT_GE(p.energyJ, p.idealEnergyJ);
            EXPECT_GE(p.latencyS, p.idealLatencyS);
            if (p.energyJ > p.idealEnergyJ &&
                p.latencyS > p.idealLatencyS)
                sawCharge = true;
        }
    }
    EXPECT_TRUE(sawCharge);
}

TEST_F(CampaignTest, WearMakesLifetimeCurvesDecline)
{
    CampaignOptions opt = smallCampaign();
    opt.bers.clear();
    opt.lifetimes = {1e2, 1e9};
    opt.runWs = false;
    const CampaignResult result = runCampaign(opt);
    const auto &points = result.curves[0].points;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_LT(points[0].wear, points[1].wear);
    EXPECT_LE(points[1].accuracy, points[0].accuracy);
    EXPECT_GE(points[1].hardBer, points[0].hardBer);
}

TEST_F(CampaignTest, JsonIsStrictlyLintable)
{
    const CampaignResult result = runCampaign(smallCampaign());
    const std::string json = campaignJson(result);
    EXPECT_TRUE(testutil::JsonLint(json).valid())
        << "error at " << testutil::JsonLint(json).errorPos();
    // The parameterization is in the report (reproducibility).
    EXPECT_NE(json.find("\"write_verify_retries\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"reliability.campaign\""),
              std::string::npos);
}

TEST_F(CampaignTest, RejectsEmptyCampaignsWithActionableErrors)
{
    CampaignOptions none = smallCampaign();
    none.runInca = none.runWs = false;
    EXPECT_EXIT(runCampaign(none), ::testing::ExitedWithCode(1),
                "at least one engine");
    CampaignOptions zeroTrials = smallCampaign();
    zeroTrials.trials = 0;
    EXPECT_EXIT(runCampaign(zeroTrials),
                ::testing::ExitedWithCode(1), "at least one trial");
    CampaignOptions noPoints = smallCampaign();
    noPoints.bers.clear();
    noPoints.lifetimes.clear();
    EXPECT_EXIT(runCampaign(noPoints), ::testing::ExitedWithCode(1),
                "sweep point");
}

// ---------------------------------------------------------------------
// DSE integration: resilience objective + min_accuracy_at_ber
// ---------------------------------------------------------------------

TEST(ResilienceObjective, NameAndOrientationAreWired)
{
    EXPECT_EQ(dse::objectiveByName("resilience"),
              dse::Objective::Resilience);
    EXPECT_STREQ(dse::objectiveName(dse::Objective::Resilience),
                 "resilience");
    EXPECT_TRUE(dse::objectiveMaximized(dse::Objective::Resilience));
    dse::Evaluation e;
    e.resilience = 0.42;
    EXPECT_DOUBLE_EQ(e.value(dse::Objective::Resilience), 0.42);
}

TEST(ResilienceObjective, ProxyRespondsToBerAndMitigation)
{
    const MitigationSpec none;
    MitigationSpec hardened;
    hardened.writeVerifyRetries = 3;
    hardened.spareRows = 8;
    hardened.spareCols = 4;

    const auto proxy = [&](double ber, const MitigationSpec &m) {
        return dse::resilienceProxy(dse::EngineKind::Inca, 4, 9,
                                    0.05, ber, 8, 128, m);
    };
    // More faults, less accuracy.
    EXPECT_GE(proxy(1e-4, none), proxy(1e-2, none));
    EXPECT_GT(proxy(1e-3, hardened), proxy(1e-3, none));
    // Zero faults reduces to the plain accuracy proxy.
    EXPECT_DOUBLE_EQ(proxy(0.0, none),
                     dse::accuracyProxy(dse::EngineKind::Inca, 4, 9,
                                        0.05));
    // The WS engine's accumulating-noise slope makes it far more
    // fault-sensitive than IS at the same residual rate.
    const double ws = dse::resilienceProxy(
        dse::EngineKind::Ws, 8, 9, 0.05, 1e-2, 8, 128, none);
    const double is = dse::resilienceProxy(
        dse::EngineKind::Inca, 8, 9, 0.05, 1e-2, 8, 128, none);
    EXPECT_LT(ws, is);
}

TEST(ResilienceConstraint, MinAccuracyAtBerParsesAndRejects)
{
    dse::Constraints c;
    EXPECT_TRUE(c.empty());
    c.set("min_accuracy_at_ber=0.5");
    EXPECT_FALSE(c.empty());
    EXPECT_DOUBLE_EQ(c.minAccuracyAtBer, 0.5);
    EXPECT_NE(c.str().find("min_accuracy_at_ber=0.5"),
              std::string::npos);

    dse::Evaluation weak;
    weak.resilience = 0.3;
    const auto check =
        dse::checkConstraints(c, weak, dse::EngineKind::Inca, 4, 9);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("min_accuracy_at_ber"),
              std::string::npos);

    dse::Evaluation strong;
    strong.resilience = 0.8;
    EXPECT_TRUE(dse::checkConstraints(c, strong,
                                      dse::EngineKind::Inca, 4, 9)
                    .ok);
}

TEST(ResilienceExplorer, EndToEndObjectiveAndConstraint)
{
    dse::SearchSpace space;
    space.axis("adc_bits", {3, 4, 6});
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.objectives = {dse::Objective::Energy,
                      dse::Objective::Resilience};
    opt.faultBer = 1e-3;
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 4;
    dse::Explorer explorer(space, opt);
    const dse::ExploreResult result = explorer.run();
    ASSERT_FALSE(result.frontier.empty());
    for (const auto &e : result.frontier) {
        EXPECT_GT(e.resilience, 0.0);
        EXPECT_LE(e.resilience, 1.0);
    }
    // The signature pins the fault parameterization, so a resumed
    // journal can never mix resilience settings.
    EXPECT_NE(explorer.signature().find("ber="), std::string::npos);
    EXPECT_NE(explorer.signature().find("mitigation=retries:2"),
              std::string::npos);

    // A strict floor rejects candidates before scoring.
    dse::ExploreOptions strict = opt;
    strict.constraints.set("min_accuracy_at_ber=0.99");
    dse::Explorer strictExplorer(space, strict);
    const dse::ExploreResult rejected = strictExplorer.run();
    EXPECT_EQ(rejected.frontier.size(), 0u);
    EXPECT_EQ(rejected.filtered, rejected.evaluations.size());
}

TEST(ResilienceJournal, ResilienceSurvivesTheRoundTrip)
{
    dse::Evaluation e;
    e.candidate.index = 3;
    e.feasible = true;
    e.scored = true;
    e.resilience = 0.123456789012345678; // exercises %.17g
    e.accuracy = 0.5;
    e.objectives = {1.0, -0.5};
    const std::string line = dse::evalToJsonLine(e);
    EXPECT_NE(line.find("\"resilience\":"), std::string::npos);
    EXPECT_TRUE(testutil::JsonLint(line).valid());

    const std::string path =
        testing::tempPath("reliability_journal.jsonl");
    dse::JournalHeader header;
    header.signature = "test";
    dse::JournalWriter writer;
    writer.open(path, header, false);
    writer.append(e);
    writer.close();
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, contents));
    ASSERT_EQ(contents.evals.count(3), 1u);
    EXPECT_DOUBLE_EQ(contents.evals[3].resilience, e.resilience);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Environment hygiene
// ---------------------------------------------------------------------

TEST(EnvHygiene, ClassifiesKnownAndUnknownIncaVariables)
{
    const char *clean[] = {"PATH=/bin", "INCA_TRACE=t.json",
                           "INCA_NUM_THREADS=4", nullptr};
    EXPECT_TRUE(unrecognizedEnvVars(clean).empty());

    const char *typos[] = {"INCA_TRACES=t.json", "INCA_THREADS=4",
                           "HOME=/root", "INCA_CACHE=0",
                           "INCA_TRACES=again", nullptr};
    const auto unknown = unrecognizedEnvVars(typos);
    ASSERT_EQ(unknown.size(), 3u); // sorted, deduplicated
    // The evaluation-cache switch is gone; setting it now warns.
    EXPECT_EQ(unknown[0], "INCA_CACHE");
    EXPECT_EQ(unknown[1], "INCA_THREADS");
    EXPECT_EQ(unknown[2], "INCA_TRACES");

    EXPECT_TRUE(unrecognizedEnvVars(nullptr).empty());
}

TEST(EnvHygiene, KnownListCoversEveryDocumentedSwitch)
{
    const auto &known = knownEnvVars();
    for (const char *name : {"INCA_KERNEL_ISA", "INCA_METRICS",
                             "INCA_NUM_THREADS", "INCA_TRACE"}) {
        EXPECT_NE(std::find(known.begin(), known.end(), name),
                  known.end())
            << name;
    }
}

} // namespace
} // namespace reliability
} // namespace inca
