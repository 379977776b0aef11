/**
 * @file
 * dse_anneal_resnet50: explore --network resnet50 --strategy anneal
 * --budget 2000 --objectives energy,latency_timed,area over the default
 * INCA space. The 96-candidate space is far smaller than the budget, so
 * the annealing chains revisit points and the evaluation caches carry
 * most of the work. The seed is the anneal seed.
 */

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/cache.hh"
#include "common/metrics.hh"
#include "dse/explorer.hh"
#include "nn/model_zoo.hh"
#include "workload.hh"

namespace perfbench {

namespace {

namespace dse = inca::dse;

/** Pareto dominance over minimized objective vectors, written out here
 *  so the check does not trust dse::dominates. */
bool
dominates(const std::vector<double> &a, const std::vector<double> &b)
{
    bool strictly = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i])
            return false;
        strictly = strictly || a[i] < b[i];
    }
    return strictly;
}

class DseWorkload : public Workload
{
  public:
    explicit DseWorkload(const RunOptions &opt) : seed_(opt.seed) {}

    void
    setup() override
    {
        options_ = dse::ExploreOptions();
        options_.engine = dse::EngineKind::Inca;
        options_.network = "resnet50";
        options_.strategy = dse::StrategyKind::Anneal;
        options_.seed = seed_;
        options_.budget = 2000;
        options_.objectives =
            dse::objectivesByNames("energy,latency_timed,area");
        space_ = dse::defaultSpace(options_.engine);
        explorer_ = std::make_unique<dse::Explorer>(space_, options_);
        net_ = inca::nn::byName(options_.network);
    }

    void
    prepare() override
    {
        result_ = dse::ExploreResult();
        inca::clearAllCaches();
        explorer_ = std::make_unique<dse::Explorer>(space_, options_);
    }

    void run() override { result_ = explorer_->run(); }

    Checks
    check() override
    {
        Checks c;
        const dse::ExploreResult &r = result_;
        c.expect(r.evaluations.size() == options_.budget &&
                     r.scored == options_.budget,
                 "every budgeted point scored");
        c.expect(!r.frontier.empty(), "non-empty frontier");
        // The frontier is non-dominated, and every scored point is on
        // it or dominated by a member of it.
        for (const dse::Evaluation &a : r.frontier) {
            c.expect(a.feasible && a.scored, "frontier point scored");
            for (const dse::Evaluation &b : r.frontier)
                c.expect(!dominates(a.objectives, b.objectives),
                         "frontier member dominated by another");
        }
        for (const dse::Evaluation &e : r.evaluations) {
            if (!e.scored || !e.feasible)
                continue;
            const bool covered = std::any_of(
                r.frontier.begin(), r.frontier.end(),
                [&](const dse::Evaluation &f) {
                    return f.candidate.index == e.candidate.index ||
                           dominates(f.objectives, e.objectives);
                });
            c.expect(covered, "scored point neither on nor dominated by "
                              "the frontier");
        }
        // The digest covers the frontier export and every evaluation's
        // candidate and objective vector, in proposal order.
        std::string canon =
            dse::frontierCsv(space_, r.frontier, options_.objectives);
        char buf[96];
        for (const dse::Evaluation &e : r.evaluations) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(e.candidate.index));
            canon += buf;
            for (const double v : e.objectives) {
                std::snprintf(buf, sizeof(buf), " %.17g", v);
                canon += buf;
            }
            canon += '\n';
        }
        c.digest = digestHex(canon);
        return c;
    }

    double work() const override { return double(result_.scored); }
    const char *rateName() const override { return "points_per_s"; }
    const char *rateUnit() const override { return "points/s"; }

    TracedWall
    traced(MetricList &m, Checks &checks, double rssGrowthKb) override
    {
        prepare();
        inca::metrics::resetAll();
        TracedWall tw;
        tw.wallS = timed("perfbench.dse", [&] {
            tw.attributedS = timed("dse.Explorer::run", [&] { run(); });
        });
        readRegistry(m);
        const double points = double(result_.scored);
        m.set("dse.explore_s", tw.attributedS);
        m.set("dse.points", points);
        m.set("dse.frontier", double(result_.frontier.size()));
        m.set("dse.rss_kb_per_point", rssGrowthKb / points);
        checks = check();

        // ir/event layers over the distinct candidates the chains
        // scored, each checked against the explorer's own makespan.
        std::set<std::uint64_t> seen;
        std::vector<IrCandidate> cands;
        std::vector<double> expected;
        for (const dse::Evaluation &e : result_.evaluations) {
            if (!e.scored || !seen.insert(e.candidate.index).second)
                continue;
            const inca::arch::IncaConfig cfg = dse::materializeInca(
                space_, e.candidate, options_.baseInca,
                options_.isoCapacity);
            cands.push_back(IrCandidate{cfg, &net_, cfg.batchSize});
            expected.push_back(e.timedLatencyS);
        }
        inca::clearAllCaches();
        const std::vector<double> makespans = timeIrEvent(cands, m);
        for (std::size_t i = 0; i < cands.size(); ++i)
            checks.expect(makespans[i] == expected[i],
                          "event makespan equals the explorer's "
                          "latency_timed");
        return tw;
    }

  private:
    std::uint64_t seed_;
    dse::ExploreOptions options_;
    dse::SearchSpace space_;
    std::unique_ptr<dse::Explorer> explorer_;
    inca::nn::NetworkDesc net_;
    dse::ExploreResult result_;
};

} // namespace

std::unique_ptr<Workload>
makeDseAnneal(const RunOptions &opt)
{
    return std::make_unique<DseWorkload>(opt);
}

} // namespace perfbench
