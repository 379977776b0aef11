/**
 * @file
 * serve_poisson_1m: serve --network lenet5 --rate 100k/s --duration 10s
 * --replicas 4, about a million requests. The timed phase is
 * serving::simulate + reportJson; the event loop, the up-front arrival
 * vector and per-request record retention do almost all the work. The
 * seed is the arrival seed.
 */

#include <cmath>

#include "common/cache.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
#include "serving/export.hh"
#include "serving/simulator.hh"
#include "workload.hh"

namespace perfbench {

namespace {

namespace serving = inca::serving;

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const RunOptions &opt) : seed_(opt.seed) {}

    void
    setup() override
    {
        serving::ServingSpec spec;
        spec.streams = {{"lenet5", 1.0, 0}};
        spec.arrivals.ratePerS = 100e3;
        spec.arrivals.seed = seed_;
        spec.durationS = 10.0;
        spec.replicas = 4;
        net_ = inca::nn::byName(spec.streams[0].network);
        spec_ = spec;
    }

    void
    prepare() override
    {
        rep_ = serving::ServingReport();
        json_ = std::string();
        inca::clearAllCaches();
    }

    void
    run() override
    {
        simulate();
        exportReport();
    }

    Checks
    check() override
    {
        Checks c;
        const serving::ServingReport &r = rep_;
        c.expect(r.completed + r.shed + r.timedOut + r.failed == r.offered,
                 "ok + shed + timeout + failed != offered");
        c.expect(r.completed == r.offered,
                 "chaos-off run completes every request");
        c.expect(r.requests.size() == r.offered,
                 "one request record per offered request");
        c.expect(r.offered > 0 && std::isfinite(r.p99S) && r.p99S > 0.0,
                 "non-empty run with a finite p99");
        // The digest covers every simulated number of the report; the
        // provenance block (threads, build, environment) is host state.
        const std::size_t prov = json_.find("\n  \"provenance\"");
        c.expect(prov != std::string::npos, "report JSON has provenance");
        c.digest = digestHex(json_.substr(0, prov));
        return c;
    }

    double work() const override { return double(rep_.offered); }
    const char *rateName() const override { return "sim_req_per_s"; }
    const char *rateUnit() const override { return "req/s"; }

    TracedWall
    traced(MetricList &m, Checks &checks, double rssGrowthKb) override
    {
        prepare();
        std::size_t arrivals = 0;
        m.set("serving.arrivals_s",
              timed("serving.generateArrivals", [&] {
                  arrivals = serving::generateArrivals(spec_.arrivals,
                                                       spec_.durationS)
                                 .size();
              }));

        // The cost table simulate() builds: one BatchCostModel::cost
        // per batch size, fanned over the pool the same way.
        inca::clearAllCaches();
        const int maxBatch = spec_.batch.maxBatch;
        std::vector<serving::BatchCost> table(
            static_cast<std::size_t>(maxBatch));
        m.set("serving.cost_table_s",
              timed("serving.BatchCostModel::cost", [&] {
                  const serving::BatchCostModel model(spec_.inca,
                                                      spec_.shard);
                  inca::parallel_for_each(maxBatch, 1, [&](std::int64_t i) {
                      table[std::size_t(i)] = model.cost(net_, int(i) + 1);
                  });
              }));

        prepare();
        inca::metrics::resetAll();
        TracedWall tw;
        double simS = 0.0, exportS = 0.0;
        tw.wallS = timed("perfbench.serve", [&] {
            simS = timed("serving.simulate", [&] { simulate(); });
            exportS = timed("serving.reportJson", [&] { exportReport(); });
        });
        tw.attributedS = simS + exportS;
        readRegistry(m);

        const serving::ServingReport &r = rep_;
        const double offered = double(r.offered);
        const double loopS = simS - m.get("serving.arrivals_s") -
                             m.get("serving.cost_table_s");
        m.set("serving.simulate_s", simS);
        m.set("serving.loop_s", loopS);
        m.set("serving.loop_ns_per_req", loopS * 1e9 / offered);
        m.set("serving.export_s", exportS);
        m.set("serving.rss_b_per_req", rssGrowthKb * 1024.0 / offered);
        m.set("serving.offered", offered);
        m.set("serving.batches", double(r.batches));

        // Registry telemetry against the report's exact statistics.
        inca::metrics::Histogram &lat =
            inca::metrics::histogram("serving.latency_us");
        lat.reset();
        serving::publishMetrics(r);
        const std::uint64_t observed = lat.count();
        const std::uint64_t cap = inca::metrics::Histogram::kRetainCap;
        m.set("metrics.latency_dropped",
              double(observed > cap ? observed - cap : 0));
        m.set("metrics.p99_rel_err",
              std::fabs(lat.percentile(99.0) * 1e-6 - r.p99S) / r.p99S);

        checks = check();
        checks.expect(arrivals == r.offered,
                      "generateArrivals size equals offered");

        // ir/event layers over the workload's distinct candidates: every
        // batch size of the cost table.
        inca::clearAllCaches();
        std::vector<IrCandidate> cands;
        for (int b = 1; b <= maxBatch; ++b)
            cands.push_back(IrCandidate{spec_.inca, &net_, b});
        const std::vector<double> makespans = timeIrEvent(cands, m);
        for (std::size_t i = 0; i < cands.size(); ++i)
            checks.expect(makespans[i] == table[i].latencyS,
                          "event makespan equals the batch cost latency");
        return tw;
    }

  private:
    void simulate() { rep_ = serving::simulate(spec_); }

    void exportReport() { json_ = serving::reportJson(rep_); }

    std::uint64_t seed_;
    serving::ServingSpec spec_;
    inca::nn::NetworkDesc net_;

    serving::ServingReport rep_;
    std::string json_;
};

} // namespace

std::unique_ptr<Workload>
makeServePoisson(const RunOptions &opt)
{
    return std::make_unique<ServeWorkload>(opt);
}

} // namespace perfbench
