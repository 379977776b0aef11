#include "reliability/campaign.hh"

#include <cstdio>
#include <sstream>

#include "arch/endurance.hh"
#include "baseline/engine.hh"
#include "common/cache.hh"
#include "common/export_util.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "dse/objectives.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace reliability {

namespace {

std::string
num17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** One (engine, sweep, x) evaluation request. */
struct PointJob
{
    bool isInca = true;
    std::string sweep; ///< "ber" or "lifetime"
    double x = 0.0;
};

/** Mix a trial index into a stream base (splitmix64 finalizer). */
std::uint64_t
mixStream(std::uint64_t base, std::uint64_t t)
{
    std::uint64_t z = base + (t + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

CampaignPoint
evaluatePoint(const CampaignOptions &opt, const PointJob &job,
              const nn::NetworkDesc &net, int maxWindow)
{
    const dse::EngineKind kind =
        job.isInca ? dse::EngineKind::Inca : dse::EngineKind::Ws;
    const int arraySize = job.isInca ? opt.inca.subarraySize
                                     : opt.ws.subarraySize;
    const int adcBits = job.isInca ? opt.inca.adcBits : opt.ws.adcBits;
    const int aBits = job.isInca ? opt.inca.activationBits
                                 : opt.ws.activationBits;
    const circuit::RramDevice &device =
        job.isInca ? opt.inca.device : opt.ws.device;
    const double writeLanes =
        double(job.isInca ? opt.inca.org.totalSubarrays()
                          : opt.ws.org.totalSubarrays());

    CampaignPoint point;
    point.sweep = job.sweep;
    point.x = job.x;

    // Resolve the raw fault rates. A "ber" point pins the stuck rate
    // directly (fresh device otherwise); a "lifetime" point derives
    // everything from wear: iterations x writes-per-cell-per-iteration
    // against the endurance rating.
    FaultSpec spec = opt.fault;
    if (job.sweep == "ber") {
        spec.hardBer0 = job.x;
        point.writesPerCell = 0.0;
    } else {
        const arch::EnduranceReport report =
            job.isInca
                ? arch::incaEndurance(net, opt.inca,
                                      opt.inca.batchSize,
                                      spec.endurance)
                : arch::baselineEndurance(net, opt.ws,
                                          opt.ws.batchSize,
                                          spec.endurance);
        point.writesPerCell =
            report.writesPerCellPerIteration * job.x;
    }
    const FaultModel model(spec, point.writesPerCell);
    point.wear = model.wear();
    point.hardBer = model.stuckRate();
    point.softBer = model.softRate();
    point.driftSigma = model.driftSigma();
    point.idealAccuracy = dse::accuracyProxy(kind, adcBits, maxWindow,
                                             opt.noiseSigma);

    // Stream base: a content hash of the point's identity, so every
    // trial is reproducible regardless of evaluation order.
    CacheKey streamKey;
    streamKey.add(job.isInca ? "inca" : "ws");
    streamKey.add(job.sweep);
    streamKey.add(job.x);
    streamKey.add(spec.seed);
    const std::uint64_t streamBase = streamKey.hash();

    const int trials = std::max(opt.trials, 1);
    const double cells = double(arraySize) * double(arraySize);
    double sumAccuracy = 0.0, sumResidual = 0.0, sumPulses = 0.0;
    double sumSpareRows = 0.0, sumSpareCols = 0.0;
    int exhausted = 0;
    for (int t = 0; t < trials; ++t) {
        RemappedPlane array(arraySize, opt.mitigation);
        const FaultMap map = model.sample(
            arraySize, arraySize, mixStream(streamBase, t));
        applyFaults(map, array.plane());

        Rng dataRng(mixStream(streamBase ^ 0x5ca1ab1e0ddba11ULL, t));
        for (int r = 0; r < arraySize; ++r)
            for (int c = 0; c < arraySize; ++c)
                array.write(r, c, dataRng.below(2) != 0, &dataRng,
                            point.softBer);

        const double residual =
            double(array.residualErrors()) / cells;
        const double sigma = opt.noiseSigma + point.driftSigma +
                             faultNoiseSigma(residual, aBits);
        sumAccuracy +=
            dse::accuracyProxy(kind, adcBits, maxWindow, sigma);
        sumResidual += residual;
        sumPulses += double(array.pulses()) / cells;
        sumSpareRows += double(array.table().usedSpareRows());
        sumSpareCols += double(array.table().usedSpareCols());
        if (array.table().residualFaults() > 0)
            ++exhausted;

        const double accuracy =
            dse::accuracyProxy(kind, adcBits, maxWindow, sigma);
        if (t == 0) {
            point.accuracyMin = accuracy;
            point.accuracyMax = accuracy;
        } else {
            point.accuracyMin = std::min(point.accuracyMin, accuracy);
            point.accuracyMax = std::max(point.accuracyMax, accuracy);
        }
    }
    point.accuracy = sumAccuracy / double(trials);
    point.residualBer = sumResidual / double(trials);
    point.faultSigma = faultNoiseSigma(point.residualBer, aBits);
    point.pulsesPerWrite = sumPulses / double(trials);
    point.meanSpareRowsUsed = sumSpareRows / double(trials);
    point.meanSpareColsUsed = sumSpareCols / double(trials);
    point.exhaustedFraction = double(exhausted) / double(trials);

    // Mitigation cost: charge write-verify pulses into the engine's
    // RunCost.
    arch::RunCost run;
    if (job.isInca) {
        const core::IncaEngine engine(opt.inca);
        run = opt.phase == arch::Phase::Training
                  ? engine.training(net, opt.inca.batchSize)
                  : engine.inference(net, opt.inca.batchSize);
    } else {
        const baseline::BaselineEngine engine(opt.ws);
        run = opt.phase == arch::Phase::Training
                  ? engine.training(net, opt.ws.batchSize)
                  : engine.inference(net, opt.ws.batchSize);
    }
    point.idealEnergyJ = run.energy();
    point.idealLatencyS = run.latency;
    applyWriteVerify(run, opt.mitigation, point.softBer,
                     point.hardBer, device, writeLanes);
    point.energyJ = run.energy();
    point.latencyS = run.latency;
    return point;
}

void
pointJson(std::ostringstream &os, const CampaignPoint &p)
{
    os << "{\"sweep\": \"" << p.sweep << "\", \"x\": " << num17(p.x)
       << ", \"writes_per_cell\": " << num17(p.writesPerCell)
       << ", \"wear\": " << num17(p.wear)
       << ", \"hard_ber\": " << num17(p.hardBer)
       << ", \"soft_ber\": " << num17(p.softBer)
       << ", \"drift_sigma\": " << num17(p.driftSigma)
       << ", \"residual_ber\": " << num17(p.residualBer)
       << ", \"fault_sigma\": " << num17(p.faultSigma)
       << ", \"accuracy\": " << num17(p.accuracy)
       << ", \"accuracy_min\": " << num17(p.accuracyMin)
       << ", \"accuracy_max\": " << num17(p.accuracyMax)
       << ", \"ideal_accuracy\": " << num17(p.idealAccuracy)
       << ", \"spare_rows_used\": " << num17(p.meanSpareRowsUsed)
       << ", \"spare_cols_used\": " << num17(p.meanSpareColsUsed)
       << ", \"exhausted_fraction\": " << num17(p.exhaustedFraction)
       << ", \"pulses_per_write\": " << num17(p.pulsesPerWrite)
       << ", \"energy_j\": " << num17(p.energyJ)
       << ", \"latency_s\": " << num17(p.latencyS)
       << ", \"ideal_energy_j\": " << num17(p.idealEnergyJ)
       << ", \"ideal_latency_s\": " << num17(p.idealLatencyS) << "}";
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &opt)
{
    if (!opt.runInca && !opt.runWs)
        fatal("fault campaign needs at least one engine "
              "(--engine inca, ws, or both)");
    if (opt.trials < 1)
        fatal("fault campaign needs at least one trial per point, "
              "got %d", opt.trials);
    if (opt.bers.empty() && opt.lifetimes.empty())
        fatal("fault campaign needs at least one sweep point "
              "(--bers or --lifetimes)");

    trace::Span campaignSpan("reliability.campaign");
    const nn::NetworkDesc net = nn::byName(opt.network);
    const int maxWindow = dse::maxConvWindow(net);

    // Engine-major, BER-sweep-first job order: this is both the fan-
    // out order and the fixed serial assembly order.
    std::vector<PointJob> jobs;
    for (const bool isInca : {true, false}) {
        if ((isInca && !opt.runInca) || (!isInca && !opt.runWs))
            continue;
        for (const double ber : opt.bers)
            jobs.push_back({isInca, "ber", ber});
        for (const double life : opt.lifetimes)
            jobs.push_back({isInca, "lifetime", life});
    }

    // Fan points across the ThreadPool into pre-sized slots; each
    // slot is a pure function of (options, job), so contents never
    // depend on scheduling.
    std::vector<CampaignPoint> slots(jobs.size());
    auto &trialCtr = metrics::counter("reliability.trials");
    auto &pointCtr = metrics::counter("reliability.points");
    parallel_for_each(
        std::int64_t(jobs.size()), 1, [&](std::int64_t i) {
            const PointJob &job = jobs[std::size_t(i)];
            trace::Span span(trace::spanName(
                "reliability.point ",
                std::string(job.isInca ? "inca " : "ws ") + job.sweep +
                    " " + num17(job.x)));
            slots[std::size_t(i)] = evaluatePoint(opt, job, net, maxWindow);
            pointCtr.inc();
            trialCtr.inc(std::uint64_t(std::max(opt.trials, 1)));
        });

    // Serial reduction in job order.
    CampaignResult result;
    result.options = opt;
    auto &exhaustedCtr =
        metrics::counter("reliability.exhausted_points");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string engine = jobs[i].isInca ? "inca" : "ws";
        if (result.curves.empty() ||
            result.curves.back().engine != engine) {
            result.curves.push_back({engine, {}});
        }
        result.curves.back().points.push_back(slots[i]);
        result.trialsRun += std::uint64_t(std::max(opt.trials, 1));
        if (slots[i].exhaustedFraction > 0.0)
            exhaustedCtr.inc();
    }
    return result;
}

std::string
campaignCsv(const CampaignResult &result)
{
    std::ostringstream os;
    os << "engine,sweep,x,writes_per_cell,wear,hard_ber,soft_ber,"
          "drift_sigma,residual_ber,fault_sigma,accuracy,"
          "accuracy_min,accuracy_max,ideal_accuracy,spare_rows_used,"
          "spare_cols_used,exhausted_fraction,pulses_per_write,"
          "energy_j,latency_s,ideal_energy_j,ideal_latency_s\n";
    for (const CampaignCurve &curve : result.curves) {
        for (const CampaignPoint &p : curve.points) {
            os << curve.engine << "," << p.sweep << "," << num17(p.x)
               << "," << num17(p.writesPerCell) << ","
               << num17(p.wear) << "," << num17(p.hardBer) << ","
               << num17(p.softBer) << "," << num17(p.driftSigma)
               << "," << num17(p.residualBer) << ","
               << num17(p.faultSigma) << "," << num17(p.accuracy)
               << "," << num17(p.accuracyMin) << ","
               << num17(p.accuracyMax) << ","
               << num17(p.idealAccuracy) << ","
               << num17(p.meanSpareRowsUsed) << ","
               << num17(p.meanSpareColsUsed) << ","
               << num17(p.exhaustedFraction) << ","
               << num17(p.pulsesPerWrite) << "," << num17(p.energyJ)
               << "," << num17(p.latencyS) << ","
               << num17(p.idealEnergyJ) << ","
               << num17(p.idealLatencyS) << "\n";
        }
    }
    return os.str();
}

std::string
campaignJson(const CampaignResult &result)
{
    const CampaignOptions &opt = result.options;
    std::ostringstream os;
    os << "{\n";
    os << "  \"kind\": \"reliability.campaign\",\n";
    os << "  \"network\": \"" << jsonEscape(opt.network) << "\",\n";
    os << "  \"phase\": \""
       << (opt.phase == arch::Phase::Training ? "training"
                                              : "inference")
       << "\",\n";
    os << "  \"trials\": " << opt.trials << ",\n";
    os << "  \"noise_sigma\": " << num17(opt.noiseSigma) << ",\n";
    os << "  \"fault\": {\"hard_ber0\": " << num17(opt.fault.hardBer0)
       << ", \"hard_ber_wear\": " << num17(opt.fault.hardBerWear)
       << ", \"soft_ber0\": " << num17(opt.fault.softBer0)
       << ", \"soft_ber_wear\": " << num17(opt.fault.softBerWear)
       << ", \"wear_shape\": " << num17(opt.fault.wearShape)
       << ", \"drift_sigma_wear\": "
       << num17(opt.fault.driftSigmaWear)
       << ", \"endurance\": " << num17(opt.fault.endurance)
       << ", \"seed\": " << opt.fault.seed << "},\n";
    os << "  \"mitigation\": {\"write_verify_retries\": "
       << opt.mitigation.writeVerifyRetries
       << ", \"spare_rows\": " << opt.mitigation.spareRows
       << ", \"spare_cols\": " << opt.mitigation.spareCols << "},\n";
    os << "  \"trials_run\": " << result.trialsRun << ",\n";
    // The same run-provenance manifest the DSE frontier embeds.
    os << "  \"provenance\": {\n"
       << provenanceJson("", "    ") << "  },\n";
    os << "  \"curves\": [\n";
    for (std::size_t c = 0; c < result.curves.size(); ++c) {
        const CampaignCurve &curve = result.curves[c];
        os << "    {\"engine\": \"" << curve.engine
           << "\", \"points\": [\n";
        for (std::size_t i = 0; i < curve.points.size(); ++i) {
            os << "      ";
            pointJson(os, curve.points[i]);
            os << (i + 1 < curve.points.size() ? "," : "") << "\n";
        }
        os << "    ]}"
           << (c + 1 < result.curves.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace reliability
} // namespace inca
