/**
 * @file
 * Monte-Carlo fault campaigns: accuracy-vs-BER and accuracy-vs-
 * lifetime curves for INCA vs the WS baseline.
 *
 * A campaign evaluates each engine at a set of sweep points. A "ber"
 * point fixes the raw stuck-cell rate directly; a "lifetime" point
 * derives the rates from wear -- training iterations times the
 * engine's writes-per-cell-per-iteration from arch::EnduranceReport,
 * against the device's endurance rating -- which is where the paper's
 * endurance concern (IS rewrites activations constantly, WS barely
 * writes) becomes a measurable accuracy and cost difference.
 *
 * Each point runs seeded Monte-Carlo trials: sample a stuck-cell map
 * on a representative subarray, stream a test pattern through the
 * write-verify + spare-remap pipeline (mitigation.hh), measure the
 * residual bit-error rate, and convert it -- plus wear-scaled
 * conductance drift -- into an equivalent noise sigma for the
 * dse::accuracyProxy substrate (Table VI calibration). Mitigation
 * cost is charged into the engine's RunCost via applyWriteVerify, so
 * every point reports ideal and mitigated energy/latency side by
 * side.
 *
 * Determinism: points fan out across the ThreadPool into pre-sized
 * slots; each trial draws from an independent splitmix64 substream
 * keyed by (seed, engine, point, trial), and all aggregation is a
 * serial reduction in fixed order. Output is bit-identical at any
 * thread count.
 */

#ifndef INCA_RELIABILITY_CAMPAIGN_HH
#define INCA_RELIABILITY_CAMPAIGN_HH

#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/cost.hh"
#include "reliability/fault_model.hh"
#include "reliability/mitigation.hh"

namespace inca {
namespace reliability {

/** Everything that parameterizes a fault campaign. */
struct CampaignOptions
{
    std::string network = "resnet18";
    arch::Phase phase = arch::Phase::Inference;
    bool runInca = true;
    bool runWs = true;

    arch::IncaConfig inca = arch::paperInca();
    arch::BaselineConfig ws = arch::paperBaseline();

    FaultSpec fault;
    MitigationSpec mitigation;

    /** Monte-Carlo trials per sweep point. */
    int trials = 16;

    /** Raw stuck-cell rates for the accuracy-vs-BER curve. */
    std::vector<double> bers = {1e-4, 1e-3, 1e-2};
    /** Training iterations for the accuracy-vs-lifetime curve. */
    std::vector<double> lifetimes = {1e3, 1e5, 1e7};

    /** Baseline device-noise sigma added on top of fault effects. */
    double noiseSigma = 0.0;
};

/** One evaluated sweep point of one engine. */
struct CampaignPoint
{
    /** "ber" or "lifetime". */
    std::string sweep;
    /** Raw BER, or training iterations, depending on the sweep. */
    double x = 0.0;

    double writesPerCell = 0.0;
    double wear = 0.0;
    double hardBer = 0.0;    ///< raw stuck-cell rate at this point
    double softBer = 0.0;    ///< raw per-pulse write-variation rate
    double driftSigma = 0.0; ///< wear-scaled conductance drift

    double residualBer = 0.0; ///< mean post-mitigation bit errors
    double faultSigma = 0.0;  ///< residual faults as noise sigma
    double accuracy = 0.0;    ///< mean accuracy proxy across trials
    double accuracyMin = 0.0;
    double accuracyMax = 0.0;
    double idealAccuracy = 0.0; ///< fault-free reference

    double meanSpareRowsUsed = 0.0;
    double meanSpareColsUsed = 0.0;
    /** Fraction of trials that exhausted the spares. */
    double exhaustedFraction = 0.0;
    /** Measured mean write pulses per logical write. */
    double pulsesPerWrite = 0.0;

    double energyJ = 0.0;      ///< with mitigation cost charged
    double latencyS = 0.0;     ///< with mitigation cost charged
    double idealEnergyJ = 0.0; ///< engine run, no mitigation
    double idealLatencyS = 0.0;
};

/** One engine's curve over every sweep point. */
struct CampaignCurve
{
    std::string engine; ///< "inca" or "ws"
    std::vector<CampaignPoint> points;
};

/** Outcome of runCampaign(). */
struct CampaignResult
{
    CampaignOptions options;
    std::vector<CampaignCurve> curves;
    std::uint64_t trialsRun = 0;
};

/** Execute a campaign (see the file comment for the guarantees). */
CampaignResult runCampaign(const CampaignOptions &options);

/**
 * Campaign CSV: one row per (engine, point), %.17g numbers -- two
 * byte-identical CSVs mean two bit-identical campaigns.
 */
std::string campaignCsv(const CampaignResult &result);

/**
 * Campaign JSON report with the fault/mitigation parameterization and
 * the same run-provenance manifest the DSE frontier embeds (threads,
 * build, INCA_* env). Strictly lintable.
 */
std::string campaignJson(const CampaignResult &result);

} // namespace reliability
} // namespace inca

#endif // INCA_RELIABILITY_CAMPAIGN_HH
