/**
 * @file
 * Wear-aware fault-campaign driver on top of src/reliability.
 *
 * Sweeps raw stuck-cell rates (accuracy-vs-BER) and training
 * lifetimes (accuracy-vs-wear) for INCA and the WS baseline, with
 * write-verify retry and spare-line remapping, and prints accuracy,
 * residual error, spare usage, and the mitigation's energy/latency
 * surcharge per point. The output is bit-identical at any thread
 * count.
 *
 *   $ ./build/examples/fault_campaign --network resnet18 \
 *       --trials 16 --retries 2 --spare-rows 4 --spare-cols 2 \
 *       --bers 1e-4,1e-3,1e-2 --lifetimes 1e3,1e5,1e7 \
 *       --csv campaign.csv --json campaign.json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "examples/cli.hh"
#include "reliability/campaign.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --network <name>     model-zoo network (default "
        "resnet18)\n"
        "  --phase inference|training\n"
        "  --engine inca|ws|both  engines to sweep (default both)\n"
        "  --trials <n>         Monte-Carlo trials per point\n"
        "  --seed <n>           fault-map RNG seed\n"
        "  --retries <n>        write-verify retry budget\n"
        "  --spare-rows <n>     spare rows per array\n"
        "  --spare-cols <n>     spare columns per array\n"
        "  --bers v1,v2,...     raw BER sweep points ('none' skips "
        "this sweep)\n"
        "  --lifetimes v1,...   training-iteration sweep points "
        "('none' skips)\n"
        "  --sigma <x>          baseline device-noise sigma\n"
        "  --csv <path>         write the campaign CSV\n"
        "  --json <path>        write the campaign JSON report\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    reliability::CampaignOptions opt;
    std::string csvPath, jsonPath;

    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--network") == 0) {
            opt.network = value(i);
        } else if (std::strcmp(a, "--phase") == 0) {
            const std::string p = value(i);
            if (p == "inference")
                opt.phase = arch::Phase::Inference;
            else if (p == "training")
                opt.phase = arch::Phase::Training;
            else
                fatal("unknown phase '%s'", p.c_str());
        } else if (std::strcmp(a, "--engine") == 0) {
            const std::string e = value(i);
            if (e == "inca") {
                opt.runInca = true;
                opt.runWs = false;
            } else if (e == "ws") {
                opt.runInca = false;
                opt.runWs = true;
            } else if (e == "both") {
                opt.runInca = opt.runWs = true;
            } else {
                fatal("--engine must be inca, ws, or both, got '%s'",
                      e.c_str());
            }
        } else if (std::strcmp(a, "--trials") == 0) {
            opt.trials = int(cli::parsePositive(a, value(i)));
        } else if (std::strcmp(a, "--seed") == 0) {
            opt.fault.seed = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--retries") == 0) {
            opt.mitigation.writeVerifyRetries =
                int(cli::parseInt(a, value(i)));
        } else if (std::strcmp(a, "--spare-rows") == 0) {
            opt.mitigation.spareRows =
                int(cli::parseInt(a, value(i)));
        } else if (std::strcmp(a, "--spare-cols") == 0) {
            opt.mitigation.spareCols =
                int(cli::parseInt(a, value(i)));
        } else if (std::strcmp(a, "--bers") == 0) {
            const char *v = value(i);
            opt.bers = std::strcmp(v, "none") == 0
                           ? std::vector<double>{}
                           : cli::parseDoubleList(a, v);
        } else if (std::strcmp(a, "--lifetimes") == 0) {
            const char *v = value(i);
            opt.lifetimes = std::strcmp(v, "none") == 0
                                ? std::vector<double>{}
                                : cli::parseDoubleList(a, v);
        } else if (std::strcmp(a, "--sigma") == 0) {
            opt.noiseSigma = cli::parseDouble(a, value(i));
        } else if (std::strcmp(a, "--csv") == 0) {
            csvPath = value(i);
        } else if (std::strcmp(a, "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown flag '%s'", a);
        }
    }

    std::printf("fault campaign: %s/%s, %d trials/point, "
                "retries %d, spares %d+%d\n\n",
                opt.network.c_str(),
                opt.phase == arch::Phase::Training ? "training"
                                                   : "inference",
                opt.trials, opt.mitigation.writeVerifyRetries,
                opt.mitigation.spareRows, opt.mitigation.spareCols);

    reliability::CampaignResult result;
    {
        sim::ScopedPhaseTimer timer("campaign");
        result = reliability::runCampaign(opt);
    }

    for (const auto &curve : result.curves) {
        std::printf("%s:\n", curve.engine.c_str());
        TextTable t({"sweep", "x", "accuracy", "ideal", "resid BER",
                     "spares", "exhausted", "E overhead",
                     "t overhead"});
        for (const auto &p : curve.points) {
            const double eOver =
                p.idealEnergyJ > 0.0
                    ? 100.0 * (p.energyJ / p.idealEnergyJ - 1.0)
                    : 0.0;
            const double tOver =
                p.idealLatencyS > 0.0
                    ? 100.0 * (p.latencyS / p.idealLatencyS - 1.0)
                    : 0.0;
            char x[32];
            std::snprintf(x, sizeof(x), "%g", p.x);
            char resid[32];
            std::snprintf(resid, sizeof(resid), "%.3g",
                          p.residualBer);
            t.addRow({p.sweep, x,
                      TextTable::num(100.0 * p.accuracy, 1) + " %",
                      TextTable::num(100.0 * p.idealAccuracy, 1) +
                          " %",
                      resid,
                      TextTable::num(p.meanSpareRowsUsed, 1) + "+" +
                          TextTable::num(p.meanSpareColsUsed, 1),
                      TextTable::num(100.0 * p.exhaustedFraction, 0) +
                          " %",
                      TextTable::num(eOver, 2) + " %",
                      TextTable::num(tOver, 2) + " %"});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("ran %llu Monte-Carlo trials; accuracy is the "
                "Table VI-calibrated proxy at the residual "
                "(post-mitigation) fault rate.\n",
                static_cast<unsigned long long>(result.trialsRun));

    if (!csvPath.empty())
        sim::writeFile(csvPath, reliability::campaignCsv(result));
    if (!jsonPath.empty())
        sim::writeFile(jsonPath, reliability::campaignJson(result));

    // Timing goes to stderr so stdout stays byte-equal at any
    // thread count.
    sim::printPhaseTimes(stderr);
    return 0;
}
