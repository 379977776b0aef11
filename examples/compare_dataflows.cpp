/**
 * @file
 * The paper's headline experiment as an application: run every
 * evaluation network through the INCA engine, the WS baseline, and
 * the GPU roofline, for inference and training, and print the
 * Fig. 11 / Fig. 14 / Fig. 15 comparison in one table.
 *
 *   $ ./build/examples/compare_dataflows [batch] [--json <path>]
 */

#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "examples/cli.hh"
#include "gpu/gpu_model.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    const std::string jsonPath = bench::extractJsonPath(argc, argv);
    const int batch =
        argc > 1 ? int(cli::parsePositive("[batch]", argv[1])) : 64;
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());
    gpu::GpuModel titan;

    std::printf("INCA vs. WS baseline vs. GPU, batch %d\n\n", batch);

    const auto nets = nn::evaluationSuite();
    for (const auto phase :
         {arch::Phase::Inference, arch::Phase::Training}) {
        const bool training = phase == arch::Phase::Training;
        std::printf("%s:\n", training ? "training" : "inference");
        TextTable t({"network", "INCA E/img", "WS gain", "GPU gain",
                     "INCA t/img", "WS speedup", "GPU speedup"});
        std::vector<sim::Comparison> cmps;
        {
            sim::ScopedPhaseTimer timer(training ? "training suite"
                                                 : "inference suite");
            cmps = sim::compareSuite(inca, base, nets, batch, phase);
        }
        for (std::size_t i = 0; i < nets.size(); ++i) {
            const auto &net = nets[i];
            const auto &cmp = cmps[i];
            const auto g = training ? titan.training(net, batch)
                                    : titan.inference(net, batch);
            t.addRow({net.name,
                      formatSi(cmp.inca.energyPerImage(), "J"),
                      TextTable::ratio(cmp.energyEfficiencyGain()),
                      TextTable::ratio((g.energy / batch) /
                                       cmp.inca.energyPerImage()),
                      formatSi(cmp.inca.latencyPerImage(), "s"),
                      TextTable::ratio(cmp.speedup()),
                      TextTable::ratio(g.latency / cmp.inca.latency)});
            const std::string prefix =
                training ? "training." : "inference.";
            auto &report = bench::JsonReport::instance();
            report.addPoint(prefix + "inca_energy_per_image_j",
                            net.name, cmp.inca.energyPerImage());
            report.addPoint(prefix + "ws_efficiency_gain", net.name,
                            cmp.energyEfficiencyGain());
            report.addPoint(prefix + "inca_latency_per_image_s",
                            net.name, cmp.inca.latencyPerImage());
            report.addPoint(prefix + "ws_speedup", net.name,
                            cmp.speedup());
            report.addPoint(prefix + "gpu_speedup", net.name,
                            g.latency / cmp.inca.latency);
        }
        t.print();
        std::printf("\n");
    }

    std::printf("gains are baseline/INCA (>1 means INCA wins). The "
                "paper's Fig. 11/14/15 shapes: INCA ahead everywhere, "
                "training >> inference, light models >> heavy.\n");
    // Timing and cache stats go to stderr so stdout stays byte-equal
    // at any thread count.
    sim::printPhaseTimes(stderr);
    if (!jsonPath.empty())
        bench::JsonReport::instance().write(jsonPath);
    return 0;
}
