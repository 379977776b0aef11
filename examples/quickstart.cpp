/**
 * @file
 * Quickstart: simulate one inference batch of ResNet18 on the INCA
 * accelerator and print where the time and energy go.
 *
 *   $ ./build/examples/quickstart [network] [batch]
 *
 * Networks: vgg16 vgg19 resnet18 resnet50 mobilenetv2 mnasnet lenet5.
 */

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <string>

#include "arch/area.hh"
#include "arch/config.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "examples/cli.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    const std::string name = argc > 1 ? argv[1] : "resnet18";
    const int batch =
        argc > 2 ? int(cli::parsePositive("[batch]", argv[2])) : 64;

    // 1. Describe the workload: layer shapes only; the analytic
    //    simulator needs no weights.
    const nn::NetworkDesc net = nn::byName(name);
    std::printf("workload: %s -- %lld conv-like layers, %.1f M "
                "weights, %.2f G MACs/image\n",
                net.name.c_str(),
                (long long)net.convLayers().size(),
                double(net.totalWeights()) / 1e6,
                double(net.totalMacs()) / 1e9);

    // 2. Configure the chip (Table II defaults) and build the engine.
    const arch::IncaConfig cfg = arch::paperInca();
    core::IncaEngine engine(cfg);
    std::printf("chip: %d tiles x %d macros x %d stacks of %dx%dx%d "
                "2T1R cells, %d-bit ADCs; %s, idle %s\n",
                cfg.org.numTiles, cfg.org.tileSize, cfg.org.macroSize,
                cfg.subarraySize, cfg.subarraySize, cfg.stackedPlanes,
                cfg.adcBits,
                formatAreaMm2(arch::incaArea(cfg).total()).c_str(),
                formatSi(engine.idlePower(), "W").c_str());

    // 3. Simulate a batch.
    const arch::RunCost run = engine.inference(net, batch);
    std::printf("\nbatch of %d images: %s, %s  (%s/image, %.1f "
                "images/s)\n",
                batch, formatSi(run.energy(), "J").c_str(),
                formatSi(run.latency, "s").c_str(),
                formatSi(run.energyPerImage(), "J").c_str(),
                run.throughput());

    // 4. Break the energy down by component.
    TextTable t({"component", "energy", "share"});
    const auto abs = sim::energyBreakdown(run);
    const auto pct = sim::energyBreakdownPct(run);
    for (const auto &[key, value] : abs) {
        t.addRow({key, formatSi(value, "J"),
                  TextTable::num(pct.at(key), 1) + " %"});
    }
    t.print();

    // 5. The five most expensive layers.
    auto layers = run.layers;
    std::sort(layers.begin(), layers.end(),
              [](const auto &a, const auto &b) {
                  return a.energy() > b.energy();
              });
    std::printf("\nmost expensive layers:\n");
    for (size_t i = 0; i < layers.size() && i < 5; ++i) {
        std::printf("  %-12s %s\n", layers[i].name.c_str(),
                    formatSi(layers[i].energy(), "J").c_str());
    }
    return 0;
}
