/**
 * @file
 * End-to-end engine tests: the INCA and baseline analytic simulators
 * must reproduce the paper's qualitative results -- INCA wins energy
 * and latency in inference, wins big in training thanks to batch
 * parallelism, light models gain most, ADC energy drops ~5x, and IS
 * slashes buffer traffic.
 */

#include <gtest/gtest.h>

#include "arch/config.hh"
#include "baseline/engine.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace {

using arch::Phase;
using arch::RunCost;

class Engines : public ::testing::Test
{
  protected:
    core::IncaEngine inca{arch::paperInca()};
    baseline::BaselineEngine base{arch::paperBaseline()};
};

TEST_F(Engines, RunCostBasics)
{
    const auto net = nn::resnet18();
    const RunCost run = inca.inference(net, 64);
    EXPECT_EQ(run.network, "resnet18");
    EXPECT_EQ(run.batchSize, 64);
    EXPECT_GT(run.energy(), 0.0);
    EXPECT_GT(run.latency, 0.0);
    EXPECT_GT(run.staticEnergy, 0.0);
    EXPECT_NEAR(run.staticEnergy, inca.idlePower() * run.latency,
                1e-12);
    EXPECT_FALSE(run.layers.empty());
}

TEST_F(Engines, EveryConvLayerHasCosts)
{
    const auto net = nn::vgg16();
    const RunCost run = inca.inference(net, 64);
    for (const auto &layer : run.layers) {
        if (layer.kind == nn::LayerKind::Conv) {
            EXPECT_GT(layer.stats.get("count.array.read"), 0.0)
                << layer.name;
            EXPECT_GT(layer.stats.get("count.adc"), 0.0) << layer.name;
            EXPECT_GT(layer.energy(), 0.0) << layer.name;
        }
    }
}

TEST_F(Engines, IncaWinsInferenceEnergyOnAllNetworks)
{
    for (const auto &net : nn::evaluationSuite()) {
        const auto i = inca.inference(net, 64);
        const auto b = base.inference(net, 64);
        EXPECT_GT(b.energy() / i.energy(), 2.0) << net.name;
    }
}

TEST_F(Engines, IncaWinsInferenceLatencyOnAllNetworks)
{
    for (const auto &net : nn::evaluationSuite()) {
        const auto i = inca.inference(net, 64);
        const auto b = base.inference(net, 64);
        EXPECT_GT(b.latency / i.latency, 1.0) << net.name;
    }
}

TEST_F(Engines, TrainingGainsExceedInferenceGains)
{
    // Fig. 11/14: the batch parallelism of the 3D stacks pays off
    // most in training.
    for (const auto &net : nn::heavySuite()) {
        const double effInf = base.inference(net, 64).energy() /
                              inca.inference(net, 64).energy();
        const double effTrn = base.training(net, 64).energy() /
                              inca.training(net, 64).energy();
        EXPECT_GT(effTrn, effInf) << net.name;
        const double spdInf = base.inference(net, 64).latency /
                              inca.inference(net, 64).latency;
        const double spdTrn = base.training(net, 64).latency /
                              inca.training(net, 64).latency;
        EXPECT_GT(spdTrn, spdInf) << net.name;
    }
}

TEST_F(Engines, Vgg16HeadlineBands)
{
    // Paper headline: 20.6x inference energy efficiency, 4.6x
    // inference speedup, 260x / 18.6x in training. Our physically
    // re-derived model must land in the same bands (within ~2x for
    // inference, same order for training).
    const auto net = nn::vgg16();
    const double effInf = base.inference(net, 64).energy() /
                          inca.inference(net, 64).energy();
    EXPECT_GT(effInf, 10.0);
    EXPECT_LT(effInf, 45.0);
    const double spdInf = base.inference(net, 64).latency /
                          inca.inference(net, 64).latency;
    EXPECT_GT(spdInf, 2.0);
    EXPECT_LT(spdInf, 10.0);
    const double effTrn = base.training(net, 64).energy() /
                          inca.training(net, 64).energy();
    EXPECT_GT(effTrn, 40.0);
    const double spdTrn = base.training(net, 64).latency /
                          inca.training(net, 64).latency;
    EXPECT_GT(spdTrn, 8.0);
    EXPECT_LT(spdTrn, 40.0);
}

TEST_F(Engines, LightModelsGainMost)
{
    // Fig. 11/14/16: MobileNetV2 and MNasNet blow past the heavy
    // networks in both metrics because WS utilization collapses.
    const double heavyEff = base.inference(nn::vgg16(), 64).energy() /
                            inca.inference(nn::vgg16(), 64).energy();
    for (const auto &net :
         {nn::mobilenetV2(), nn::mnasnet()}) {
        const double eff = base.inference(net, 64).energy() /
                           inca.inference(net, 64).energy();
        EXPECT_GT(eff, 3.0 * heavyEff) << net.name;
        const double trnEff = base.training(net, 64).energy() /
                              inca.training(net, 64).energy();
        EXPECT_GT(trnEff, 300.0) << net.name;
    }
}

TEST_F(Engines, AdcEnergyRatioNearFive)
{
    // Fig. 13a: INCA's ADCs spend ~5x less than the baseline's.
    const auto net = nn::vgg16();
    const double ratio = base.inference(net, 64).sum("energy.adc") /
                         inca.inference(net, 64).sum("energy.adc");
    EXPECT_GT(ratio, 3.5);
    EXPECT_LT(ratio, 7.0);
}

TEST_F(Engines, IncaSlashesBufferTraffic)
{
    // Limitation 1: the WS pipeline fetches/saves per window; IS
    // fetches each kernel once.
    for (const auto &net : nn::evaluationSuite()) {
        const double wsWords =
            base.inference(net, 64).sum("count.buffer");
        const double isWords =
            inca.inference(net, 64).sum("count.buffer");
        EXPECT_GT(wsWords, 20.0 * isWords) << net.name;
    }
}

TEST_F(Engines, IncaWritesNoActivationsToBuffers)
{
    const auto run = inca.inference(nn::resnet18(), 64);
    for (const auto &layer : run.layers) {
        // Buffer writes only appear for streamed weights; resnet18's
        // 11 MB exceeds the 10.5 MB on-chip buffer, so some writes
        // exist -- but output activations never hit the buffer, so a
        // writing layer must also be a weight-reading layer.
        const double writes = layer.stats.get("count.buffer.write");
        if (writes > 0.0) {
            EXPECT_GT(layer.stats.get("count.buffer.read"), 0.0)
                << layer.name;
        }
    }
}

TEST_F(Engines, BatchWithinPlanesIsFreeForInca)
{
    // 3D batch parallelism: compute latency for 64 images equals the
    // latency for 1 image (all planes fire together).
    const auto net = nn::resnet18();
    const auto one = inca.inference(net, 1);
    const auto full = inca.inference(net, 64);
    EXPECT_NEAR(full.latency / one.latency, 1.0, 0.35);
    // ... but a 128-image batch needs two waves.
    const auto two = inca.inference(net, 128);
    EXPECT_GT(two.latency, 1.6 * full.latency);
}

TEST_F(Engines, BaselineBatchScalesLinearly)
{
    const auto net = nn::resnet18();
    const auto b16 = base.inference(net, 16);
    const auto b64 = base.inference(net, 64);
    EXPECT_GT(b64.latency, 2.5 * b16.latency);
}

TEST_F(Engines, EnergyMonotoneInBatch)
{
    const auto net = nn::mobilenetV2();
    EXPECT_GT(inca.inference(net, 64).energy(),
              inca.inference(net, 8).energy());
    EXPECT_GT(base.training(net, 64).energy(),
              base.training(net, 8).energy());
}

TEST_F(Engines, TrainingCostsMoreThanInference)
{
    for (const auto &net : {nn::resnet18(), nn::mnasnet()}) {
        EXPECT_GT(inca.training(net, 64).energy(),
                  inca.inference(net, 64).energy())
            << net.name;
        EXPECT_GT(base.training(net, 64).energy(),
                  base.inference(net, 64).energy())
            << net.name;
        EXPECT_GT(inca.training(net, 64).latency,
                  inca.inference(net, 64).latency)
            << net.name;
    }
}

TEST_F(Engines, TrainingDoublesIncaWeightFetches)
{
    // Section V-B-1: INCA's buffer accesses roughly double in
    // training (transposed-weight fetches).
    const auto net = nn::vgg16();
    const double inf = inca.inference(net, 64).sum("count.buffer.read");
    const double trn = inca.training(net, 64).sum("count.buffer.read");
    EXPECT_GT(trn, 1.8 * inf);
    EXPECT_LT(trn, 4.0 * inf);
}

TEST_F(Engines, BaselineTrainingWritesWeightCells)
{
    // PipeLayer must reprogram originals + transposed copies.
    const auto net = nn::resnet18();
    const double infWrites =
        base.inference(net, 64).sum("count.array.write");
    const double trnWrites =
        base.training(net, 64).sum("count.array.write");
    EXPECT_GT(trnWrites, infWrites);
    EXPECT_GE(trnWrites,
              2.0 * double(net.totalWeights()) * 8.0);
}

TEST_F(Engines, WeightReloadAppearsOnlyWhenModelExceedsRram)
{
    // VGG16 (138 MB > 33 MB on-chip RRAM) reloads; MobileNetV2
    // (3 MB) does not.
    auto hasReload = [](const RunCost &run) {
        for (const auto &l : run.layers) {
            if (l.name == "weight-reload")
                return true;
        }
        return false;
    };
    EXPECT_TRUE(hasReload(base.inference(nn::vgg16(), 64)));
    EXPECT_FALSE(hasReload(base.inference(nn::mobilenetV2(), 64)));
    // ResNet18 fits for inference (11 MB x 8 = 88 Mb < 264 Mb) but
    // training doubles the demand past nothing -- still fits; VGG
    // training definitely reloads.
    EXPECT_TRUE(hasReload(base.training(nn::vgg16(), 64)));
}

TEST_F(Engines, IncaIdlePowerFarBelowBaseline)
{
    EXPECT_LT(inca.idlePower() * 5.0, base.idlePower());
}

TEST_F(Engines, ReadCycleRespectsAdcDrain)
{
    // With 64 active planes and 4 ADCs per stack, 16 serial 4-bit
    // conversions (1.9 ns each) exceed the 35 ns read+write path.
    const Seconds cycle64 = inca.readCycleTime(64);
    EXPECT_GT(cycle64, 30e-9);
    // A single image drains in one conversion: read+write limited.
    const Seconds cycle1 = inca.readCycleTime(1);
    EXPECT_NEAR(cycle1, 35e-9, 1e-9);
    EXPECT_LE(cycle1, cycle64);
}

TEST_F(Engines, DepthwiseLayersAreCheapOnInca)
{
    // Depthwise layers compute all channels in parallel with 4-bit
    // conversions; on the baseline they burn full 128-column 8-bit
    // conversions at ~7 % utilization.
    const auto net = nn::mobilenetV2();
    const auto i = inca.inference(net, 64);
    const auto b = base.inference(net, 64);
    double iDw = 0.0, bDw = 0.0;
    for (const auto &l : i.layers) {
        if (l.kind == nn::LayerKind::Depthwise)
            iDw += l.stats.sumPrefix("energy.adc");
    }
    for (const auto &l : b.layers) {
        if (l.kind == nn::LayerKind::Depthwise)
            bDw += l.stats.sumPrefix("energy.adc");
    }
    EXPECT_GT(bDw, 20.0 * iDw);
}

TEST_F(Engines, DeathOnBadBatch)
{
    EXPECT_DEATH(inca.inference(nn::lenet5(), 0), "batch");
    EXPECT_DEATH(base.training(nn::lenet5(), -3), "batch");
}

// ---------------------------------------------------------------
// Degenerate networks.

nn::NetworkDesc
emptyNetwork()
{
    nn::NetworkDesc net;
    net.name = "empty";
    return net;
}

nn::NetworkDesc
singleLayerNetwork()
{
    nn::NetworkDesc net;
    net.name = "one-fc";
    net.numClasses = 10;
    nn::LayerDesc fc;
    fc.kind = nn::LayerKind::FullyConnected;
    fc.name = "fc";
    fc.inC = 16;
    fc.inH = 1;
    fc.inW = 1;
    fc.outC = 10;
    fc.outH = 1;
    fc.outW = 1;
    fc.kh = 1;
    fc.kw = 1;
    net.layers = {fc};
    return net;
}

TEST_F(Engines, EmptyNetworkHasNoLayersAndZeroLatency)
{
    const nn::NetworkDesc net = emptyNetwork();
    for (const RunCost &run :
         {inca.inference(net, 1), inca.training(net, 1),
          base.inference(net, 1), base.training(net, 1)}) {
        EXPECT_TRUE(run.layers.empty());
        EXPECT_EQ(run.latency, 0.0);
    }
    // Lowered, it is the exit sync alone.
    const ir::Program p =
        ir::lowerInca(arch::paperInca(), net, Phase::Inference, 1);
    EXPECT_TRUE(p.spans.empty());
    EXPECT_EQ(p.instrs.size(), 1u);
}

TEST_F(Engines, SingleLayerRunLatencyIsItsLayerLatency)
{
    const RunCost run = inca.inference(singleLayerNetwork(), 4);
    ASSERT_EQ(run.layers.size(), 1u);
    EXPECT_GT(run.latency, 0.0);
    EXPECT_EQ(run.layers[0].latency, run.latency);
}

TEST(TimelineEdge, BatchZeroDies)
{
    core::IncaEngine engine(arch::paperInca());
    EXPECT_DEATH(engine.inference(nn::lenet5(), 0), "batch size");
    // The timeline is laid out from the lowered program, which checks
    // the batch itself.
    EXPECT_DEATH(ir::lowerInca(arch::paperInca(), nn::lenet5(),
                               Phase::Inference, 0),
                 "batch size");
}

} // namespace
} // namespace inca
