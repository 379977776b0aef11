/**
 * @file
 * Property sweeps over engine configurations: the qualitative
 * relations the paper's evaluation rests on must hold across design
 * points, not just at Table II -- INCA cheaper and faster than the
 * baseline, energy monotone in work, more ADC bits never cheaper,
 * larger baseline arrays never improve light-model utilization, etc.
 *
 * The engine-level sweeps run under every execution backend
 * (testing::eachBackend()): the analytic engines and the event-driven
 * simulator are bit-exact with overlap off, so each property must
 * hold identically on both paths.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/utilization.hh"
#include "baseline/engine.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "test_fixtures.hh"

namespace inca {
namespace {

using inca::testing::Backend;
using inca::testing::backendName;
using inca::testing::eachBackend;
using inca::testing::IncaPoint;
using inca::testing::incaPointConfig;
using inca::testing::runBaseline;
using inca::testing::runInca;

// -------------------------------------------------------------------
// Sweep 1: INCA design points.

class IncaDesignSweep : public ::testing::TestWithParam<IncaPoint>
{
};

TEST_P(IncaDesignSweep, RunCostsAreSane)
{
    const auto p = GetParam();
    const arch::IncaConfig cfg = incaPointConfig(p);
    const auto net = nn::resnet18();

    for (const Backend backend : eachBackend()) {
        SCOPED_TRACE(backendName(backend));
        const auto inf = runInca(backend, cfg, net,
                                 arch::Phase::Inference, p.batch);
        EXPECT_GT(inf.energy(), 0.0);
        EXPECT_GT(inf.latency, 0.0);
        EXPECT_GT(inf.sum("count.adc"), 0.0);

        const auto trn = runInca(backend, cfg, net,
                                 arch::Phase::Training, p.batch);
        EXPECT_GT(trn.energy(), inf.energy());
        EXPECT_GT(trn.latency, inf.latency);
    }
}

TEST_P(IncaDesignSweep, EnergyMonotoneInBatch)
{
    const auto p = GetParam();
    core::IncaEngine engine(incaPointConfig(p));
    const auto net = nn::mnasnet();
    EXPECT_GT(engine.inference(net, 2 * p.batch).energy(),
              engine.inference(net, p.batch).energy());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncaDesignSweep,
    ::testing::Values(IncaPoint{16, 64, 4, 64},
                      IncaPoint{8, 64, 4, 64},
                      IncaPoint{32, 64, 4, 64},
                      IncaPoint{16, 16, 4, 64},
                      IncaPoint{16, 64, 6, 64},
                      IncaPoint{16, 64, 8, 32},
                      IncaPoint{16, 32, 5, 8},
                      IncaPoint{64, 8, 4, 16}));

// -------------------------------------------------------------------
// Sweep 2: ADC resolution never gets cheaper with more bits.

class AdcBitsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AdcBitsSweep, MoreBitsNeverCheaper)
{
    const int bits = GetParam();
    arch::IncaConfig lo = arch::paperInca();
    lo.adcBits = bits;
    arch::IncaConfig hi = arch::paperInca();
    hi.adcBits = bits + 1;
    const auto net = nn::resnet18();
    const double eLo =
        core::IncaEngine(lo).inference(net, 64).sum("energy.adc");
    const double eHi =
        core::IncaEngine(hi).inference(net, 64).sum("energy.adc");
    EXPECT_LT(eLo, eHi);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AdcBitsSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

// -------------------------------------------------------------------
// Sweep 3: INCA beats the baseline across networks AND batch sizes.

struct GainPoint
{
    const char *network;
    int batch;
};

// Without this gtest names each case by the point's raw bytes, which
// hold the network string's address and so change from run to run.
void
PrintTo(const GainPoint &p, std::ostream *os)
{
    *os << p.network << "_b" << p.batch;
}

class GainSweep : public ::testing::TestWithParam<GainPoint>
{
};

TEST_P(GainSweep, IncaWinsTrainingEverywhere)
{
    const auto p = GetParam();
    const auto net = nn::byName(p.network);
    for (const Backend backend : eachBackend()) {
        SCOPED_TRACE(backendName(backend));
        const auto i = runInca(backend, arch::paperInca(), net,
                               arch::Phase::Training, p.batch);
        const auto b = runBaseline(backend, arch::paperBaseline(),
                                   net, arch::Phase::Training,
                                   p.batch);
        EXPECT_GT(b.energy(), i.energy())
            << p.network << " batch " << p.batch;
        EXPECT_GT(b.latency, i.latency)
            << p.network << " batch " << p.batch;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GainSweep,
    ::testing::Values(GainPoint{"vgg16", 8}, GainPoint{"vgg16", 64},
                      GainPoint{"vgg19", 32},
                      GainPoint{"resnet18", 4},
                      GainPoint{"resnet18", 128},
                      GainPoint{"resnet50", 64},
                      GainPoint{"mobilenetv2", 16},
                      GainPoint{"mobilenetv2", 64},
                      GainPoint{"mnasnet", 64},
                      GainPoint{"lenet5", 64}));

// -------------------------------------------------------------------
// Sweep 4: baseline array size does not rescue light models.

class BaselineArraySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BaselineArraySweep, LightUtilizationStaysLow)
{
    const int size = GetParam();
    const double light =
        arch::wsNetworkUtilization(nn::mobilenetV2(), size);
    const double heavy =
        arch::wsNetworkUtilization(nn::vgg16(), size);
    EXPECT_LT(light, heavy);
    if (size >= 64) {
        EXPECT_LT(light, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineArraySweep,
                         ::testing::Values(32, 64, 128, 256));

// -------------------------------------------------------------------
// Sweep 5: batch-wave arithmetic.

class BatchWaveSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BatchWaveSweep, WavesQuantizeLatency)
{
    const int batch = GetParam();
    core::IncaEngine engine(arch::paperInca());
    const auto net = nn::lenet5();
    const auto one = engine.inference(net, 1);
    const auto many = engine.inference(net, batch);
    const double waves = std::ceil(batch / 64.0);
    // Latency scales with waves, not with images.
    EXPECT_NEAR(many.latency / one.latency, waves, 0.6 * waves);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchWaveSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 128,
                                           192, 256));


// -------------------------------------------------------------------
// Sweep 6: CIFAR-shaped variants run cleanly through both engines.

class CifarSuiteSweep
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CifarSuiteSweep, EnginesHandleSmallMaps)
{
    const auto input = nn::cifarInput();
    const auto net = nn::byName(GetParam(), input);
    for (const Backend backend : eachBackend()) {
        SCOPED_TRACE(backendName(backend));
        const auto i = runInca(backend, arch::paperInca(), net,
                               arch::Phase::Training, 64);
        const auto b = runBaseline(backend, arch::paperBaseline(),
                                   net, arch::Phase::Training, 64);
        EXPECT_GT(i.energy(), 0.0) << net.name;
        EXPECT_GT(b.energy(), i.energy()) << net.name;
        EXPECT_GT(b.latency, i.latency) << net.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CifarSuiteSweep,
                         ::testing::Values("vgg16", "vgg19",
                                           "resnet18", "resnet50",
                                           "mobilenetv2", "mnasnet",
                                           "vgg8"));

} // namespace
} // namespace inca
