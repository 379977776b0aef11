/**
 * @file
 * Shared test fixtures.
 *
 * The sweep tests, the fault-injection tests, and the evaluation-cache
 * differential tests all assemble the same kinds of objects: paper
 * configs with a few geometry fields overridden, and seeded
 * macro-with-values setups. Building them here keeps the design
 * points consistent across suites -- a differential test and a sweep
 * test that disagree about what "the 8x8 single-plane macro" is are
 * testing different machines.
 */

#ifndef INCA_TESTS_TEST_FIXTURES_HH
#define INCA_TESTS_TEST_FIXTURES_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "baseline/engine.hh"
#include "common/random.hh"
#include "event/event.hh"
#include "inca/engine.hh"
#include "inca/stack3d.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace testing {

// -------------------------------------------------------------------
// Execution backends.
//
// Every engine-level cost can be produced two ways: the analytic
// engines (which walk the lowered IR arithmetically) and the
// event-driven simulator (which schedules the same IR). The two are
// bit-exact with overlap off, so sweep-style tests run their bodies
// under eachBackend() instead of hard-coding one path.

/** Which execution path produces a RunCost. */
enum class Backend
{
    Analytic, ///< core::IncaEngine / baseline::BaselineEngine
    Event,    ///< ir::lower* + event::execute, overlap off
};

inline const char *
backendName(Backend b)
{
    return b == Backend::Event ? "event" : "analytic";
}

/** The backend axis sweep tests iterate. */
inline std::vector<Backend>
eachBackend()
{
    return {Backend::Analytic, Backend::Event};
}

/** One IS run through the chosen backend. */
inline arch::RunCost
runInca(Backend b, const arch::IncaConfig &cfg,
        const nn::NetworkDesc &net, arch::Phase phase, int batch)
{
    if (b == Backend::Analytic) {
        const core::IncaEngine engine(cfg);
        return phase == arch::Phase::Training
                   ? engine.training(net, batch)
                   : engine.inference(net, batch);
    }
    return event::execute(ir::lowerInca(cfg, net, phase, batch)).run;
}

/** One WS run through the chosen backend. */
inline arch::RunCost
runBaseline(Backend b, const arch::BaselineConfig &cfg,
            const nn::NetworkDesc &net, arch::Phase phase, int batch)
{
    if (b == Backend::Analytic) {
        const baseline::BaselineEngine engine(cfg);
        return phase == arch::Phase::Training
                   ? engine.training(net, batch)
                   : engine.inference(net, batch);
    }
    return event::execute(ir::lowerWs(cfg, net, phase, batch)).run;
}

// -------------------------------------------------------------------
// Engine design points.

/** One INCA design point: the geometry knobs the sweeps vary. */
struct IncaPoint
{
    int subarraySize;
    int planes;
    int adcBits;
    int batch;
};

/** paperInca() with @p p's geometry overrides applied. */
inline arch::IncaConfig
incaPointConfig(const IncaPoint &p)
{
    arch::IncaConfig cfg = arch::paperInca();
    cfg.subarraySize = p.subarraySize;
    cfg.stackedPlanes = p.planes;
    cfg.adcBits = p.adcBits;
    return cfg;
}

/**
 * The design points the cache differential test sweeps: the paper
 * point plus two perturbed geometries, so cached results for one
 * config can never be served for another without the test noticing.
 */
inline std::vector<IncaPoint>
cacheSweepPoints()
{
    return {{16, 64, 4, 64}, {8, 32, 5, 16}, {32, 16, 6, 8}};
}

/** The networks the cache differential test sweeps (light + heavy). */
inline std::vector<nn::NetworkDesc>
cacheSweepModels()
{
    return {nn::resnet18(), nn::mobilenetV2(), nn::lenet5()};
}

// -------------------------------------------------------------------
// Seeded functional-array fixtures.

/**
 * A pair of identical IncaMacros with seeded 3x3 values and a seeded
 * 3x3 kernel: the canonical setup for differential fault and noise
 * experiments (mutate one macro, bound its deviation from the clean
 * twin).
 */
struct SeededMacroPair
{
    core::IncaMacro clean;
    core::IncaMacro faulty;
    int values[3][3];
    std::vector<int> kernel;

    explicit SeededMacroPair(std::uint64_t seed, int size = 8,
                             int planes = 1, int activationBits = 8)
        : clean(size, planes, activationBits),
          faulty(size, planes, activationBits),
          kernel(9)
    {
        Rng rng(seed);
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c) {
                values[r][c] = int(rng.below(256));
                clean.writeValue(0, r, c, std::uint32_t(values[r][c]));
                faulty.writeValue(0, r, c, std::uint32_t(values[r][c]));
            }
        }
        for (auto &k : kernel)
            k = int(rng.below(255)) - 127;
    }
};

// -------------------------------------------------------------------
// Scratch files.

/**
 * Path of the scratch file (or directory) @p name under gtest's temp
 * directory, prefixed with this process's id: two processes of one
 * test binary running at once (a parallel or repeated suite run) must
 * never share, and so delete, each other's files.
 */
inline std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "inca_" + std::to_string(::getpid()) +
           "_" + name;
}

} // namespace testing
} // namespace inca

#endif // INCA_TESTS_TEST_FIXTURES_HH
