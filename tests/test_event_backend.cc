/**
 * @file
 * The event backend's correctness contract, tested differentially
 * against the analytic engines over ~200 seeded property cases
 * (network x design point x engine x phase x batch):
 *
 *  - overlap off: the event-driven schedule folds to the identical
 *    floating-point additions as the analytic walk, so every number
 *    in the RunCost -- per-layer latencies, every stat, the run
 *    makespan, static energy -- is bit-identical (0 ULP);
 *  - overlap on: double-buffered loads may only start instructions
 *    earlier, so the makespan never increases, while the work itself
 *    (dynamic energy, per-layer stats) stays bit-identical;
 *  - the whole contract holds unchanged at 1, 2, and 8 threads --
 *    the schedule is a pure function of the lowered program.
 *
 * Plus the schedule-level invariants the fold rests on: no
 * instruction starts before its dependencies finish, and the exit
 * sync defines the makespan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "event/event.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"
#include "test_fixtures.hh"

namespace inca {
namespace {

using testing::Backend;
using testing::IncaPoint;
using testing::incaPointConfig;
using testing::runBaseline;
using testing::runInca;

/**
 * Every number in a RunCost, rendered with full double precision.
 * Byte-equality of two transcripts is bit-equality of two runs.
 */
std::string
transcript(const arch::RunCost &run)
{
    char buf[64];
    std::string out = run.network + "/" +
                      std::to_string(run.batchSize) + "\n";
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
    };
    for (const auto &layer : run.layers) {
        out += layer.name + " k" +
               std::to_string(int(layer.kind)) + " t=";
        num(layer.latency);
        for (const auto &[stat, value] : layer.stats.entries()) {
            out += " " + stat + "=";
            num(value);
        }
        out += "\n";
    }
    out += "latency=";
    num(run.latency);
    out += " static=";
    num(run.staticEnergy);
    out += "\n";
    return out;
}

/** One seeded differential case. */
struct EventCase
{
    bool isInca;
    nn::NetworkDesc net;
    IncaPoint point; ///< geometry for the IS engine (batch unused)
    arch::Phase phase;
    int batch;

    std::string
    describe() const
    {
        return std::string(isInca ? "inca." : "ws.") + net.name +
               (phase == arch::Phase::Training ? ".trn" : ".inf") +
               ".b" + std::to_string(batch) + ".s" +
               std::to_string(point.subarraySize);
    }
};

/**
 * The seeded case list: every network/engine/phase reachable, design
 * points and batches drawn from a fixed-seed stream so the sweep is
 * broad but perfectly reproducible.
 */
std::vector<EventCase>
seededCases(int count)
{
    const std::vector<nn::NetworkDesc> nets = {
        nn::lenet5(),      nn::vgg8(),    nn::vgg16(),
        nn::resnet18(),    nn::mnasnet(), nn::mobilenetV2(),
    };
    const auto points = testing::cacheSweepPoints();
    const int batches[] = {4, 16, 64, 96};
    Rng rng(0xE7E47u);
    std::vector<EventCase> cases;
    cases.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i) {
        EventCase c{
            rng.below(2) == 0,
            nets[rng.below(nets.size())],
            points[rng.below(points.size())],
            rng.below(2) == 0 ? arch::Phase::Inference
                              : arch::Phase::Training,
            batches[rng.below(4)],
        };
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Lower one case with the given overlap setting. */
ir::Program
lowerCase(const EventCase &c, bool overlap)
{
    const ir::LowerOptions opts{overlap};
    return c.isInca
               ? ir::lowerInca(incaPointConfig(c.point), c.net,
                               c.phase, c.batch, opts)
               : ir::lowerWs(arch::paperBaseline(), c.net, c.phase,
                             c.batch, opts);
}

/** The analytic engines' answer for one case. */
arch::RunCost
analyticRun(const EventCase &c)
{
    return c.isInca
               ? runInca(Backend::Analytic,
                         incaPointConfig(c.point), c.net, c.phase,
                         c.batch)
               : runBaseline(Backend::Analytic,
                             arch::paperBaseline(), c.net, c.phase,
                             c.batch);
}

TEST(EventBackendTest, OverlapOffIsBitExactAcrossSeededCases)
{
    for (const EventCase &c : seededCases(200)) {
        SCOPED_TRACE(c.describe());
        const auto timed = event::execute(lowerCase(c, false));
        EXPECT_EQ(transcript(timed.run), transcript(analyticRun(c)));
    }
}

TEST(EventBackendTest, OverlapOnNeverSlowerAndEnergyUnchanged)
{
    for (const EventCase &c : seededCases(100)) {
        SCOPED_TRACE(c.describe());
        const auto off = event::execute(lowerCase(c, false)).run;
        const auto on = event::execute(lowerCase(c, true)).run;
        // Overlap is a pure latency optimization: it may only start
        // work earlier, never add or remove any.
        EXPECT_LE(on.latency, off.latency);
        EXPECT_EQ(on.sum("energy"), off.sum("energy"));
        ASSERT_EQ(on.layers.size(), off.layers.size());
        for (std::size_t i = 0; i < off.layers.size(); ++i) {
            EXPECT_EQ(on.layers[i].stats.entries(),
                      off.layers[i].stats.entries());
            EXPECT_EQ(on.layers[i].latency, off.layers[i].latency);
        }
    }
}

TEST(EventBackendTest, BitIdenticalAtEveryThreadCount)
{
    const auto cases = seededCases(12);
    std::vector<std::string> reference;
    for (const EventCase &c : cases)
        reference.push_back(
            transcript(event::execute(lowerCase(c, false)).run));

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(cases[i].describe());
            // Twice: a repeated execution must transcribe
            // identically.
            EXPECT_EQ(
                transcript(
                    event::execute(lowerCase(cases[i], false)).run),
                reference[i]);
            EXPECT_EQ(
                transcript(
                    event::execute(lowerCase(cases[i], false)).run),
                reference[i]);
        }
    }
}

TEST(EventBackendTest, Vgg16InferenceOverlapIsStrictlyFaster)
{
    // The acceptance pin: on at least one Table III/IV network the
    // double-buffered schedule strictly beats the serial one (vgg16's
    // streamed weight loads hide behind the previous layer's MVMs)
    // with the dynamic energy untouched.
    const ir::LowerOptions on{true};
    const auto cfg = arch::paperInca();
    const auto net = nn::vgg16();
    const auto serial = event::execute(
        ir::lowerInca(cfg, net, arch::Phase::Inference, 64));
    const auto pipelined = event::execute(ir::lowerInca(
        cfg, net, arch::Phase::Inference, 64, on));
    EXPECT_LT(pipelined.run.latency, serial.run.latency);
    EXPECT_EQ(pipelined.run.sum("energy"), serial.run.sum("energy"));
}

TEST(EventBackendTest, ScheduleRespectsDependencies)
{
    for (const EventCase &c : seededCases(20)) {
        SCOPED_TRACE(c.describe());
        for (const bool overlap : {false, true}) {
            const ir::Program p = lowerCase(c, overlap);
            const auto timed = event::execute(p);
            ASSERT_EQ(timed.schedule.size(), p.instrs.size());
            for (std::size_t i = 0; i < p.instrs.size(); ++i) {
                const auto &slot = timed.schedule[i];
                EXPECT_EQ(slot.finish,
                          slot.start + p.instrs[i].duration);
                for (const int d : p.instrs[i].deps)
                    EXPECT_GE(slot.start,
                              timed.schedule[std::size_t(d)].finish);
            }
            // The exit sync is last and defines the makespan.
            EXPECT_EQ(timed.makespan,
                      timed.schedule.back().finish);
            EXPECT_EQ(timed.run.latency, timed.makespan);
        }
    }
}

} // namespace
} // namespace inca
