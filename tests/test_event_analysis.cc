/**
 * @file
 * The analysis layer's determinism contract, property-tested across
 * the model zoo x {overlap off/on} x {1, 2, 8} threads:
 *
 *  - the critical path tiles [0, makespan]: re-folding its step
 *    durations in order reproduces the makespan bit-exactly, and the
 *    per-unit / per-layer shares sum to the makespan with 0 ULP
 *    error (via the error-free ExactSum accumulator);
 *  - slack is exactly zero along the critical path and >= 0 off it;
 *  - occupancy reports work past the makespan as explicit overhang
 *    and never lets it inflate utilization past 1;
 *  - what-if with factor 1.0 is a bit-identical no-op (x * 1.0 == x
 *    in IEEE arithmetic), and scaling a unit down never slows the
 *    schedule;
 *  - every report rendering is byte-identical across thread counts,
 *    the JSON is strict, and the CSV schemas (report and per-layer
 *    run export) are lint-clean RFC 4180.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "event/analysis.hh"
#include "event/event.hh"
#include "ir/lower.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"

namespace inca {
namespace {

/** One analysis case: network x engine x phase x overlap. */
struct Case
{
    nn::NetworkDesc net;
    bool isInca;
    arch::Phase phase;
    bool overlap;

    std::string
    describe() const
    {
        return std::string(isInca ? "inca." : "ws.") + net.name +
               (phase == arch::Phase::Training ? ".trn" : ".inf") +
               (overlap ? ".ov" : ".serial");
    }
};

/**
 * The full zoo under both engines and both overlap modes (the
 * acceptance sweep). Inference everywhere plus training on the two
 * residual shapes, batch 16 to keep the suite quick.
 */
std::vector<Case>
zooCases()
{
    const std::vector<nn::NetworkDesc> nets = {
        nn::lenet5(),   nn::vgg8(),        nn::vgg16(),
        nn::vgg19(),    nn::resnet18(),    nn::resnet50(),
        nn::mnasnet(),  nn::mobilenetV2(),
    };
    std::vector<Case> cases;
    for (const auto &net : nets)
        for (const bool isInca : {true, false})
            for (const bool overlap : {false, true})
                cases.push_back(
                    {net, isInca, arch::Phase::Inference, overlap});
    for (const bool isInca : {true, false})
        for (const bool overlap : {false, true}) {
            cases.push_back({nn::resnet18(), isInca,
                             arch::Phase::Training, overlap});
            cases.push_back({nn::vgg8(), isInca,
                             arch::Phase::Training, overlap});
        }
    return cases;
}

ir::Program
lowerCase(const Case &c, int batch = 16)
{
    const ir::LowerOptions opts{c.overlap};
    return c.isInca ? ir::lowerInca(arch::paperInca(), c.net,
                                    c.phase, batch, opts)
                    : ir::lowerWs(arch::paperBaseline(), c.net,
                                  c.phase, batch, opts);
}

/**
 * Structural RFC-4180 lint shared by the report CSV and the run
 * export: every row parses, every row has the same field count as
 * the header. Returns "" on success, a diagnostic otherwise.
 */
std::string
csvLint(const std::string &csv)
{
    std::vector<std::size_t> widths;
    std::size_t fields = 0;
    bool quoted = false, rowStarted = false;
    for (std::size_t i = 0; i < csv.size(); ++i) {
        const char c = csv[i];
        rowStarted = true;
        if (quoted) {
            if (c == '"') {
                if (i + 1 < csv.size() && csv[i + 1] == '"')
                    ++i;
                else
                    quoted = false;
            }
            continue;
        }
        if (c == '"')
            quoted = true;
        else if (c == ',')
            ++fields;
        else if (c == '\n') {
            widths.push_back(fields + 1);
            fields = 0;
            rowStarted = false;
        }
    }
    if (quoted)
        return "unterminated quote";
    if (rowStarted)
        return "missing trailing newline";
    if (widths.size() < 2)
        return "need a header and at least one row";
    for (const std::size_t w : widths)
        if (w != widths[0])
            return "ragged rows";
    return "";
}

/** The report header is strictly snake_case (unlike the run export,
 *  whose dotted stat keys are golden-guarded). */
bool
headerIsSnake(const std::string &csv)
{
    const std::string header = csv.substr(0, csv.find('\n'));
    for (const char c : header)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) ||
              c == '_' || c == ','))
            return false;
    return true;
}

TEST(EventAnalysisTest, PathRefoldsToMakespanBitExactly)
{
    for (const Case &c : zooCases()) {
        SCOPED_TRACE(c.describe());
        const ir::Program p = lowerCase(c);
        const event::TimedRun t = event::execute(p);
        event::AnalyzeOptions opts;
        opts.runWhatIf = false;
        const event::Report r = event::analyze(p, t, opts);
        // The path's segments tile [0, makespan] contiguously, so
        // folding the durations in order repeats the scheduler's own
        // additions.
        Seconds fold = 0.0;
        for (const event::PathStep &s : r.path) {
            EXPECT_EQ(s.start, fold);
            fold = fold + s.duration;
            EXPECT_EQ(s.finish, fold);
        }
        EXPECT_EQ(fold, t.makespan);
        EXPECT_EQ(r.makespan, t.makespan);
    }
}

TEST(EventAnalysisTest, SharesSumToMakespanWithZeroUlpError)
{
    for (const Case &c : zooCases()) {
        SCOPED_TRACE(c.describe());
        const ir::Program p = lowerCase(c);
        const event::TimedRun t = event::execute(p);
        event::AnalyzeOptions opts;
        opts.runWhatIf = false;
        const event::Report r = event::analyze(p, t, opts);
        event::ExactSum units;
        for (const event::UnitReport &row : r.units) {
            units.add(row.criticalShare.hi);
            units.add(row.criticalShare.lo);
        }
        EXPECT_EQ(units.round(), t.makespan);
        event::ExactSum layers;
        for (const event::LayerShare &ls : r.layers) {
            layers.add(ls.share.hi);
            layers.add(ls.share.lo);
        }
        EXPECT_EQ(layers.round(), t.makespan);
    }
}

TEST(EventAnalysisTest, SlackZeroOnPathNonNegativeElsewhere)
{
    for (const Case &c : zooCases()) {
        SCOPED_TRACE(c.describe());
        const ir::Program p = lowerCase(c);
        const event::TimedRun t = event::execute(p);
        event::AnalyzeOptions opts;
        opts.runWhatIf = false;
        const event::Report r = event::analyze(p, t, opts);
        ASSERT_EQ(r.slack.size(), p.instrs.size());
        for (const Seconds s : r.slack)
            EXPECT_GE(s, 0.0);
        for (const event::PathStep &step : r.path)
            EXPECT_EQ(r.slack[std::size_t(step.instr)], 0.0);
    }
}

TEST(EventAnalysisTest, OccupancyNeverInflatesUtilization)
{
    for (const Case &c : zooCases()) {
        SCOPED_TRACE(c.describe());
        const ir::Program p = lowerCase(c);
        const event::TimedRun t = event::execute(p);
        event::AnalyzeOptions opts;
        opts.runWhatIf = false;
        const event::Report r = event::analyze(p, t, opts);
        for (const event::UnitReport &row : r.units) {
            SCOPED_TRACE(ir::unitName(row.unit));
            EXPECT_LE(row.utilization, 1.0);
            EXPECT_GE(row.utilization, 0.0);
            EXPECT_GE(row.overhang, 0.0);
            EXPECT_GE(row.idle, 0.0);
            EXPECT_LE(row.coverage, t.makespan * (1 + 1e-12));
            EXPECT_LE(row.largestGap, t.makespan);
            // Coverage + overhang never exceeds the recorded work.
            EXPECT_LE(row.coverage + row.overhang,
                      row.busy * (1 + 1e-9) + 1e-30);
        }
    }
}

TEST(EventAnalysisTest, OverhangReportedExplicitly)
{
    // Regression for the documented quirk: posted work past the
    // makespan must surface as overhang, not as utilization > 1.
    // One long posted load (no successor) next to the short chain
    // that actually gates the exit.
    ir::Program p;
    p.network = "overhang";
    p.engine = "test";
    ir::Instr load;
    load.op = ir::Op::Load;
    load.unit = ir::Unit::Dram;
    load.span = 0;
    load.duration = 8.0;
    ir::Instr mvm;
    mvm.op = ir::Op::Mvm;
    mvm.unit = ir::Unit::Array;
    mvm.span = 0;
    mvm.duration = 1.0;
    ir::Instr exitSync;
    exitSync.op = ir::Op::Sync;
    exitSync.unit = ir::Unit::Ctrl;
    exitSync.label = "exit";
    exitSync.deps = {1};
    p.instrs = {load, mvm, exitSync};
    ir::Span span;
    span.name = "l0";
    span.first = 0;
    span.count = 2;
    p.spans = {span};

    const event::TimedRun t = event::execute(p);
    EXPECT_EQ(t.makespan, 1.0);
    event::AnalyzeOptions opts;
    opts.runWhatIf = false;
    const event::Report r = event::analyze(p, t, opts);
    ASSERT_EQ(r.units.size(), 3u); // dram, array, ctrl
    const event::UnitReport &dram = r.units[0];
    EXPECT_EQ(dram.unit, ir::Unit::Dram);
    EXPECT_EQ(dram.busy, 8.0);
    EXPECT_EQ(dram.coverage, 1.0);
    EXPECT_EQ(dram.overhang, 7.0);
    EXPECT_EQ(dram.idle, 0.0);
    EXPECT_EQ(dram.utilization, 1.0);
    const event::UnitReport &array = r.units[1];
    EXPECT_EQ(array.unit, ir::Unit::Array);
    EXPECT_EQ(array.busy, 1.0);
    EXPECT_EQ(array.overhang, 0.0);
    // The critical path is mvm -> exit; the posted load never gates.
    EXPECT_EQ(array.criticalShare.hi, 1.0);
    EXPECT_EQ(dram.criticalShare.hi, 0.0);
    EXPECT_EQ(r.bottleneck, ir::Unit::Array);
}

TEST(EventAnalysisTest, WhatIfUnityIsBitIdenticalNoOp)
{
    const Case c{nn::vgg16(), true, arch::Phase::Inference, false};
    const ir::Program p = lowerCase(c, 64);
    const event::TimedRun base = event::execute(p);

    const ir::Program scaled1 =
        event::scaleUnit(p, ir::Unit::Dram, 1.0);
    const event::TimedRun rerun = event::execute(scaled1);
    ASSERT_EQ(rerun.schedule.size(), base.schedule.size());
    for (std::size_t i = 0; i < base.schedule.size(); ++i) {
        EXPECT_EQ(rerun.schedule[i].start, base.schedule[i].start);
        EXPECT_EQ(rerun.schedule[i].finish, base.schedule[i].finish);
    }
    EXPECT_EQ(rerun.makespan, base.makespan);

    event::AnalyzeOptions opts;
    for (int u = 0; u <= int(ir::Unit::Ctrl); ++u)
        opts.whatIf.push_back({ir::Unit(u), 1.0});
    const event::Report r = event::analyze(p, base, opts);
    ASSERT_EQ(r.whatIf.size(), opts.whatIf.size());
    for (const event::WhatIfEntry &e : r.whatIf) {
        SCOPED_TRACE(ir::unitName(e.unit));
        EXPECT_EQ(e.makespan, base.makespan);
        EXPECT_EQ(e.delta, 0.0);
        EXPECT_EQ(e.speedup, 1.0);
    }
    // And the rendered reports are byte-identical to the baseline's.
    event::AnalyzeOptions plain;
    plain.runWhatIf = false;
    const event::Report rb = event::analyze(p, base, plain);
    const event::Report rs =
        event::analyze(scaled1, rerun, plain);
    EXPECT_EQ(event::reportText(p, rb),
              event::reportText(scaled1, rs));
    EXPECT_EQ(event::reportCsv(p, rb),
              event::reportCsv(scaled1, rs));
}

TEST(EventAnalysisTest, WhatIfScalingDownNeverSlower)
{
    for (const Case &c :
         {Case{nn::vgg16(), true, arch::Phase::Inference, true},
          Case{nn::resnet18(), false, arch::Phase::Training,
               false}}) {
        SCOPED_TRACE(c.describe());
        const ir::Program p = lowerCase(c);
        const event::TimedRun t = event::execute(p);
        const event::Report r = event::analyze(p, t); // default 0.5
        EXPECT_FALSE(r.whatIf.empty());
        for (const event::WhatIfEntry &e : r.whatIf) {
            SCOPED_TRACE(ir::unitName(e.unit));
            EXPECT_LE(e.makespan, t.makespan);
            EXPECT_GE(e.delta, 0.0);
            EXPECT_GE(e.speedup, 1.0);
        }
    }
}

TEST(EventAnalysisTest, ReportsByteIdenticalAcrossThreadCounts)
{
    const std::vector<Case> cases = {
        {nn::vgg16(), true, arch::Phase::Inference, false},
        {nn::vgg16(), true, arch::Phase::Inference, true},
        {nn::resnet18(), false, arch::Phase::Training, false},
        {nn::resnet18(), false, arch::Phase::Training, true},
    };
    std::vector<std::string> reference;
    for (const Case &c : cases) {
        const ir::Program p = lowerCase(c);
        const event::Report r =
            event::analyze(p, event::execute(p));
        reference.push_back(event::reportText(p, r) +
                            event::reportCsv(p, r));
    }
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            SCOPED_TRACE(cases[i].describe());
            const ir::Program p = lowerCase(cases[i]);
            const event::Report r =
                event::analyze(p, event::execute(p));
            EXPECT_EQ(event::reportText(p, r) +
                          event::reportCsv(p, r),
                      reference[i]);
        }
    }
}

TEST(EventAnalysisTest, ReportJsonIsStrictAndCsvSchemasLint)
{
    const Case c{nn::vgg16(), true, arch::Phase::Inference, false};
    const ir::Program p = lowerCase(c, 64);
    const event::TimedRun t = event::execute(p);
    const event::Report r = event::analyze(p, t);

    const std::string json = event::reportJson(p, r);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid())
        << "bad JSON near byte " << lint.errorPos();
    EXPECT_NE(json.find("\"kind\": \"event.bottleneck\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bottleneck_unit\": \"array\""),
              std::string::npos);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);

    // The report CSV and the per-layer run export share the same
    // structural lint; the report additionally keeps a snake_case
    // header.
    const std::string reportCsv = event::reportCsv(p, r);
    EXPECT_EQ(csvLint(reportCsv), "");
    EXPECT_TRUE(headerIsSnake(reportCsv));
    EXPECT_EQ(csvLint(sim::toCsv(t.run)), "");
}

TEST(EventAnalysisTest, PublishMetricsExportsOccupancyGauges)
{
    const Case c{nn::vgg16(), true, arch::Phase::Inference, false};
    const ir::Program p = lowerCase(c, 64);
    const event::TimedRun t = event::execute(p);
    event::AnalyzeOptions opts;
    opts.runWhatIf = false;
    const event::Report r = event::analyze(p, t, opts);
    event::publishMetrics(r);
    EXPECT_EQ(metrics::gauge("event.makespan_us").value(),
              t.makespan * 1e6);
    double shares = 0.0;
    for (const event::UnitReport &row : r.units) {
        const std::string base =
            std::string("event.unit.") + ir::unitName(row.unit);
        EXPECT_EQ(metrics::gauge(base + ".busy_us").value(),
                  row.busy * 1e6);
        EXPECT_EQ(metrics::gauge(base + ".utilization").value(),
                  row.utilization);
        shares +=
            metrics::gauge(base + ".critical_share").value();
    }
    EXPECT_NEAR(shares, 1.0, 1e-12);
}

TEST(EventAnalysisTest, TraceEmitsInstantsFlowsAndReadyCounter)
{
    const Case c{nn::lenet5(), true, arch::Phase::Inference, false};
    const ir::Program p = lowerCase(c, 4);
    const event::TimedRun t = event::execute(p);

    trace::clear();
    trace::start("");
    event::emitTrace(p, t);
    const std::vector<trace::Event> events = trace::snapshot();
    const std::string json = trace::stop();

    std::size_t syncs = 0, work = 0;
    for (const ir::Instr &in : p.instrs)
        (in.op == ir::Op::Sync ? syncs : work) += 1;
    std::size_t instants = 0, spans = 0, counters = 0;
    std::set<std::uint64_t> flowStarts, flowEnds;
    bool makespanMarker = false;
    for (const trace::Event &e : events) {
        switch (e.ph) {
          case 'i':
            ++instants;
            makespanMarker |= e.name == "makespan";
            break;
          case 'X':
            ++spans;
            break;
          case 's':
            EXPECT_TRUE(flowStarts.insert(e.id).second);
            break;
          case 'f':
            EXPECT_TRUE(flowEnds.insert(e.id).second);
            break;
          case 'C':
            EXPECT_EQ(e.name, "event.ready_queue");
            EXPECT_GE(e.value, 0.0);
            ++counters;
            break;
          default:
            ADD_FAILURE() << "unexpected phase " << e.ph;
        }
    }
    // Every sync is an instant, plus the makespan marker.
    EXPECT_EQ(instants, syncs + 1);
    EXPECT_TRUE(makespanMarker);
    EXPECT_EQ(spans, work);
    EXPECT_GE(counters, 2u);
    // Flow arrows pair up and link the work steps of the path.
    EXPECT_EQ(flowStarts, flowEnds);
    EXPECT_FALSE(flowStarts.empty());

    // The serialized trace (with the new phases) is strict JSON.
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid())
        << "bad trace JSON near byte " << lint.errorPos();
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
    trace::clear();
}

} // namespace
} // namespace inca
