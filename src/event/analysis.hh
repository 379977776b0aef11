/**
 * @file
 * Bottleneck analytics over an event-backend schedule: critical-path
 * extraction, per-unit occupancy, per-instruction slack, and what-if
 * sensitivity. Everything here is a pure function of the lowered
 * program and its TimedRun, so every report is byte-identical across
 * thread counts and runs.
 *
 * Critical path. The schedule computes start(i) as the max dependency
 * finish, so for every instruction there is a dependency whose finish
 * *equals* its start -- the gate. Walking gates back from the exit
 * sync (ties broken by smallest instruction index, so the path is
 * deterministic) yields a chain whose segments tile [0, makespan]
 * contiguously: start(step j) is bit-equal to finish(step j-1).
 * Re-folding the step durations in order therefore reproduces the
 * makespan bit-exactly -- the same IEEE additions the scheduler did.
 *
 * Shares. Per-unit and per-layer shares of the makespan are the
 * telescoped prefix-time differences of the path, accumulated with an
 * error-free expansion (ExactSum): each step contributes its finish
 * and minus-its-start, both exact, so the shares sum to the makespan
 * with 0 ULP error by construction. Each share is reported as a
 * double-double (hi + lo); summing every unit's hi and lo with
 * math.fsum / ExactSum and rounding recovers the makespan exactly
 * (tests and CI assert this).
 *
 * Slack. Total slack -- how late an instruction could start without
 * growing the makespan -- is computed with the gap recursion
 * slack(i) = min over successors s of (start(s) - finish(i)) +
 * slack(s), which is a sum of non-negative terms: exactly zero along
 * the critical path (every gate link has a zero gap) and >= 0
 * everywhere else, with no -ULP artifacts a backward latest-finish
 * recursion would produce. Posted work already past the makespan
 * clamps to zero (it cannot delay the exit at all; the overhang
 * column reports it instead).
 *
 * What-if. Sensitivity re-executes the program with one unit's
 * durations scaled, purely at the schedule level (lowered stats and
 * energies untouched): the "speedup-if-fixed" table. A factor of 1.0
 * multiplies every duration by exactly 1.0 and is therefore a
 * bit-identical no-op.
 */

#ifndef INCA_EVENT_ANALYSIS_HH
#define INCA_EVENT_ANALYSIS_HH

#include <string>
#include <utility>
#include <vector>

#include "event/event.hh"
#include "ir/ir.hh"

namespace inca {
namespace event {

/**
 * Error-free accumulator (a Shewchuk/fsum-style expansion): add() is
 * exact for any sequence of finite doubles, round() returns the
 * correctly-rounded double of the exact sum, and pair() returns the
 * double-double (hi = round(), lo = round(exact - hi)). Used for the
 * 0-ULP share-sum contract; exposed for tests and CI cross-checks.
 */
class ExactSum
{
  public:
    /** Add @p x exactly (no rounding error is ever discarded). */
    void add(double x);
    /** Correctly-rounded double of the exact sum so far. */
    double round() const;
    /** (hi, lo) double-double: hi = round(), lo = round(sum - hi). */
    std::pair<double, double> pair() const;

  private:
    /** Non-overlapping partials, increasing magnitude (fsum's). */
    std::vector<double> partials_;
};

/** One step of the critical path, in start-time order. */
struct PathStep
{
    int instr = 0;     ///< instruction index
    Seconds start = 0.0;
    Seconds finish = 0.0;
    Seconds duration = 0.0; ///< lowered duration (refolds to makespan)
};

/** Exact share of the makespan as a double-double. */
struct Share
{
    double hi = 0.0;
    double lo = 0.0;
    double total() const { return hi + lo; }
};

/** Per-unit occupancy + critical-path attribution (one report row). */
struct UnitReport
{
    ir::Unit unit = ir::Unit::Dram;
    int intervals = 0;    ///< busy intervals recorded on the unit
    Seconds busy = 0.0;   ///< sum of interval durations (work-seconds;
                          ///< can exceed the makespan when posted
                          ///< work overlaps or overhangs)
    Seconds coverage = 0.0;   ///< union of intervals within [0, makespan]
    Seconds idle = 0.0;       ///< makespan - coverage (clamped at 0)
    Seconds overhang = 0.0;   ///< union of interval time past the
                              ///< makespan (posted off-critical work)
    Seconds largestGap = 0.0; ///< widest idle stretch in [0, makespan]
    double utilization = 0.0; ///< coverage / makespan (overhang never
                              ///< inflates the denominator)
    Seconds maxSlack = 0.0;   ///< largest per-instruction slack
    Share criticalShare;      ///< exact share of the critical path
    double criticalFraction = 0.0; ///< criticalShare / makespan
};

/** Per-layer (span) share of the critical path. */
struct LayerShare
{
    std::string layer;
    Share share;
    double fraction = 0.0;
};

/** One row of the what-if sensitivity table. */
struct WhatIfEntry
{
    ir::Unit unit = ir::Unit::Dram;
    double factor = 1.0;
    Seconds makespan = 0.0; ///< makespan of the scaled schedule
    Seconds delta = 0.0;    ///< base makespan - scaled makespan
    double speedup = 1.0;   ///< base makespan / scaled makespan
};

/** Everything the analysis layer extracts from one schedule. */
struct Report
{
    Seconds makespan = 0.0;
    std::vector<PathStep> path;       ///< source -> exit sync
    std::vector<UnitReport> units;    ///< units the program uses, in
                                      ///< ir::Unit order
    std::vector<LayerShare> layers;   ///< spans the path visits, in
                                      ///< program span order
    std::vector<Seconds> slack;       ///< aligned with program.instrs
    std::vector<WhatIfEntry> whatIf;  ///< empty when not requested
    ir::Unit bottleneck = ir::Unit::Dram; ///< largest critical share
    double bottleneckFraction = 0.0;
};

/** What-if knobs for analyze(). */
struct AnalyzeOptions
{
    /** Run the sensitivity sweep (one re-execution per entry). */
    bool runWhatIf = true;
    /**
     * (unit, factor) pairs to sweep; when empty, every non-ctrl unit
     * the program uses at factor 0.5.
     */
    std::vector<std::pair<ir::Unit, double>> whatIf;
};

/** Analyze @p t, the schedule execute() produced for @p p. */
Report analyze(const ir::Program &p, const TimedRun &t,
               const AnalyzeOptions &opts = {});

/**
 * Copy of @p p with every instruction on @p unit scaled to
 * duration * factor -- stats, deps, and spans untouched. The
 * what-if primitive; factor must be finite and > 0.
 */
ir::Program scaleUnit(const ir::Program &p, ir::Unit unit,
                      double factor);

/**
 * Publish the report to the metrics registry: event.makespan_us and,
 * per unit, event.unit.<name>.{busy_us, idle_us, overhang_us,
 * utilization, critical_share} gauges.
 */
void publishMetrics(const Report &r);

/** Human-readable bottleneck report (the timeline --report text). */
std::string reportText(const ir::Program &p, const Report &r);

/**
 * Strict JSON report with the standard provenance manifest. Numbers
 * are %.17g, so every double round-trips; CI re-sums the shares with
 * math.fsum and compares against makespan_s for bit equality.
 */
std::string reportJson(const ir::Program &p, const Report &r);

/**
 * RFC-4180 CSV, one row per unit, same schema family as the
 * per-layer run export (snake_case headers, leading name column,
 * %.17g numbers).
 */
std::string reportCsv(const ir::Program &p, const Report &r);

} // namespace event
} // namespace inca

#endif // INCA_EVENT_ANALYSIS_HH
