/**
 * @file
 * The benchmark's workload interface. The harness (main.cc) times
 * repeated set-ups, then repeated runs of the timed phase, and checks
 * every run's simulated outputs; the traced pass is each workload's
 * own, because only the workload knows which public calls make up its
 * layers.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "probe.hh"

namespace perfbench {

/** Command-line parameters every workload sees. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = "."; ///< where run artifacts are written
    double spawnTimeS = 0.0;  ///< steady clock at process spawn (0: main)
    bool setupOnly = false;   ///< stop after the set-up
};

/** What a traced pass measured around its timed phase. */
struct TracedWall
{
    double wallS = 0.0;       ///< traced duration of the timed phase
    double attributedS = 0.0; ///< sum of its top-level child spans
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs (dataset, zoo networks, search space). Timed and
     *  repeated by the harness; must be idempotent. */
    virtual void setup() = 0;

    /** Untimed per-run preparation (fresh nets, cold caches). */
    virtual void prepare() = 0;

    /** The timed phase: calls into the library's public entry points. */
    virtual void run() = 0;

    /** Digest and invariants of the last run()'s outputs. */
    virtual Checks check() = 0;

    /** Work units of one run() (requests, images, design points). */
    virtual double work() const = 0;

    /** Workload-specific name and unit of work() / wall_s. */
    virtual const char *rateName() const = 0;
    virtual const char *rateUnit() const = 0;

    /**
     * Checks that need an execution of their own, made once after the
     * timed runs of an untraced pass. The digest must equal run()'s.
     * Returns false when the workload has none.
     */
    virtual bool extraCheck(Checks &out)
    {
        (void)out;
        return false;
    }

    /**
     * The traced pass: one run of the timed phase with tracing on and
     * the benchmark's spans around every layer call, plus the direct
     * per-layer calls. Fills @p layers and @p checks (the traced
     * run's digest must equal the untraced one's). @p rssGrowthKb is
     * how far the first untraced run raised the peak resident set.
     */
    virtual TracedWall traced(MetricList &layers, Checks &checks,
                              double rssGrowthKb) = 0;
};

std::unique_ptr<Workload> makeServePoisson(const RunOptions &opt);
std::unique_ptr<Workload> makeTrainTable6(const RunOptions &opt);
std::unique_ptr<Workload> makeDseAnneal(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
