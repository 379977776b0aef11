/**
 * @file
 * The perfbench binary: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *             [--out <dir>] [--spawn-time <s>] [--setup-only 0|1]
 *
 * Untraced (--trace 0): sets the workload up, then repeats its timed
 * phase for the given seconds, checking every run's simulated outputs,
 * and reports the end-to-end metrics. Traced (--trace 1): one traced
 * run with the per-layer breakdown, one untraced run for the tracing
 * overhead. Prints a human-readable report, then one JSON line (the
 * last line) for perfbench/run.py, which judges the checks.
 *
 * Set-up time counts from --spawn-time, the steady-clock (Linux
 * CLOCK_MONOTONIC) reading the parent took just before starting this
 * process, so it includes process start; --setup-only 1 stops after
 * the set-up, which lets run.py take the median of several starts.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/export_util.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "workload.hh"

namespace {

using namespace perfbench;

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += inca::jsonEscape(s);
    out += '"';
    return out;
}

std::string
num17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            inca::fatal("%s needs a value", a.c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0' || *v == '-')
                inca::fatal("--seed: '%s' is not a whole number", v);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(opt.seconds > 0.0))
                inca::fatal("--seconds: '%s' is not positive", v);
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                inca::fatal("--trace: expected 0 or 1, got '%s'", v);
            opt.trace = v[0] == '1';
        } else if (a == "--out") {
            opt.outDir = v;
        } else if (a == "--spawn-time") {
            opt.spawnTimeS = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0')
                inca::fatal("--spawn-time: '%s' is not a number", v);
        } else if (a == "--setup-only") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                inca::fatal("--setup-only: expected 0 or 1, got '%s'", v);
            opt.setupOnly = v[0] == '1';
        } else {
            inca::fatal("unknown flag '%s'", a.c_str());
        }
    }
    if (!haveWorkload)
        inca::fatal("--workload is required");
    return opt;
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &opt)
{
    if (opt.workload == "serve_poisson_1m")
        return makeServePoisson(opt);
    if (opt.workload == "train_table6")
        return makeTrainTable6(opt);
    if (opt.workload == "dse_anneal_resnet50")
        return makeDseAnneal(opt);
    inca::fatal("unknown workload '%s'", opt.workload.c_str());
}

/** Quartile by linear interpolation (for the printed spread only). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

void
printMetric(const Metric &m)
{
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

/** The last line: every operation's checks, then the metrics. */
void
printJson(const std::vector<Checks> &ops, const MetricList &metrics)
{
    std::string out = "{\"ops\": [";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        out += (i ? ", " : "");
        out += "{\"digest\": " + quoted(ops[i].digest) +
               ", \"failures\": [";
        for (std::size_t f = 0; f < ops[i].failures.size(); ++f)
            out += (f ? ", " : "") + quoted(ops[i].failures[f]);
        out += "]}";
    }
    out += "], \"metrics\": {";
    const auto &all = metrics.all();
    for (std::size_t i = 0; i < all.size(); ++i)
        out += (i ? ", " : "") + quoted(all[i].name) +
               ": {\"value\": " + num17(all[i].value) +
               ", \"unit\": " + quoted(all[i].unit) + "}";
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
untracedPass(const RunOptions &opt, Workload &w, double startS)
{
    w.setup();
    const double setupS = nowS() - startS;

    std::vector<double> walls;
    std::vector<Checks> ops;
    double work = 0.0;
    const double phaseStart = nowS();
    do {
        w.prepare();
        const double s = nowS();
        w.run();
        walls.push_back(nowS() - s);
        ops.push_back(w.check());
        work = w.work();
    } while (nowS() - phaseStart < opt.seconds);
    const double peakMb = double(peakRssKb()) / 1024.0;

    Checks extra;
    if (w.extraCheck(extra))
        ops.push_back(extra);
    const double gflops = scalarGemmGflops();

    MetricList m;
    m.declare("wall_s", "s");
    m.declare("setup_s", "s");
    m.declare("peak_rss_mb", "MB");
    m.declare("throughput_per_s", "1/s");
    const double wall = median(walls);
    m.set("wall_s", wall);
    m.set("setup_s", setupS);
    m.set("peak_rss_mb", peakMb);
    m.set("throughput_per_s", work / wall);

    std::printf("workload %s  seed %llu  threads %d  untraced\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                inca::ThreadPool::globalThreadCount());
    std::printf("  timed runs %zu: wall_s median %.6f  q1 %.6f  q3 %.6f  "
                "min %.6f  max %.6f\n",
                walls.size(), wall, quantile(walls, 0.25),
                quantile(walls, 0.75),
                *std::min_element(walls.begin(), walls.end()),
                *std::max_element(walls.begin(), walls.end()));
    std::printf("  wall_s of each run:");
    for (const double x : walls)
        std::printf(" %.4f", x);
    std::printf("\n");
    for (const Metric &metric : m.all())
        printMetric(metric);
    std::printf("  %-34s %16.6g %s\n", w.rateName(), work / wall,
                w.rateUnit());
    std::printf("  %-34s %16.6g %s\n", "host.gemm_gflops", gflops,
                "GFLOP/s");
    std::printf("  digest %s  checked operations %zu\n",
                ops.front().digest.c_str(), ops.size());
    printJson(ops, m);
    return 0;
}

int
tracedPass(const RunOptions &opt, Workload &w)
{
    w.setup();

    MetricList layers;
    declarePerLayer(layers);
    std::vector<Checks> ops;

    // Untraced run first: the peak resident set it adds is the
    // workload's memory growth (later runs reuse the freed heap).
    w.prepare();
    const std::uint64_t rssBefore = currentRssKb();
    w.run();
    const double rssGrowthKb = double(peakRssKb()) - double(rssBefore);
    ops.push_back(w.check());

    ops.emplace_back();
    inca::trace::start(opt.outDir + "/" + opt.workload + ".trace.json");
    const TracedWall tw = w.traced(layers, ops.back(), rssGrowthKb);
    inca::trace::stop();
    inca::trace::clear();

    // The overhead compares against an untraced run made, like the
    // traced one, after a first run has shaped the heap.
    w.prepare();
    const double s = nowS();
    w.run();
    const double untraced = nowS() - s;
    ops.push_back(w.check());

    layers.set("host.gemm_gflops", scalarGemmGflops());
    layers.set("trace.overhead_s", tw.wallS - untraced);
    layers.set("unattributed_s", tw.wallS - tw.attributedS);

    std::printf("workload %s  seed %llu  threads %d  traced\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                inca::ThreadPool::globalThreadCount());
    std::printf("  traced wall_s %.6f  untraced wall_s %.6f  attributed "
                "%.6f  unattributed %.6f\n",
                tw.wallS, untraced, tw.attributedS,
                tw.wallS - tw.attributedS);
    std::printf("  trace written to %s/%s.trace.json\n",
                opt.outDir.c_str(), opt.workload.c_str());
    for (const Metric &metric : layers.all())
        printMetric(metric);
    std::printf("  digests %s %s %s (untraced, traced, untraced)\n",
                ops[0].digest.c_str(), ops[1].digest.c_str(),
                ops[2].digest.c_str());
    printJson(ops, layers);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const double mainS = nowS();
    const RunOptions opt = parseArgs(argc, argv);
    const double startS = opt.spawnTimeS > 0.0 ? opt.spawnTimeS : mainS;
    inca::setQuiet(true);
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (opt.setupOnly) {
        w->setup();
        std::printf("{\"setup_s\": %s}\n", num17(nowS() - startS).c_str());
        return 0;
    }
    return opt.trace ? tracedPass(opt, *w) : untracedPass(opt, *w, startS);
}
