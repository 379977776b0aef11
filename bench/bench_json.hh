/**
 * @file
 * Machine-readable bench output.
 *
 * Every bench binary accepts `--json <path>` (or `--json=<path>`):
 * after the report runs, the named series of (label, value) points it
 * registered via JsonReport::addPoint, the full process metrics
 * registry, and a small provenance block are written to the path as
 * one JSON object. The flag is stripped from argv before
 * google-benchmark parses it, and nothing extra is printed, so the
 * human-readable stdout is unchanged whether or not JSON is requested.
 */

#ifndef INCA_BENCH_BENCH_JSON_HH
#define INCA_BENCH_BENCH_JSON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/export_util.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"

namespace inca {
namespace bench {

/** Schema tag stamped into every bench JSON file; bump on layout
 * changes so downstream tooling (bench_compare, the CI perf gate)
 * can refuse files it does not understand. */
inline constexpr const char *kBenchSchema = "inca.bench.v1";

/**
 * One measured benchmark: raw per-repetition samples plus the
 * summary statistic the regression gate compares. Samples are kept
 * raw precisely so a later reader can recompute (and a test can
 * cross-check) the trimmed mean.
 */
struct BenchRun
{
    std::string name;  ///< e.g. "gemm_m128_k128_n128"
    std::string isa;   ///< kernel ISA the run executed ("scalar"...)
    std::string unit = "ns";
    int warmup = 0; ///< repetitions discarded before sampling
    int trim = 0;   ///< samples dropped from EACH end for the mean
    std::vector<double> samplesNs;      ///< one per kept repetition
    std::vector<std::int64_t> timestampsUs; ///< sample end times, monotone
    double trimmedMeanNs = 0.0;
};

/**
 * Mean of @p samples after dropping the @p trim smallest and @p trim
 * largest values -- the noise-robust statistic BENCH_*.json records
 * and the perf gate compares. Requires samples.size() > 2 * trim.
 */
inline double
trimmedMean(std::vector<double> samples, int trim)
{
    inca_assert(trim >= 0 &&
                    samples.size() > std::size_t(2 * trim),
                "trimmedMean: %zu samples cannot lose %d from each end",
                samples.size(), trim);
    std::sort(samples.begin(), samples.end());
    double sum = 0.0;
    const std::size_t n = samples.size() - std::size_t(trim);
    for (std::size_t i = std::size_t(trim); i < n; ++i)
        sum += samples[i];
    return sum / double(n - std::size_t(trim));
}

/** Collects named series of (label, value) points for --json output. */
class JsonReport
{
  public:
    /** Process-wide collector used by the INCA_BENCH_MAIN harness. */
    static JsonReport &
    instance()
    {
        static JsonReport *report = new JsonReport;
        return *report;
    }

    /** Append one point to the series named @p series. */
    void
    addPoint(const std::string &series, const std::string &label,
             double value)
    {
        for (auto &s : series_) {
            if (s.name == series) {
                s.points.emplace_back(label, value);
                return;
            }
        }
        series_.push_back({series, {{label, value}}});
    }

    /** Record one measured benchmark (computes the trimmed mean). */
    void
    addBenchmark(BenchRun run)
    {
        run.trimmedMeanNs = trimmedMean(run.samplesNs, run.trim);
        benchmarks_.push_back(std::move(run));
    }

    /** Serialize series + benchmarks + metrics + provenance. */
    std::string
    toJson() const
    {
        std::string out = "{\n  \"schema\": \"";
        out += kBenchSchema;
        out += "\",\n  \"series\": {";
        bool firstSeries = true;
        for (const auto &s : series_) {
            if (!firstSeries)
                out += ",";
            firstSeries = false;
            out += "\n    \"" + escape(s.name) + "\": [";
            bool firstPoint = true;
            for (const auto &[label, value] : s.points) {
                if (!firstPoint)
                    out += ",";
                firstPoint = false;
                out += "\n      {\"label\": \"" + escape(label) +
                       "\", \"value\": " + num(value) + "}";
            }
            out += "\n    ]";
        }
        out += "\n  },\n  \"benchmarks\": [";
        bool firstBench = true;
        for (const auto &b : benchmarks_) {
            if (!firstBench)
                out += ",";
            firstBench = false;
            out += "\n    {\"name\": \"" + escape(b.name) +
                   "\", \"isa\": \"" + escape(b.isa) +
                   "\", \"unit\": \"" + escape(b.unit) +
                   "\", \"warmup\": " + std::to_string(b.warmup) +
                   ", \"trim\": " + std::to_string(b.trim) +
                   ",\n     \"samples_ns\": [";
            bool firstVal = true;
            for (double v : b.samplesNs) {
                if (!firstVal)
                    out += ", ";
                firstVal = false;
                out += num(v);
            }
            out += "],\n     \"timestamps_us\": [";
            firstVal = true;
            for (std::int64_t t : b.timestampsUs) {
                if (!firstVal)
                    out += ", ";
                firstVal = false;
                out += std::to_string(t);
            }
            out += "],\n     \"trimmed_mean_ns\": " +
                   num(b.trimmedMeanNs) + "}";
        }
        out += "\n  ],\n";
        out += "  \"provenance\": {\"threads\": " +
               std::to_string(ThreadPool::globalThreadCount()) +
               ", \"env\": {" + envEntries() + "}},\n";
        out += "  \"metrics\": " + metrics::toJson() + "\n}\n";
        return out;
    }

    /** Write toJson() to @p path; fatal() when the file cannot open. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write '%s'", path.c_str());
        out << toJson();
    }

  private:
    struct Series
    {
        std::string name;
        std::vector<std::pair<std::string, double>> points;
    };

    static std::string
    num(double v)
    {
        // %.17g round-trips any double exactly, so a reader can
        // recompute the trimmed mean from samples_ns bit-for-bit.
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    static std::string
    envEntries()
    {
        std::string out;
        for (const std::string &name : knownEnvVars()) {
            if (!out.empty())
                out += ", ";
            out += "\"" + name + "\": " + envJson(name.c_str());
        }
        return out;
    }

    std::vector<Series> series_;
    std::vector<BenchRun> benchmarks_;
};

/**
 * Remove `--json <path>` / `--json=<path>` from argv (so
 * benchmark::Initialize never sees it) and return the path, or ""
 * when the flag is absent.
 */
inline std::string
extractJsonPath(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            path = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return path;
}

} // namespace bench
} // namespace inca

#endif // INCA_BENCH_BENCH_JSON_HH
