/**
 * @file
 * Datacenter serving driver on top of src/serving: an open-loop
 * arrival process over the model zoo, an async batching scheduler,
 * and replicated (optionally sharded) INCA or WS chip servers, all in
 * virtual time.
 *
 *   $ ./build/examples/serve --network vgg16 --arrivals poisson \
 *       --rate 200/s --duration 2s --replicas 4 \
 *       --shard tensor:4 --batch-policy 8:2ms --slo-ms 25 \
 *       --json report.json --csv requests.csv
 *
 * The report -- and every exported artifact -- is bit-identical at
 * any thread count and from a cold or warm batch-cost cache: the
 * simulated clock advances only on event timestamps, never on wall
 * time.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "examples/cli.hh"
#include "serving/export.hh"
#include "serving/simulator.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --engine inca|ws        chip model (default inca)\n"
        "  --network <name>        model-zoo network (default vgg16)\n"
        "  --stream n[:w[:p]]      repeatable workload mix entry:\n"
        "                          network, weight, priority; "
        "replaces --network\n"
        "  --arrivals poisson|bursty|diurnal\n"
        "  --rate <r>              offered load, e.g. 200/s, 1.5k/s\n"
        "  --duration <d>          arrival horizon, e.g. 500ms, 2s\n"
        "  --seed <n>              arrival/stream RNG seed\n"
        "  --burst <x>             bursty on-state rate factor\n"
        "  --mean-on <d>           bursty mean on-state sojourn\n"
        "  --mean-off <d>          bursty mean off-state sojourn\n"
        "  --period <d>            diurnal cycle length\n"
        "  --depth <x>             diurnal modulation depth [0,1)\n"
        "  --replicas <n>          server count (default 1)\n"
        "  --shard kind[:chips]    replica, pipeline:<n>, tensor:<n>\n"
        "  --batch-policy n:<d>    batch cap and timeout (e.g. "
        "8:2ms)\n"
        "  --slo-ms <x>            latency SLO for goodput\n"
        "  --failures <spec>       none | mtbf:mttr[:frac[:slow]]\n"
        "                          e.g. 200ms:50ms or 2s:100ms:0.3:8\n"
        "  --fail-seed <n>         failure-process RNG seed\n"
        "  --fail-recovery <d>     post-repair reload window\n"
        "  --fail-aging <x>        per-repair MTBF scale in (0,1]\n"
        "  --fail-drop             drop in-flight work on a failure\n"
        "                          instead of re-enqueuing it\n"
        "  --retry <spec>          none | budget:backoff[:jitter]\n"
        "                          e.g. 3:1ms or 5:500us:0.25\n"
        "  --deadline-ms <x>       per-request deadline (0 = off)\n"
        "  --hedge <d>             hedge batches waiting this long\n"
        "  --queue-cap <n>         per-stream queue bound (0 = off)\n"
        "  --json <path>           write the JSON report\n"
        "  --csv <path>            write the per-request CSV\n"
        "  --timeline-csv <path>   write the queue-depth timeline\n",
        argv0);
}

/** Open @p path for a streamed export; fatal when it cannot be. */
void
openOutput(std::ofstream &out, const std::string &path)
{
    out.open(path);
    if (!out)
        inca::fatal("cannot write '%s'", path.c_str());
}

/** Flush a streamed export; fatal when any write failed. */
void
closeOutput(std::ofstream &out, const std::string &path)
{
    out.close();
    if (!out)
        inca::fatal("error writing '%s'", path.c_str());
}

inca::serving::ShardSpec
parseShard(const char *flag, const char *text)
{
    using namespace inca;
    serving::ShardSpec shard;
    const std::string s = text;
    const std::size_t colon = s.find(':');
    shard.kind =
        serving::shardKindByName(s.substr(0, colon));
    if (colon != std::string::npos)
        shard.chips = int(cli::parsePositive(
            flag, s.c_str() + colon + 1));
    else if (shard.kind != serving::ShardKind::Replica)
        fatal("%s: '%s' needs a chip count (e.g. tensor:4)", flag,
              text);
    return shard;
}

inca::serving::BatchPolicy
parseBatchPolicy(const char *flag, const char *text)
{
    using namespace inca;
    serving::BatchPolicy policy;
    const std::string s = text;
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos)
        fatal("%s: '%s' is not size:timeout (e.g. 8:2ms)", flag,
              text);
    policy.maxBatch = int(
        cli::parsePositive(flag, s.substr(0, colon).c_str()));
    policy.timeoutS =
        cli::parseDuration(flag, s.c_str() + colon + 1);
    return policy;
}

inca::serving::StreamSpec
parseStream(const char *flag, const char *text)
{
    using namespace inca;
    serving::StreamSpec stream;
    const std::string s = text;
    const std::size_t c1 = s.find(':');
    stream.network = s.substr(0, c1);
    if (stream.network.empty())
        fatal("%s: '%s' names no network", flag, text);
    if (c1 != std::string::npos) {
        const std::size_t c2 = s.find(':', c1 + 1);
        const std::string w =
            s.substr(c1 + 1, c2 == std::string::npos
                                 ? std::string::npos
                                 : c2 - c1 - 1);
        stream.weight = cli::parseDouble(flag, w.c_str());
        if (stream.weight <= 0.0)
            fatal("%s: stream weight must be positive in '%s'", flag,
                  text);
        if (c2 != std::string::npos)
            stream.priority =
                int(cli::parseInt(flag, s.c_str() + c2 + 1));
    }
    return stream;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    serving::ServingSpec spec;
    std::vector<serving::StreamSpec> streams;
    std::string network = "vgg16";
    std::string jsonPath, csvPath, timelinePath;

    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--engine") == 0) {
            const std::string e = value(i);
            if (e == "inca")
                spec.incaEngine = true;
            else if (e == "ws" || e == "baseline")
                spec.incaEngine = false;
            else
                fatal("unknown engine '%s' (expected inca or ws)",
                      e.c_str());
        } else if (std::strcmp(a, "--network") == 0) {
            network = value(i);
        } else if (std::strcmp(a, "--stream") == 0) {
            streams.push_back(parseStream(a, value(i)));
        } else if (std::strcmp(a, "--arrivals") == 0) {
            spec.arrivals.kind =
                serving::arrivalKindByName(value(i));
        } else if (std::strcmp(a, "--rate") == 0) {
            spec.arrivals.ratePerS = cli::parseRate(a, value(i));
        } else if (std::strcmp(a, "--duration") == 0) {
            spec.durationS = cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--seed") == 0) {
            spec.arrivals.seed = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--burst") == 0) {
            spec.arrivals.burstFactor = cli::parseDouble(a, value(i));
        } else if (std::strcmp(a, "--mean-on") == 0) {
            spec.arrivals.meanOnS = cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--mean-off") == 0) {
            spec.arrivals.meanOffS = cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--period") == 0) {
            spec.arrivals.diurnalPeriodS =
                cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--depth") == 0) {
            spec.arrivals.diurnalDepth =
                cli::parseDouble(a, value(i));
        } else if (std::strcmp(a, "--replicas") == 0) {
            spec.replicas = int(cli::parsePositive(a, value(i)));
        } else if (std::strcmp(a, "--shard") == 0) {
            spec.shard = parseShard(a, value(i));
        } else if (std::strcmp(a, "--batch-policy") == 0) {
            spec.batch = parseBatchPolicy(a, value(i));
        } else if (std::strcmp(a, "--slo-ms") == 0) {
            spec.sloS = cli::parseDouble(a, value(i)) * 1e-3;
        } else if (std::strcmp(a, "--failures") == 0) {
            // The --fail-* knobs compose with --failures in any
            // flag order: parse replaces only what it names.
            const serving::FailureSpec keep = spec.failures;
            spec.failures = serving::parseFailureSpec(a, value(i));
            spec.failures.seed = keep.seed;
            spec.failures.recoveryS = keep.recoveryS;
            spec.failures.aging = keep.aging;
            spec.failures.dropInFlight = keep.dropInFlight;
        } else if (std::strcmp(a, "--fail-seed") == 0) {
            spec.failures.seed = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--fail-recovery") == 0) {
            spec.failures.recoveryS =
                cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--fail-aging") == 0) {
            spec.failures.aging = cli::parseDouble(a, value(i));
            if (spec.failures.aging <= 0.0 ||
                spec.failures.aging > 1.0)
                fatal("%s: aging factor must be in (0, 1]", a);
        } else if (std::strcmp(a, "--fail-drop") == 0) {
            spec.failures.dropInFlight = true;
        } else if (std::strcmp(a, "--retry") == 0) {
            spec.retry = serving::parseRetrySpec(a, value(i));
        } else if (std::strcmp(a, "--deadline-ms") == 0) {
            spec.deadlineS = cli::parseDouble(a, value(i)) * 1e-3;
            if (spec.deadlineS < 0.0)
                fatal("%s: deadline must be non-negative", a);
        } else if (std::strcmp(a, "--hedge") == 0) {
            spec.hedgeDelayS = cli::parseDuration(a, value(i));
        } else if (std::strcmp(a, "--queue-cap") == 0) {
            spec.queueCap = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strcmp(a, "--csv") == 0) {
            csvPath = value(i);
        } else if (std::strcmp(a, "--timeline-csv") == 0) {
            timelinePath = value(i);
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown flag '%s'", a);
        }
    }

    if (streams.empty())
        streams.push_back(serving::StreamSpec{network, 1.0, 0});
    spec.streams = std::move(streams);

    // The queue-depth timeline is never stored: it streams to its
    // file and the trace while the simulation runs.
    std::ofstream timelineOut;
    serving::DepthObserver onDepth;
    if (!timelinePath.empty()) {
        openOutput(timelineOut, timelinePath);
        onDepth = [toCsv = serving::timelineCsv(timelineOut)](
                      Seconds t, std::uint64_t depth) {
            toCsv(t, depth);
            serving::traceDepth(t, depth);
        };
    } else if (trace::enabled()) {
        onDepth = serving::traceDepth;
    }

    serving::ServingReport report;
    {
        sim::ScopedPhaseTimer timer("serve");
        report = serving::simulate(spec, onDepth);
    }
    if (!timelinePath.empty())
        closeOutput(timelineOut, timelinePath);

    std::fputs(serving::reportText(report).c_str(), stdout);
    serving::publishMetrics(report);
    serving::emitTrace(report);

    if (!jsonPath.empty())
        sim::writeFile(jsonPath, serving::reportJson(report));
    if (!csvPath.empty()) {
        std::ofstream csv;
        openOutput(csv, csvPath);
        serving::requestsCsv(csv, report);
        closeOutput(csv, csvPath);
    }

    sim::printPhaseTimes();
    return 0;
}
