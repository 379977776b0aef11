#include "probe.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "event/analysis.hh"
#include "event/event.hh"
#include "ir/ir.hh"
#include "ir/lower.hh"
#include "tensor/kernels/kernels.hh"

namespace perfbench {

namespace {

/** A "Vm*:  <n> kB" line of /proc/self/status, in KiB; 0 if absent. */
std::uint64_t
statusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0)
            return std::strtoull(line.c_str() + len, nullptr, 10);
    return 0;
}

/** Registry caches whose hit ratio and miss time the trace reports. */
constexpr const char *kCaches[] = {"inca.layer", "inca.run", "arch.area",
                                   "arch.power", "serving.batch"};

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
emitSpan(const char *name, double startS, double durS)
{
    if (!inca::trace::enabled())
        return;
    // Map the steady-clock interval onto the recorder's timebase.
    const double agoS = nowS() - startS;
    const std::int64_t startUs =
        inca::trace::nowMicros() - std::int64_t(std::llround(agoS * 1e6));
    inca::trace::emitComplete(name, startUs,
                              std::int64_t(std::llround(durS * 1e6)));
}

std::uint64_t
peakRssKb()
{
    return statusKb("VmHWM:");
}

std::uint64_t
currentRssKb()
{
    return statusKb("VmRSS:");
}

std::string
digestHex(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
scalarGemmGflops()
{
    namespace kernels = inca::kernels;
    constexpr std::int64_t kN = 192;
    std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
    for (std::int64_t i = 0; i < kN * kN; ++i) {
        a[std::size_t(i)] = float(i % 17) * 0.25f - 2.0f;
        b[std::size_t(i)] = float(i % 13) * 0.5f - 3.0f;
    }
    kernels::setActive(kernels::Isa::Scalar);
    const kernels::KernelSet &ks = kernels::active();
    std::vector<double> secs;
    for (int rep = 0; rep < 7; ++rep) {
        std::fill(c.begin(), c.end(), 0.0f);
        const double start = nowS();
        ks.gemmRowRange(a.data(), kN, b.data(), kN, c.data(), kN, 0, kN,
                        kN, kN);
        secs.push_back(nowS() - start);
    }
    kernels::resetActive();
    inca_assert(std::isfinite(c[0]), "calibration GEMM diverged");
    return 2.0 * double(kN * kN * kN) / median(secs) / 1e9;
}

void
MetricList::declare(const std::string &name, const std::string &unit)
{
    for (const Metric &m : metrics_)
        inca_assert(m.name != name, "metric '%s' declared twice",
                    name.c_str());
    metrics_.push_back(Metric{name, 0.0, unit});
}

std::size_t
MetricList::index(const std::string &name) const
{
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        if (metrics_[i].name == name)
            return i;
    inca::panic("metric '%s' was never declared", name.c_str());
}

void
MetricList::set(const std::string &name, double value)
{
    metrics_[index(name)].value = value;
}

void
MetricList::add(const std::string &name, double value)
{
    metrics_[index(name)].value += value;
}

double
MetricList::get(const std::string &name) const
{
    return metrics_[index(name)].value;
}

void
declarePerLayer(MetricList &m)
{
    // serving
    m.declare("serving.arrivals_s", "s");
    m.declare("serving.cost_table_s", "s");
    m.declare("serving.simulate_s", "s");
    m.declare("serving.loop_s", "s");
    m.declare("serving.loop_ns_per_req", "ns");
    m.declare("serving.export_s", "s");
    m.declare("serving.rss_b_per_req", "bytes");
    m.declare("serving.offered", "count");
    m.declare("serving.batches", "count");
    // common/metrics
    m.declare("metrics.latency_dropped", "count");
    m.declare("metrics.p99_rel_err", "ratio");
    // ir / event
    m.declare("ir.lower_s", "s");
    m.declare("ir.walk_s", "s");
    m.declare("ir.instrs", "count");
    m.declare("event.execute_s", "s");
    m.declare("event.analyze_s", "s");
    m.declare("event.ns_per_instr", "ns");
    // dse
    m.declare("dse.explore_s", "s");
    m.declare("dse.points", "count");
    m.declare("dse.frontier", "count");
    m.declare("dse.rss_kb_per_point", "KiB");
    // common/cache, common/thread_pool
    for (const char *cache : kCaches) {
        m.declare(std::string("cache.") + cache + ".hit_ratio", "ratio");
        m.declare(std::string("cache.") + cache + ".miss_s", "s");
    }
    m.declare("pool.tasks", "count");
    m.declare("pool.task_wait_s", "s");
    // nn / tensor
    for (const char *mod : {"conv", "linear"})
        for (const char *phase : {"fwd", "bwd", "step"})
            m.declare(std::string("nn.") + mod + "." + phase + "_s", "s");
    for (const char *mod : {"relu", "maxpool", "flatten"})
        for (const char *phase : {"fwd", "bwd"})
            m.declare(std::string("nn.") + mod + "." + phase + "_s", "s");
    m.declare("nn.residual.self_s", "s");
    m.declare("nn.eval_fwd_s", "s");
    m.declare("nn.trainer.self_s", "s");
    m.declare("nn.conv.macs", "count");
    m.declare("nn.conv.gmac_per_s", "GMAC/s");
    m.declare("nn.noise_fwd_extra_s", "s");
    // host calibration and the trace itself
    m.declare("host.gemm_gflops", "GFLOP/s");
    m.declare("trace.overhead_s", "s");
    m.declare("unattributed_s", "s");
}

void
readRegistry(MetricList &m)
{
    namespace metrics = inca::metrics;
    for (const char *cache : kCaches) {
        const std::string base = std::string("cache.") + cache;
        const double hits = double(metrics::counter(base + ".hit").value());
        const double misses =
            double(metrics::counter(base + ".miss").value());
        m.set(base + ".hit_ratio",
              hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
        m.set(base + ".miss_s",
              metrics::histogram(base + ".miss_us").sum() / 1e6);
    }
    m.set("pool.tasks", double(metrics::counter("pool.tasks").value()));
    m.set("pool.task_wait_s",
          metrics::histogram("pool.task_wait_us").sum() / 1e6);
}

std::vector<double>
timeIrEvent(const std::vector<IrCandidate> &cands, MetricList &m)
{
    namespace ir = inca::ir;
    namespace event = inca::event;
    std::vector<double> makespans;
    double instrs = 0.0;
    for (const IrCandidate &c : cands) {
        ir::Program prog;
        m.add("ir.lower_s", timed("ir.lowerInca", [&] {
                  prog = ir::lowerInca(c.cfg, *c.net,
                                       inca::arch::Phase::Inference,
                                       c.batch, {/*overlap=*/true});
              }));
        m.add("ir.walk_s", timed("ir.analyticWalk",
                                 [&] { (void)ir::analyticWalk(prog); }));
        event::TimedRun run;
        m.add("event.execute_s", timed("event.execute", [&] {
                  run = event::execute(prog);
              }));
        event::AnalyzeOptions aopts;
        aopts.runWhatIf = false;
        m.add("event.analyze_s", timed("event.analyze", [&] {
                  (void)event::analyze(prog, run, aopts);
              }));
        instrs += double(prog.instrs.size());
        makespans.push_back(run.run.latency);
    }
    m.set("ir.instrs", instrs);
    m.set("event.ns_per_instr",
          instrs == 0.0 ? 0.0 : m.get("event.execute_s") * 1e9 / instrs);
    return makespans;
}

} // namespace perfbench
