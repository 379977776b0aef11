#include "baseline/engine.hh"

#include "arch/power.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "ir/lower.hh"

namespace inca {
namespace baseline {

using arch::Phase;
using arch::RunCost;

namespace {

/** Wall clock of one whole-run evaluation. */
metrics::Histogram &
runEvalHistogram()
{
    static metrics::Histogram *h =
        &metrics::histogram("engine.run_eval_us");
    return *h;
}

} // namespace

BaselineEngine::BaselineEngine(arch::BaselineConfig cfg)
    : cfg_(std::move(cfg)), idlePower_(arch::baselineIdlePower(cfg_))
{
}

RunCost
BaselineEngine::inference(const nn::NetworkDesc &net,
                          int batchSize) const
{
    inca_assert(batchSize > 0, "batch size must be positive");
    trace::Span span(trace::spanName("ws.inference ", net.name));
    metrics::ScopedTimer timer(runEvalHistogram());
    return ir::analyticWalk(
        ir::lowerWs(cfg_, net, Phase::Inference, batchSize));
}

RunCost
BaselineEngine::training(const nn::NetworkDesc &net, int batchSize) const
{
    inca_assert(batchSize > 0, "batch size must be positive");
    trace::Span span(trace::spanName("ws.training ", net.name));
    metrics::ScopedTimer timer(runEvalHistogram());
    return ir::analyticWalk(
        ir::lowerWs(cfg_, net, Phase::Training, batchSize));
}

} // namespace baseline
} // namespace inca
