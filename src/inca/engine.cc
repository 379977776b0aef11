#include "inca/engine.hh"

#include "arch/power.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "ir/lower.hh"

namespace inca {
namespace core {

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

IncaEngine::IncaEngine(arch::IncaConfig cfg)
    : cfg_(std::move(cfg)), idlePower_(arch::incaIdlePower(cfg_))
{
}

Seconds
IncaEngine::readCycleTime(int batchSize) const
{
    return ir::incaReadCycleTime(cfg_, batchSize);
}

RunCost
IncaEngine::inference(const nn::NetworkDesc &net, int batchSize) const
{
    inca_assert(batchSize > 0, "batch size must be positive");
    trace::Span span(trace::spanName("inca.inference ", net.name));
    metrics::ScopedTimer timer(runEvalHistogram());
    return ir::analyticWalk(
        ir::lowerInca(cfg_, net, Phase::Inference, batchSize));
}

RunCost
IncaEngine::training(const nn::NetworkDesc &net, int batchSize) const
{
    inca_assert(batchSize > 0, "batch size must be positive");
    trace::Span span(trace::spanName("inca.training ", net.name));
    metrics::ScopedTimer timer(runEvalHistogram());
    return ir::analyticWalk(
        ir::lowerInca(cfg_, net, Phase::Training, batchSize));
}

} // namespace core
} // namespace inca
