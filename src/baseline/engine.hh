/**
 * @file
 * Weight-stationary baseline analytic engine.
 *
 * Models the paper's baseline: an ISAAC-style [42] 2D 128 x 128
 * crossbar accelerator with pipelined inference, extended with
 * PipeLayer-style [48] in-situ training. Since the IR refactor the
 * per-layer math lives in the shared lowering pass (ir/lower.hh);
 * this engine lowers the network and folds the instruction stream
 * back through ir::analyticWalk(). Model highlights:
 *
 *  - weights stay in 1T1R crossbars; every window's inputs are fetched
 *    from buffers (Eq. 5 per output element) and every output is saved
 *    back (Eq. 6) to keep the pipeline fed -- Limitation 1;
 *  - training keeps a transposed-weight copy in extra crossbars and
 *    stores activations and errors in RRAM -- Limitation 2;
 *  - 8-bit ADCs convert every column of every active array each input
 *    bit cycle, and whole crossbars stay driven even when depthwise
 *    kernels use 9 of 128 rows -- Limitations 3 and 4's hardware cost;
 *  - images in a batch pipeline through layers in inference, but the
 *    forward/backward dependency serializes them in training, which is
 *    where INCA's batch parallelism wins big.
 */

#ifndef INCA_BASELINE_ENGINE_HH
#define INCA_BASELINE_ENGINE_HH

#include "arch/config.hh"
#include "arch/cost.hh"
#include "nn/network.hh"

namespace inca {
namespace baseline {

/** Analytic simulator for the WS baseline. */
class BaselineEngine
{
  public:
    explicit BaselineEngine(arch::BaselineConfig cfg);

    /** Simulate one inference batch (layer-pipelined). */
    arch::RunCost inference(const nn::NetworkDesc &net,
                            int batchSize) const;

    /** Simulate one training iteration (per-image serialized). */
    arch::RunCost training(const nn::NetworkDesc &net,
                           int batchSize) const;

    const arch::BaselineConfig &config() const { return cfg_; }

    /** Chip idle power used for static energy. */
    Watts idlePower() const { return idlePower_; }

  private:
    arch::BaselineConfig cfg_;
    Watts idlePower_;
};

} // namespace baseline
} // namespace inca

#endif // INCA_BASELINE_ENGINE_HH
