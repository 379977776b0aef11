/**
 * @file
 * INCA end-to-end analytic engine.
 *
 * Produces per-layer energy, latency, and event counts for inference
 * and for full training iterations (feedforward + backpropagation +
 * weight update). Since the IR refactor, the per-layer math lives in
 * the shared lowering pass (ir/lower.hh): this engine lowers the
 * network to the instruction stream and folds it back through
 * ir::analyticWalk(), so the analytic and event backends execute one
 * and the same program. The model follows the paper's IS dataflow:
 *
 *  - activations live in the 3D 2T1R arrays; one batch image per
 *    vertical plane, so a whole batch of up to 64 images computes in
 *    parallel for the cost of one (Section III-B);
 *  - weights stream from buffers (DRAM when the model exceeds on-chip
 *    buffer capacity) and are reused across every window and every
 *    plane -- Eq. 5 x N buffer accesses per layer;
 *  - outputs are written straight into the next layer's arrays, never
 *    into buffers (the key WS Limitation-1 fix);
 *  - in backprop, errors overwrite the now-dead activations in place,
 *    ReLU gradients are AND gates and max-pool routing is a LUT
 *    (Section IV-C); weight updates write back through the buffers.
 */

#ifndef INCA_INCA_ENGINE_HH
#define INCA_INCA_ENGINE_HH

#include "arch/config.hh"
#include "arch/cost.hh"
#include "nn/network.hh"

namespace inca {
namespace core {

/** Analytic simulator for the INCA architecture. */
class IncaEngine
{
  public:
    explicit IncaEngine(arch::IncaConfig cfg);

    /** Simulate one inference batch. */
    arch::RunCost inference(const nn::NetworkDesc &net,
                            int batchSize) const;

    /** Simulate one training iteration (fwd + bwd + update). */
    arch::RunCost training(const nn::NetworkDesc &net,
                           int batchSize) const;

    /** The configuration in use. */
    const arch::IncaConfig &config() const { return cfg_; }

    /** Chip idle power used for static energy. */
    Watts idlePower() const { return idlePower_; }

    /** Effective time per windowed convolution read (delegates to
     *  ir::incaReadCycleTime, where the model now lives). */
    Seconds readCycleTime(int batchSize) const;

  private:
    arch::IncaConfig cfg_;
    Watts idlePower_;
};

} // namespace core
} // namespace inca

#endif // INCA_INCA_ENGINE_HH
