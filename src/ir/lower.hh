/**
 * @file
 * Network -> IR lowering for both dataflows.
 *
 * This is the single source of truth for the per-layer cost math that
 * used to live inside core::IncaEngine and baseline::BaselineEngine:
 * the engines now call lowerInca()/lowerWs() and walk the resulting
 * instruction stream (ir::analyticWalk), and the event backend
 * (src/event) executes the very same stream through its event queue.
 *
 * Overlap: with opts.overlap set, IS inference is lowered with
 * double-buffered load/compute dependencies (a load may prefetch as
 * soon as the previous load retires, bounded two layers ahead; a
 * layer's MVM waits only for the previous layer's data, not for the
 * serializing sync). Every relaxed dependency targets an instruction
 * that finishes no later than the serial program's span boundary, so
 * the event-backend makespan can only decrease -- and the instruction
 * set and stats are identical, so dynamic energy is unchanged. All
 * other (engine, phase) combinations lower to the serial program
 * under either flag: the WS pipeline already overlaps analytically,
 * and IS training's update/backward concurrency is already folded
 * into the update layer's exposed latency.
 */

#ifndef INCA_IR_LOWER_HH
#define INCA_IR_LOWER_HH

#include "arch/config.hh"
#include "ir/ir.hh"
#include "nn/network.hh"

namespace inca {
namespace ir {

/** Lowering knobs. */
struct LowerOptions
{
    /** Inter-layer load/compute overlap (see file comment). */
    bool overlap = false;
};

/** Lower a network for the INCA chip (IS dataflow). */
Program lowerInca(const arch::IncaConfig &cfg,
                  const nn::NetworkDesc &net, arch::Phase phase,
                  int batchSize, const LowerOptions &opts = {});

/** Lower a network for the WS baseline chip. */
Program lowerWs(const arch::BaselineConfig &cfg,
                const nn::NetworkDesc &net, arch::Phase phase,
                int batchSize, const LowerOptions &opts = {});

/**
 * Effective time per windowed IS convolution read: the read pulse
 * plus the exposed half of the previous write-back, overlapped with
 * the shared ADC drain (what core::IncaEngine::readCycleTime
 * delegates to).
 */
Seconds incaReadCycleTime(const arch::IncaConfig &cfg, int batchSize);

/** True when the network's weights exceed total on-chip buffers. */
bool incaWeightsStreamed(const arch::IncaConfig &cfg,
                         const nn::NetworkDesc &net);

/** True when the weights do not fit the WS chip's RRAM capacity. */
bool wsWeightsReloaded(const arch::BaselineConfig &cfg,
                       const nn::NetworkDesc &net, bool training);

/** Buffer bytes a WS layer's pipeline stage can claim. */
double wsBufferShare(const arch::BaselineConfig &cfg,
                     const nn::NetworkDesc &net,
                     const nn::LayerDesc &layer);

} // namespace ir
} // namespace inca

#endif // INCA_IR_LOWER_HH
