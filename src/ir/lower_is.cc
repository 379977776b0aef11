/**
 * @file
 * IS (INCA) lowering. The per-layer arithmetic here is the former
 * core::IncaEngine math, moved verbatim: every stat lands on exactly
 * one instruction (per-key addition order preserved), and per-layer
 * latency is recovered as the span's internal critical path --
 * max(compute chain, DRAM stream) folds to the identical IEEE
 * operations the engine used, so analyticWalk() is bit-exact.
 */

#include "ir/lower.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/power.hh"
#include "common/trace.hh"
#include "dataflow/access_model.hh"
#include "inca/mapping.hh"
#include "ir/lower_internal.hh"

namespace inca {
namespace ir {

using core::IsMapping;
using nn::LayerDesc;
using nn::LayerKind;

Seconds
incaReadCycleTime(const arch::IncaConfig &cfg, int batchSize)
{
    // One windowed read: the read pulse plus the exposed half of the
    // previous result's write-back (Section V-B-2: the pipeline hides
    // part of the 50 ns write behind the next read), overlapped with
    // the shared ADC draining one conversion per active plane in its
    // group from the per-plane sample-and-holds.
    const int activePlanes = std::min(batchSize, cfg.stackedPlanes);
    const int adcsPerStack =
        std::max(1, cfg.stackedPlanes / cfg.subarraysPerAdc);
    const double conversionsSerial =
        std::ceil(double(activePlanes) / double(adcsPerStack));
    const Seconds adcDrain =
        conversionsSerial * cfg.adc().conversionLatency();
    return std::max(cfg.device.tRead + 0.5 * cfg.device.tWrite,
                    adcDrain);
}

bool
incaWeightsStreamed(const arch::IncaConfig &cfg,
                    const nn::NetworkDesc &net)
{
    const double weightBytes =
        double(net.totalWeights()) * cfg.weightBits / 8.0;
    const double onChip =
        double(cfg.org.numTiles) * cfg.buffer.capacity;
    return weightBytes > onChip;
}

namespace {

/** Buffer words to move @p values of @p bits over the tile bus. */
double
words(double values, int bits, const memory::Bus &bus)
{
    return std::ceil(values * bits / double(bus.widthBits));
}

/** Emission state threaded through the IS network walk. */
struct IsBuilder
{
    Program &p;
    const arch::IncaConfig &cfg;
    int batchSize;
    bool streamed;   ///< weights stream from DRAM
    bool overlapInf; ///< IS-inference overlap wiring active

    int prevEnd = -1;  ///< completion instr of the previous span
    int prevLoad = -1; ///< most recent Load (prefetch ordering)
    int prevData = -1; ///< data-producing instr of the previous span
    std::vector<int> convEnds{}; ///< conv-span ends (prefetch cap)
    std::string prevAct = "act.in";
    std::string prevGrad = "grad.out";

    /**
     * Close the span opened at @p base with its sync over @p deps and
     * wire it after the previous span: serially, or -- under overlap
     * -- through the relaxed edges its instructions already carry,
     * with only the sync waiting on the previous span's end.
     */
    int
    closeSpan(int base, const std::string &name, std::vector<int> deps)
    {
        if (overlapInf && prevEnd >= 0)
            deps.push_back(prevEnd);
        const int sync = emitSync(p, name, std::move(deps));
        if (!overlapInf)
            chainAfter(p, base, prevEnd);
        prevEnd = sync;
        return sync;
    }

    /**
     * A conv-like layer's forward span, or with @p backward its error
     * backpropagation: delta_{l+1} convolved with the transposed
     * kernels. The backward array work mirrors the forward pass with
     * input and output roles swapped; the transposed weights are a
     * second fetch from the same buffer bytes (Table IV's "different
     * element disposition" observation), and the produced errors
     * overwrite the dead activations of this layer in place.
     */
    void
    conv(const LayerDesc &layer, bool firstConv, bool backward)
    {
        trace::Span span(trace::spanName(
            backward ? "inca.bwd " : "inca.fwd ", layer.name));
        metrics::ScopedTimer timer(layerEvalHistogram());
        const std::string &l = layer.name;
        const std::string name = backward ? l + ".bwd" : l;
        const std::string fetch = (backward ? "wT.fetch." : "w.fetch.") + l;
        const std::string out = (backward ? "err." : "out.") + l;
        const std::string result = (backward ? "grad." : "act.") + l;
        std::string &chain = backward ? prevGrad : prevAct;
        Instr load = instr(Op::Load, streamed ? Unit::Dram : Unit::Buffer,
                           (backward ? "load-T " : "load ") + l, {},
                           {fetch});
        Instr mvm = instr(Op::Mvm, Unit::Array, "mvm " + name,
                          {chain, fetch}, {"psum." + name});
        Instr reduce = instr(Op::Reduce, Unit::Adc, "reduce " + name,
                             {"psum." + name}, {out});
        Instr move = instr(Op::Move, Unit::Array, "move " + name, {out},
                           {result});

        const IsMapping m = core::mapLayer(layer, cfg);
        const double images = batchSize;
        const double wBits = cfg.weightBits;
        const double aBits = cfg.activationBits;
        const double macs = double(layer.macs());
        const double outputs = double(layer.outputCount());
        const double batchWaves =
            std::ceil(double(batchSize) / double(cfg.stackedPlanes));

        // --- Array reads: every MAC touches one cell per (weight-bit
        // cycle, activation bit plane); 2T1R gating keeps all other
        // cells dark (unlike the baseline's fully-driven crossbars).
        const double cellReads = macs * wBits * aBits * images;
        mvm.stats.add("count.array.read", cellReads);
        mvm.stats.add("energy.array.read",
                      cellReads * cfg.device.avgReadEnergy());

        // --- Array writes: outputs propagate directly into the next
        // layer's arrays (no buffer round trip). The first conv layer
        // also pays for loading the batch's input images.
        double cellWrites = outputs * aBits * images;
        if (firstConv)
            cellWrites += double(layer.inputCount()) * aBits * images;
        move.stats.add("count.array.write", cellWrites);
        move.stats.add("energy.array.write",
                       cellWrites * cfg.device.avgWriteEnergy());

        // --- ADC: one conversion per (output, weight bit, activation
        // bit plane, channel ADC group) per image-plane.
        const double conversions = outputs * wBits * aBits *
                                   double(m.adcGroupsPerOutput) * images;
        reduce.stats.add("count.adc", conversions);
        reduce.stats.add("energy.adc",
                         conversions * cfg.adc().energyPerConversion);

        // --- DAC / pillar drivers: pillars are shared by all planes of
        // a stack, so driver energy is paid once per batch wave, not
        // per image.
        const double dacEvents = macs * wBits * aBits * batchWaves;
        mvm.stats.add("energy.dac",
                      dacEvents * circuit::makeDac().energyPerActivation);

        // --- Digital: shift-accumulators after each conversion, adder
        // tree across channel groups, output registers.
        reduce.stats.add("energy.digital.shift",
                         conversions * cfg.digital.shiftAccumulate);
        reduce.stats.add(
            "energy.digital.adders",
            outputs * wBits * aBits * images *
                circuit::adderTreeEnergy(cfg.digital,
                                         double(m.adcGroupsPerOutput)));
        reduce.stats.add("energy.digital.register",
                         outputs * images * 2.0 *
                             cfg.digital.registerAccess);

        // --- Buffers: weight fetches only (Eq. 5 x kernels); the
        // fetched kernel is reused for every window and every plane.
        // When the model streams from DRAM the buffer is also written
        // once.
        const dataflow::AccessConfig acc{int(wBits),
                                         cfg.buffer.port.widthBits};
        const double weightFetchWords =
            double(dataflow::isLayerAccesses(layer, acc)) * batchWaves;
        load.stats.add("count.buffer.read", weightFetchWords);
        load.stats.add("energy.buffer.read",
                       cfg.buffer.readEnergy(weightFetchWords));

        const double weightWords =
            words(double(layer.weightCount()), int(wBits),
                  cfg.buffer.port);
        double dramBytes = 0.0;
        if (streamed) {
            load.stats.add("count.buffer.write",
                           weightWords * batchWaves);
            load.stats.add("energy.buffer.write",
                           cfg.buffer.writeEnergy(weightWords *
                                                  batchWaves));
            dramBytes =
                double(layer.weightCount()) * wBits / 8.0 * batchWaves;
            load.stats.add("count.dram.bytes", dramBytes);
            load.stats.add("energy.dram.read",
                           cfg.dram.accessEnergy(dramBytes));
        }

        // --- Latency: sequential windowed reads (output channels are
        // serial in IS; partitions, channels and planes are parallel),
        // overlapped with the weight stream from DRAM. When the
        // layer's mapping leaves macros spare -- common in the small
        // late layers -- the inputs are replicated across them so
        // several output channels compute concurrently; the extra
        // input copies are paid for as additional array writes.
        const double available = double(cfg.org.totalMacros());
        double replication =
            std::floor(available / double(m.macrosNeeded));
        replication = std::clamp(replication, 1.0,
                                 double(m.serialChannels));
        if (replication > 1.0) {
            const double extraWrites = double(layer.inputCount()) *
                                       aBits * images *
                                       (replication - 1.0);
            move.stats.add("count.array.write", extraWrites);
            move.stats.add("energy.array.write",
                           extraWrites * cfg.device.avgWriteEnergy());
        }
        const double reads =
            double(m.positionsPerPartition) * wBits *
            std::ceil(double(m.serialChannels) / replication);

        if (backward) {
            // Replace the forward output-write term: backward writes
            // errors of the *input* size (they overwrite this layer's
            // activations).
            const double fwdWrites = outputs * aBits * images;
            const double bwdWrites =
                double(layer.inputCount()) * aBits * images;
            move.stats.add("count.array.write", bwdWrites - fwdWrites);
            move.stats.add("energy.array.write",
                           (bwdWrites - fwdWrites) *
                               cfg.device.avgWriteEnergy());
        }

        // The Mvm chain (read-out) runs concurrently with the weight
        // stream: span latency = max(compute, dramTime), exactly the
        // engine's formula, because the Mvm carries no Load
        // dependency.
        load.duration = cfg.dram.streamTime(dramBytes);
        mvm.duration = reads * incaReadCycleTime(cfg, batchSize) *
                       batchWaves;

        if (overlapInf) {
            // Double buffering: the next layer's weights may stream as
            // soon as the DRAM/buffer port is free, bounded two layers
            // ahead; compute waits only for the previous layer's data.
            // Every relaxed dependency finishes no later than the
            // serial span boundary it replaces, so the event makespan
            // can only shrink.
            if (prevLoad >= 0)
                load.deps.push_back(prevLoad);
            if (convEnds.size() >= 2)
                load.deps.push_back(convEnds[convEnds.size() - 2]);
            if (prevData >= 0)
                mvm.deps.push_back(prevData);
        }
        const int base = openSpan(p, name, layer.kind);
        const int iLoad = emit(p, std::move(load));
        const int iMvm = emit(p, std::move(mvm));
        reduce.deps = {iMvm};
        const int iReduce = emit(p, std::move(reduce));
        move.deps = {iReduce};
        const int iMove = emit(p, std::move(move));
        convEnds.push_back(
            closeSpan(base, name, {iLoad, iMvm, iReduce, iMove}));
        prevLoad = iLoad;
        prevData = iMove;
        chain = result;
    }

    /**
     * Weight update: x_l convolved with delta_l. The number of
     * products equals the layer MACs per image; gradient partial sums
     * stream out through the shift-accumulators into the buffers and
     * the updated weights are written back (DRAM when streamed).
     */
    void
    update(const LayerDesc &layer, const std::string &inputAct)
    {
        trace::Span span(trace::spanName("inca.upd ", layer.name));
        metrics::ScopedTimer timer(layerEvalHistogram());
        const std::string &l = layer.name;
        const std::string name = l + ".upd";
        Instr mvm = instr(Op::Mvm, Unit::Array, "mvm " + name,
                          {inputAct, "grad." + l}, {"psum." + name});
        Instr reduce = instr(Op::Reduce, Unit::Adc, "reduce " + name,
                             {"psum." + name}, {"dw." + l});
        // The gradient write-back runs concurrently with the read-out.
        Instr move = instr(Op::Move,
                           streamed ? Unit::Dram : Unit::Buffer,
                           "writeback " + l, {"dw." + l}, {"w." + l});

        const IsMapping m = core::mapLayer(layer, cfg);
        const double images = batchSize;
        const double wBits = cfg.weightBits;
        const double aBits = cfg.activationBits;
        const double macs = double(layer.macs());
        const double weights = double(layer.weightCount());
        const double batchWaves =
            std::ceil(double(batchSize) / double(cfg.stackedPlanes));

        const double cellReads = macs * wBits * aBits * images;
        mvm.stats.add("count.array.read", cellReads);
        mvm.stats.add("energy.array.read",
                      cellReads * cfg.device.avgReadEnergy());

        // One conversion per (gradient element, bit pair, ADC group);
        // the batch dimension is reduced by the plane-level analog
        // accumulation feeding one shared ADC group per stack.
        const double conversions = weights * wBits * aBits *
                                   double(m.adcGroupsPerOutput) *
                                   batchWaves;
        reduce.stats.add("count.adc", conversions);
        reduce.stats.add("energy.adc",
                         conversions * cfg.adc().energyPerConversion);
        reduce.stats.add("energy.digital.shift",
                         conversions * cfg.digital.shiftAccumulate);
        // Gradient subtraction (Eq. 4) in the digital domain.
        reduce.stats.add("energy.digital.adders",
                         weights * cfg.digital.adder16bit);

        // Updated weights written back through buffers (and DRAM).
        const double weightWords =
            words(weights, int(wBits), cfg.buffer.port);
        move.stats.add("count.buffer.write", weightWords);
        move.stats.add("energy.buffer.write",
                       cfg.buffer.writeEnergy(weightWords));
        move.stats.add("count.buffer.read", weightWords);
        move.stats.add("energy.buffer.read",
                       cfg.buffer.readEnergy(weightWords));
        double dramBytes = 0.0;
        if (streamed) {
            dramBytes = weights * wBits / 8.0;
            move.stats.add("count.dram.bytes", dramBytes);
            move.stats.add("energy.dram.write",
                           cfg.dram.accessEnergy(dramBytes));
        }

        // Update runs in parallel with the preceding layer's error
        // computation (Section IV-C), so its latency mostly hides; the
        // exposed part is the gradient read-out, concurrent with the
        // write-back stream (the Move carries no Mvm dependency, so
        // span latency = max of the two paths -- the engine's
        // formula).
        const double reads = double(m.positionsPerPartition) * wBits *
                             double(m.serialChannels);
        mvm.duration = 0.25 * reads * incaReadCycleTime(cfg, batchSize) *
                       batchWaves;
        move.duration = cfg.dram.streamTime(dramBytes);

        const int base = openSpan(p, name, layer.kind);
        const int iMvm = emit(p, std::move(mvm));
        reduce.deps = {iMvm};
        const int iReduce = emit(p, std::move(reduce));
        const int iMove = emit(p, std::move(move));
        closeSpan(base, name, {iMvm, iReduce, iMove});
    }

    /** Digital post-processing of a non-conv layer (either pass). */
    void
    aux(const LayerDesc &layer, bool backward)
    {
        trace::Span span(trace::spanName("inca.aux ", layer.name));
        metrics::ScopedTimer timer(layerEvalHistogram());
        const std::string name =
            backward ? layer.name + ".bwd" : layer.name;
        std::string &chain = backward ? prevGrad : prevAct;
        const std::string out = (backward ? "grad." : "act.") + name;
        Instr act = instr(Op::Activation, Unit::Digital, "post " + name,
                          {chain}, {out});

        const double images = batchSize;
        const double outputs = double(layer.outputCount());
        switch (layer.kind) {
          case LayerKind::ReLU:
            if (backward) {
                // AND gate against the stored sign replaces the
                // gradient multiplication (Section IV-C).
                act.stats.add("energy.digital.post",
                              outputs * images * cfg.digital.andGate);
            } else {
                act.stats.add("energy.digital.post",
                              outputs * images * cfg.digital.reluOp);
            }
            break;
          case LayerKind::MaxPool:
          case LayerKind::AvgPool: {
            const double window = double(layer.kh) * layer.kw;
            if (backward) {
                // LUT restores the argmax position; other nodes are
                // dead.
                act.stats.add("energy.digital.post",
                              outputs * images * cfg.digital.lutLookup);
            } else {
                act.stats.add("energy.digital.post",
                              outputs * images * window *
                                  cfg.digital.maxPoolCompare);
                // Training must remember argmax positions in the LUT.
                act.stats.add("energy.digital.post",
                              outputs * images * cfg.digital.lutLookup);
            }
            break;
          }
          case LayerKind::Add:
            act.stats.add("energy.digital.post",
                          outputs * images * cfg.digital.adder8bit);
            break;
          default:
            break;
        }
        // Post-processing is streaming and hides behind array work.

        if (overlapInf && prevData >= 0)
            act.deps.push_back(prevData);
        const int base = openSpan(p, name, layer.kind);
        const int iAct = emit(p, std::move(act));
        closeSpan(base, name, {iAct});
        prevData = iAct;
        chain = out;
    }
};

} // namespace

Program
lowerInca(const arch::IncaConfig &cfg, const nn::NetworkDesc &net,
          arch::Phase phase, int batchSize, const LowerOptions &opts)
{
    Program p = programHeader(cfg, "inca", net, phase, batchSize, opts,
                              arch::incaIdlePower(cfg));
    // Overlap only relaxes IS inference: training's backward chain is
    // data-serial, and the update/backward concurrency is already
    // folded into the update span's durations.
    IsBuilder b{p, cfg, batchSize, incaWeightsStreamed(cfg, net),
                opts.overlap && phase == arch::Phase::Inference};

    // Feedforward.
    bool first = true;
    // Input-activation operand of each layer, for update spans.
    std::vector<std::string> layerInput(net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const LayerDesc &layer = net.layers[i];
        layerInput[i] = b.prevAct;
        if (layer.isConvLike()) {
            b.conv(layer, first, false);
            first = false;
        } else {
            b.aux(layer, false);
        }
    }

    // Backpropagation + weight update, last layer to first.
    if (phase == arch::Phase::Training) {
        for (std::size_t r = net.layers.size(); r-- > 0;) {
            const LayerDesc &layer = net.layers[r];
            if (layer.isConvLike()) {
                b.conv(layer, false, true);
                b.update(layer, layerInput[r]);
            } else {
                b.aux(layer, true);
            }
        }
    }

    sealProgram(p, b.prevEnd);
    validate(p);
    return p;
}

} // namespace ir
} // namespace inca
