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
#include "common/cache.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
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

/** Wall clock of one layer-group evaluation. */
metrics::Histogram &
layerEvalHistogram()
{
    static metrics::Histogram *h =
        &metrics::histogram("engine.layer_eval_us");
    return *h;
}

/** Buffer words to move @p values of @p bits over the tile bus. */
double
words(double values, int bits, const memory::Bus &bus)
{
    return std::ceil(values * bits / double(bus.widthBits));
}

// Instruction roles inside an IS conv-like forward/backward group.
enum
{
    kLoad = 0,
    kMvm = 1,
    kReduce = 2,
    kMove = 3,
    kSync = 4,
    kConvCount = 5,
};

// Roles inside an IS update group (no weight load; the gradient
// write-back Move runs concurrently with the Mvm read-out).
enum
{
    kUpdMvm = 0,
    kUpdReduce = 1,
    kUpdMove = 2,
    kUpdSync = 3,
    kUpdCount = 4,
};

LayerGroup
forwardGroup(const arch::IncaConfig &cfg, const LayerDesc &layer,
             int batchSize, bool firstConv, bool streamed)
{
    trace::Span span(trace::spanName("inca.fwd ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    LayerGroup g;
    g.instrs.resize(kConvCount);
    Instr &load = g.instrs[kLoad];
    Instr &mvm = g.instrs[kMvm];
    Instr &reduce = g.instrs[kReduce];
    Instr &move = g.instrs[kMove];
    Instr &sync = g.instrs[kSync];
    load.op = Op::Load;
    load.unit = streamed ? Unit::Dram : Unit::Buffer;
    mvm.op = Op::Mvm;
    mvm.unit = Unit::Array;
    reduce.op = Op::Reduce;
    reduce.unit = Unit::Adc;
    move.op = Op::Move;
    move.unit = Unit::Array;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;

    const IsMapping m = core::mapLayer(layer, cfg);
    const double images = batchSize;
    const double wBits = cfg.weightBits;
    const double aBits = cfg.activationBits;
    const double macs = double(layer.macs());
    const double outputs = double(layer.outputCount());
    const double batchWaves =
        std::ceil(double(batchSize) / double(cfg.stackedPlanes));

    // --- Array reads: every MAC touches one cell per (weight-bit
    // cycle, activation bit plane); 2T1R gating keeps all other cells
    // dark (unlike the baseline's fully-driven crossbars).
    const double cellReads = macs * wBits * aBits * images;
    mvm.stats.add("count.array.read", cellReads);
    mvm.stats.add("energy.array.read",
                  cellReads * cfg.device.avgReadEnergy());

    // --- Array writes: outputs propagate directly into the next
    // layer's arrays (no buffer round trip). The first conv layer also
    // pays for loading the batch's input images.
    double cellWrites = outputs * aBits * images;
    if (firstConv)
        cellWrites += double(layer.inputCount()) * aBits * images;
    move.stats.add("count.array.write", cellWrites);
    move.stats.add("energy.array.write",
                   cellWrites * cfg.device.avgWriteEnergy());

    // --- ADC: one conversion per (output, weight bit, activation bit
    // plane, channel ADC group) per image-plane.
    const double conversions = outputs * wBits * aBits *
                               double(m.adcGroupsPerOutput) * images;
    reduce.stats.add("count.adc", conversions);
    reduce.stats.add("energy.adc",
                     conversions * cfg.adc().energyPerConversion);

    // --- DAC / pillar drivers: pillars are shared by all planes of a
    // stack, so driver energy is paid once per batch wave, not per
    // image.
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

    // --- Buffers: weight fetches only (Eq. 5 x kernels); the fetched
    // kernel is reused for every window and every plane. When the
    // model streams from DRAM the buffer is also written once.
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
        load.stats.add("count.buffer.write", weightWords * batchWaves);
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
    // overlapped with the weight stream from DRAM. When the layer's
    // mapping leaves macros spare -- common in the small late layers
    // -- the inputs are replicated across them so several output
    // channels compute concurrently; the extra input copies are paid
    // for as additional array writes.
    const double available = double(cfg.org.totalMacros());
    double replication =
        std::floor(available / double(m.macrosNeeded));
    replication = std::clamp(replication, 1.0,
                             double(m.serialChannels));
    if (replication > 1.0) {
        const double extraWrites = double(layer.inputCount()) * aBits *
                                   images * (replication - 1.0);
        move.stats.add("count.array.write", extraWrites);
        move.stats.add("energy.array.write",
                       extraWrites * cfg.device.avgWriteEnergy());
    }
    const double reads =
        double(m.positionsPerPartition) * wBits *
        std::ceil(double(m.serialChannels) / replication);

    // The Mvm chain (read-out) runs concurrently with the weight
    // stream: span latency = max(compute, dramTime), exactly the
    // engine's formula, because the Mvm carries no Load dependency.
    load.duration = cfg.dram.streamTime(dramBytes);
    mvm.duration = reads * incaReadCycleTime(cfg, batchSize) *
                   batchWaves;
    reduce.deps = {kMvm};
    move.deps = {kReduce};
    sync.deps = {kLoad, kMvm, kReduce, kMove};
    return g;
}

LayerGroup
backwardGroup(const arch::IncaConfig &cfg, const LayerDesc &layer,
              int batchSize, bool streamed)
{
    trace::Span span(trace::spanName("inca.bwd ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    // Error backpropagation: delta_{l+1} convolved with the transposed
    // kernels. The array work mirrors the forward pass with input and
    // output roles swapped; the transposed weights are a second fetch
    // from the same buffer bytes (Table IV's "different element
    // disposition" observation), and the produced errors overwrite the
    // dead activations of this layer in place.
    LayerGroup g = forwardGroup(cfg, layer, batchSize, false, streamed);

    // Replace the forward output-write term: backward writes errors of
    // the *input* size (they overwrite this layer's activations).
    const double images = batchSize;
    const double aBits = cfg.activationBits;
    const double fwdWrites =
        double(layer.outputCount()) * aBits * images;
    const double bwdWrites =
        double(layer.inputCount()) * aBits * images;
    Instr &move = g.instrs[kMove];
    move.stats.add("count.array.write", bwdWrites - fwdWrites);
    move.stats.add("energy.array.write",
                   (bwdWrites - fwdWrites) *
                       cfg.device.avgWriteEnergy());
    return g;
}

LayerGroup
updateGroup(const arch::IncaConfig &cfg, const LayerDesc &layer,
            int batchSize, bool streamed)
{
    trace::Span span(trace::spanName("inca.upd ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    // Weight update: x_l convolved with delta_l. The number of
    // products equals the layer MACs per image; gradient partial sums
    // stream out through the shift-accumulators into the buffers and
    // the updated weights are written back (DRAM when streamed).
    LayerGroup g;
    g.instrs.resize(kUpdCount);
    Instr &mvm = g.instrs[kUpdMvm];
    Instr &reduce = g.instrs[kUpdReduce];
    Instr &move = g.instrs[kUpdMove];
    Instr &sync = g.instrs[kUpdSync];
    mvm.op = Op::Mvm;
    mvm.unit = Unit::Array;
    reduce.op = Op::Reduce;
    reduce.unit = Unit::Adc;
    move.op = Op::Move;
    move.unit = streamed ? Unit::Dram : Unit::Buffer;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;

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

    // One conversion per (gradient element, bit pair, ADC group); the
    // batch dimension is reduced by the plane-level analog
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
    // write-back stream (the Move carries no Mvm dependency, so span
    // latency = max of the two paths -- the engine's formula).
    const double reads = double(m.positionsPerPartition) * wBits *
                         double(m.serialChannels);
    mvm.duration = 0.25 * reads * incaReadCycleTime(cfg, batchSize) *
                   batchWaves;
    move.duration = cfg.dram.streamTime(dramBytes);
    reduce.deps = {kUpdMvm};
    sync.deps = {kUpdMvm, kUpdReduce, kUpdMove};
    return g;
}

LayerGroup
auxGroup(const arch::IncaConfig &cfg, const LayerDesc &layer,
         int batchSize, bool backward)
{
    trace::Span span(trace::spanName("inca.aux ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    LayerGroup g;
    g.instrs.resize(2);
    Instr &act = g.instrs[0];
    Instr &sync = g.instrs[1];
    act.op = Op::Activation;
    act.unit = Unit::Digital;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;
    sync.deps = {0};

    const double images = batchSize;
    const double outputs = double(layer.outputCount());
    switch (layer.kind) {
      case LayerKind::ReLU:
        if (backward) {
            // AND gate against the stored sign replaces the gradient
            // multiplication (Section IV-C).
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
            // LUT restores the argmax position; other nodes are dead.
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
    return g;
}

/** Assembly state threaded through the IS program builder. */
struct IsBuilder
{
    explicit IsBuilder(Program &prog) : p(prog) {}

    Program &p;
    bool overlapInf = false; ///< IS-inference overlap wiring active

    int prevEnd = -1;  ///< completion instr of the previous span
    int prevLoad = -1; ///< most recent Load (prefetch ordering)
    int prevData = -1; ///< data-producing instr of the previous span
    std::vector<int> convEnds; ///< conv-span completions (prefetch cap)
    std::string prevAct = "act.in";
    std::string prevGrad = "grad.out";

    void
    convForward(const LayerDesc &layer, LayerGroup g)
    {
        const int base = appendSpan(p, std::move(g), layer.name,
                                    layer.kind, false, false);
        Instr &load = p.instrs[std::size_t(base + kLoad)];
        Instr &mvm = p.instrs[std::size_t(base + kMvm)];
        Instr &reduce = p.instrs[std::size_t(base + kReduce)];
        Instr &move = p.instrs[std::size_t(base + kMove)];
        Instr &sync = p.instrs[std::size_t(base + kSync)];
        load.label = "load " + layer.name;
        load.writes = {"w.fetch." + layer.name};
        mvm.label = "mvm " + layer.name;
        mvm.reads = {prevAct, "w.fetch." + layer.name};
        mvm.writes = {"psum." + layer.name};
        reduce.label = "reduce " + layer.name;
        reduce.reads = {"psum." + layer.name};
        reduce.writes = {"out." + layer.name};
        move.label = "move " + layer.name;
        move.reads = {"out." + layer.name};
        move.writes = {"act." + layer.name};
        sync.label = "sync " + layer.name;
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
            if (prevEnd >= 0)
                sync.deps.push_back(prevEnd);
        } else {
            chainAfter(p, base, prevEnd);
        }
        prevEnd = base + kSync;
        prevLoad = base + kLoad;
        prevData = base + kMove;
        convEnds.push_back(prevEnd);
        prevAct = "act." + layer.name;
    }

    void
    aux(const LayerDesc &layer, LayerGroup g, bool backward)
    {
        const std::string name =
            backward ? layer.name + ".bwd" : layer.name;
        const int base =
            appendSpan(p, std::move(g), name, layer.kind, false, false);
        Instr &act = p.instrs[std::size_t(base)];
        Instr &sync = p.instrs[std::size_t(base + 1)];
        act.label = "post " + name;
        std::string &chain = backward ? prevGrad : prevAct;
        const std::string out =
            (backward ? "grad." : "act.") + name;
        act.reads = {chain};
        act.writes = {out};
        sync.label = "sync " + name;
        if (overlapInf) {
            if (prevData >= 0)
                act.deps.push_back(prevData);
            if (prevEnd >= 0)
                sync.deps.push_back(prevEnd);
        } else {
            chainAfter(p, base, prevEnd);
        }
        prevEnd = base + 1;
        prevData = base;
        chain = out;
    }

    void
    convBackward(const LayerDesc &layer, LayerGroup g)
    {
        const std::string name = layer.name + ".bwd";
        const int base =
            appendSpan(p, std::move(g), name, layer.kind, false, false);
        Instr &load = p.instrs[std::size_t(base + kLoad)];
        Instr &mvm = p.instrs[std::size_t(base + kMvm)];
        Instr &reduce = p.instrs[std::size_t(base + kReduce)];
        Instr &move = p.instrs[std::size_t(base + kMove)];
        Instr &sync = p.instrs[std::size_t(base + kSync)];
        load.label = "load-T " + layer.name;
        load.writes = {"wT.fetch." + layer.name};
        mvm.label = "mvm " + name;
        mvm.reads = {prevGrad, "wT.fetch." + layer.name};
        mvm.writes = {"psum." + name};
        reduce.label = "reduce " + name;
        reduce.reads = {"psum." + name};
        reduce.writes = {"err." + layer.name};
        move.label = "move " + name;
        move.reads = {"err." + layer.name};
        move.writes = {"grad." + layer.name};
        sync.label = "sync " + name;
        chainAfter(p, base, prevEnd);
        prevEnd = base + kSync;
        prevData = base + kMove;
        prevGrad = "grad." + layer.name;
    }

    void
    convUpdate(const LayerDesc &layer, const std::string &inputAct,
               LayerGroup g)
    {
        const std::string name = layer.name + ".upd";
        const int base =
            appendSpan(p, std::move(g), name, layer.kind, false, false);
        Instr &mvm = p.instrs[std::size_t(base + kUpdMvm)];
        Instr &reduce = p.instrs[std::size_t(base + kUpdReduce)];
        Instr &move = p.instrs[std::size_t(base + kUpdMove)];
        Instr &sync = p.instrs[std::size_t(base + kUpdSync)];
        mvm.label = "mvm " + name;
        mvm.reads = {inputAct, "grad." + layer.name};
        mvm.writes = {"psum." + name};
        reduce.label = "reduce " + name;
        reduce.reads = {"psum." + name};
        reduce.writes = {"dw." + layer.name};
        move.label = "writeback " + layer.name;
        move.reads = {"dw." + layer.name};
        move.writes = {"w." + layer.name};
        sync.label = "sync " + name;
        chainAfter(p, base, prevEnd);
        prevEnd = base + kUpdSync;
    }
};

} // namespace

Program
lowerInca(const arch::IncaConfig &cfg, const nn::NetworkDesc &net,
          arch::Phase phase, int batchSize, const LowerOptions &opts)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    CacheKey cfgKey;
    arch::appendKey(cfgKey, cfg);

    Program p;
    p.network = net.name;
    p.engine = "inca";
    p.phase = phase;
    p.batchSize = batchSize;
    p.configKeyHash = cfgKey.hash();
    p.idlePower = arch::incaIdlePower(cfg);
    p.overlap = opts.overlap;
    p.inputs = {"act.in"};
    if (phase == arch::Phase::Training)
        p.inputs.push_back("grad.out");

    const bool streamed = incaWeightsStreamed(cfg, net);
    IsBuilder b{p};
    // Overlap only relaxes IS inference: training's backward chain is
    // data-serial, and the update/backward concurrency is already
    // folded into the update group's durations.
    b.overlapInf =
        opts.overlap && phase == arch::Phase::Inference;

    // Feedforward.
    bool first = true;
    // Input-activation operand of each layer, for update groups.
    std::vector<std::string> layerInput(net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const LayerDesc &layer = net.layers[i];
        layerInput[i] = b.prevAct;
        if (layer.isConvLike()) {
            b.convForward(layer, forwardGroup(cfg, layer, batchSize,
                                              first, streamed));
            first = false;
        } else {
            b.aux(layer, auxGroup(cfg, layer, batchSize, false), false);
        }
    }

    // Backpropagation + weight update, last layer to first.
    if (phase == arch::Phase::Training) {
        for (std::size_t r = net.layers.size(); r-- > 0;) {
            const LayerDesc &layer = net.layers[r];
            if (layer.isConvLike()) {
                b.convBackward(layer, backwardGroup(cfg, layer, batchSize,
                                                    streamed));
                b.convUpdate(layer, layerInput[r],
                             updateGroup(cfg, layer, batchSize,
                                         streamed));
            } else {
                b.aux(layer, auxGroup(cfg, layer, batchSize, true),
                      true);
            }
        }
    }

    sealProgram(p, b.prevEnd);
    validate(p);
    return p;
}

} // namespace ir
} // namespace inca
