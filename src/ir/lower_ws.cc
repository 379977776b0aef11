/**
 * @file
 * WS (baseline) lowering. The per-layer arithmetic is the former
 * baseline::BaselineEngine math, moved verbatim. The pipeline model
 * maps onto the IR as follows:
 *
 *  - inference: layer spans chain serially and fold to the analytic
 *    fill time; a synthetic drain span carries the steady-state term
 *    (batch - 1) x slowest (with the ISAAC 1.5x balancing clamp
 *    computed here, in the identical floating-point loop);
 *  - training: the per-layer fwd/bwd/upd spans are off-critical (the
 *    pipeline hides them; the analytic engine reports their costs per
 *    layer but never adds their latency) -- the critical chain is a
 *    synthetic "pipe" span per conv layer carrying passes x stage,
 *    then the drain, then the weight reload. The reload's LayerCost
 *    lands last in run.layers, exactly as the engine ordered it, and
 *    the final latency differs only by a commuted IEEE addition
 *    (a + b == b + a), so the total stays bit-exact.
 */

#include "ir/lower.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "arch/power.hh"
#include "baseline/mapping.hh"
#include "common/trace.hh"
#include "dataflow/access_model.hh"
#include "ir/lower_internal.hh"

namespace inca {
namespace ir {

using baseline::WsMapping;
using nn::LayerDesc;
using nn::LayerKind;

bool
wsWeightsReloaded(const arch::BaselineConfig &cfg,
                  const nn::NetworkDesc &net, bool training)
{
    // Training keeps a transposed copy next to the originals
    // (Limitation 2), doubling the cell demand.
    const double cellsNeeded = double(net.totalWeights()) *
                               cfg.weightBits *
                               (training ? 2.0 : 1.0);
    return cellsNeeded > double(cfg.totalCells());
}

double
wsBufferShare(const arch::BaselineConfig &cfg,
              const nn::NetworkDesc &net, const nn::LayerDesc &layer)
{
    // Layers share the chip's buffers in proportion to the crossbars
    // their pipeline stage occupies.
    const double totalArrays =
        double(baseline::arraysForNetwork(net, cfg));
    if (totalArrays == 0.0)
        return 0.0;
    const double layerArrays =
        double(baseline::mapLayer(layer, cfg).arrays());
    const double totalBuffer =
        double(cfg.org.numTiles) * cfg.buffer.capacity;
    return totalBuffer * layerArrays / totalArrays;
}

namespace {

/**
 * The working instructions of a WS conv-like pipeline stage: op, unit,
 * stats and duration, but no names or dependencies -- training emits
 * the same stage as its forward, backward and update spans.
 */
struct Stage
{
    Instr load, mvm, reduce, move;
};

Stage
stageWork(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
          const LayerDesc &layer, int batchSize)
{
    trace::Span span(trace::spanName("ws.fwd ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    Stage st{instr(Op::Load, Unit::Buffer, ""),
             instr(Op::Mvm, Unit::Array, ""),
             instr(Op::Reduce, Unit::Adc, ""),
             instr(Op::Move, Unit::Buffer, "")};
    Instr &load = st.load;
    Instr &mvm = st.mvm;
    Instr &reduce = st.reduce;
    Instr &move = st.move;

    const WsMapping m = baseline::mapLayer(layer, cfg);
    const double images = batchSize;
    const double wBits = cfg.weightBits;
    const double aBits = cfg.activationBits;
    const double s = cfg.subarraySize;

    // Window activations per image: every window position, every
    // input-bit cycle (bit-serial DAC streaming, ISAAC style).
    const double activations = double(m.windows) * aBits;

    // --- Array reads: the driven rows cross EVERY column of their
    // arrays (1T1R has no column gating), so unused columns still burn
    // read current -- the coarse-grained cost of Limitation 3. Per-
    // column sample-and-holds (as in ISAAC) keep the bias to one read
    // pulse while the shared ADC scans.
    const double activeCells = double(m.usedRows) *
                               double(m.colTiles) * s *
                               double(m.channelGroups);
    const double cellReads = activations * activeCells * images;
    mvm.stats.add("count.array.read", cellReads);
    mvm.stats.add("energy.array.read",
                  cellReads * cfg.device.avgReadEnergy());

    // --- ADC: every column of every active array converts each cycle.
    const double conversions =
        activations * double(m.arrays()) * s * images;
    reduce.stats.add("count.adc", conversions);
    reduce.stats.add("energy.adc",
                     conversions * cfg.adc().energyPerConversion);

    // --- DAC drivers on the used rows.
    mvm.stats.add("energy.dac",
                  activations * double(m.usedRows) *
                      double(m.channelGroups) * images *
                      circuit::makeDac().energyPerActivation);

    // --- Digital: shift-accumulate per conversion, adders joining
    // row tiles, output registers.
    reduce.stats.add("energy.digital.shift",
                     conversions * cfg.digital.shiftAccumulate);
    const double outputs = double(layer.outputCount());
    reduce.stats.add("energy.digital.adders",
                     outputs * aBits * images *
                         circuit::adderTreeEnergy(cfg.digital,
                                                  double(m.rowTiles)));
    reduce.stats.add("energy.digital.register",
                     outputs * images * 2.0 *
                         cfg.digital.registerAccess);

    // --- Buffers: inputs fetched per output element (Eq. 5 x OH x OW)
    // and outputs saved per position (Eq. 6) to keep the inter-layer
    // pipeline running (Limitation 1).
    const dataflow::AccessConfig acc{int(wBits),
                                     cfg.buffer.port.widthBits};
    const double fetchWords =
        double(dataflow::fetchWordsPerOutput(layer, acc)) *
        double(m.windows) * images;
    const double saveWords_ =
        double(dataflow::saveWords(layer, acc)) * images;
    load.stats.add("count.buffer.read", fetchWords);
    load.stats.add("energy.buffer.read",
                   cfg.buffer.readEnergy(fetchWords));
    move.stats.add("count.buffer.write", saveWords_);
    move.stats.add("energy.buffer.write",
                   cfg.buffer.writeEnergy(saveWords_));

    // --- DRAM: activations that exceed the stage's buffer share spill
    // off-chip (written by this layer, read back by the next).
    const double outBytes = outputs * aBits / 8.0;
    const double spill =
        std::max(0.0, outBytes - wsBufferShare(cfg, net, layer));
    double dramBytes = 2.0 * spill * images;
    move.stats.add("count.dram.bytes", dramBytes);
    move.stats.add("energy.dram.activation",
                   cfg.dram.accessEnergy(dramBytes));

    // --- Latency per image: windows stream through the crossbars one
    // per aBits cycles; all kernels' columns compute in parallel. The
    // fetch/save traffic pipelines with the reads (no exposed time).
    mvm.duration = activations * cfg.readCycle();
    return st;
}

/**
 * Emit @p st as the stage span @p name: fetch @p in, multiply it
 * against @p weights, save the result as @p out. Training's backward
 * and update passes add an RRAM @p store after the save. Returns the
 * span's base.
 */
int
emitStage(Program &p, Stage st, const std::string &name,
          LayerKind kind, bool offCritical, const std::string &in,
          const std::string &weights, const std::string &out,
          std::optional<Instr> store = std::nullopt)
{
    const int base = openSpan(p, name, kind, false, offCritical);
    st.load.label = "fetch " + name;
    st.load.reads = {in};
    st.load.writes = {"fetch." + name};
    const int load = emit(p, std::move(st.load));
    st.mvm.label = "mvm " + name;
    st.mvm.reads = {"fetch." + name, weights};
    st.mvm.writes = {"psum." + name};
    const int mvm = emit(p, std::move(st.mvm));
    st.reduce.label = "reduce " + name;
    st.reduce.deps = {mvm};
    st.reduce.reads = {"psum." + name};
    st.reduce.writes = {"out." + name};
    const int reduce = emit(p, std::move(st.reduce));
    st.move.label = "save " + name;
    st.move.deps = {reduce};
    st.move.reads = {"out." + name};
    st.move.writes = {out};
    const int move = emit(p, std::move(st.move));
    std::vector<int> deps{load, mvm, reduce, move};
    if (store) {
        store->deps = {move};
        deps.push_back(emit(p, std::move(*store)));
    }
    emitSync(p, name, std::move(deps));
    return base;
}

/** An RRAM store of @p cellWrites cells that reads @p tensor. */
Instr
arrayStore(const arch::BaselineConfig &cfg, std::string label,
           std::string tensor, double cellWrites, Seconds duration)
{
    Instr store = instr(Op::Move, Unit::Array, std::move(label),
                        {std::move(tensor)});
    store.duration = duration;
    store.stats.add("count.array.write", cellWrites);
    store.stats.add("energy.array.write",
                    cellWrites * cfg.device.avgWriteEnergy());
    return store;
}

/** Post-processing work of a non-conv layer (op, unit, stats). */
Instr
auxWork(const arch::BaselineConfig &cfg, const LayerDesc &layer,
        int batchSize)
{
    trace::Span span(trace::spanName("ws.aux ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    Instr act = instr(Op::Activation, Unit::Digital, "");
    const double images = batchSize;
    const double outputs = double(layer.outputCount());
    switch (layer.kind) {
      case LayerKind::ReLU:
        act.stats.add("energy.digital.post",
                      outputs * images * cfg.digital.reluOp);
        break;
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        act.stats.add("energy.digital.post",
                      outputs * images * double(layer.kh) * layer.kw *
                          cfg.digital.maxPoolCompare);
        break;
      case LayerKind::Add:
        act.stats.add("energy.digital.post",
                      outputs * images * cfg.digital.adder8bit);
        break;
      default:
        break;
    }
    return act;
}

/** Emit @p act as the span @p name turning @p in into @p out. */
int
emitAux(Program &p, Instr act, const std::string &name, LayerKind kind,
        bool offCritical, const std::string &in, const std::string &out)
{
    const int base = openSpan(p, name, kind, false, offCritical);
    act.label = "post " + name;
    act.reads = {in};
    act.writes = {out};
    emitSync(p, name, {emit(p, std::move(act))});
    return base;
}

/** The weight-reload span (stream + program + sync); returns its base. */
int
emitReload(Program &p, const arch::BaselineConfig &cfg,
           const nn::NetworkDesc &net, bool training)
{
    // Originals (+ transposed copies when training), streamed and
    // programmed; rows program in parallel across arrays, so the
    // exposed time is the DRAM stream.
    const double weightBits =
        (training ? 2.0 : 1.0) * double(net.totalWeights()) *
        cfg.weightBits;
    const double bytes = weightBits / 8.0;
    Instr load =
        instr(Op::Load, Unit::Dram, "stream weights", {}, {"w.stream"});
    load.stats.add("count.dram.bytes", bytes);
    load.stats.add("energy.dram.weights", cfg.dram.accessEnergy(bytes));
    load.duration = cfg.dram.streamTime(bytes);
    Instr move =
        instr(Op::Move, Unit::Array, "program weights", {"w.stream"});
    move.stats.add("energy.array.write",
                   weightBits * cfg.device.avgWriteEnergy());

    const int base =
        openSpan(p, "weight-reload", LayerKind::Conv);
    const int iLoad = emit(p, std::move(load));
    move.deps = {iLoad};
    emitSync(p, "reload", {iLoad, emit(p, std::move(move))});
    return base;
}

/** A synthetic pipeline span of one timed sync; returns its base. */
int
emitPipeline(Program &p, std::string name, std::string label,
             LayerKind kind, Seconds duration)
{
    const int base = openSpan(p, std::move(name), kind, true);
    Instr sync = instr(Op::Sync, Unit::Pipeline, std::move(label));
    sync.duration = duration;
    emit(p, std::move(sync));
    return base;
}

} // namespace

Program
lowerWs(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
        arch::Phase phase, int batchSize, const LowerOptions &opts)
{
    const bool training = phase == arch::Phase::Training;
    // The WS pipeline already overlaps analytically (fill + drain);
    // the overlap flag does not change its program.
    Program p = programHeader(cfg, "ws", net, phase, batchSize, opts,
                              arch::baselineIdlePower(cfg));
    for (const auto &layer : net.layers) {
        if (!layer.isConvLike())
            continue;
        p.inputs.push_back("w." + layer.name);
        if (training)
            p.inputs.push_back("wT." + layer.name);
    }

    int prevEnd = -1;     ///< last critical-chain completion
    int postedEnd = -1;   ///< last off-critical (posted) completion
    std::string prevAct = "act.in";

    if (!training) {
        // The serial span chain embodies the analytic fill time.
        Seconds slowest = 0.0;
        Seconds stageSum = 0.0;
        int stages = 0;
        for (const auto &layer : net.layers) {
            const std::string act = "act." + layer.name;
            const int base =
                layer.isConvLike()
                    ? emitStage(p, stageWork(cfg, net, layer, batchSize),
                                layer.name, layer.kind, false, prevAct,
                                "w." + layer.name, act)
                    : emitAux(p, auxWork(cfg, layer, batchSize),
                              layer.name, layer.kind, false, prevAct,
                              act);
            prevAct = act;
            chainAfter(p, base, prevEnd);
            // Per-image stage time; the pipeline overlaps images.
            const Seconds stage = spanLatency(p, p.spans.back());
            slowest = std::max(slowest, stage);
            if (layer.isConvLike()) {
                stageSum += stage;
                ++stages;
            }
        }

        // ISAAC balances its pipeline by replicating the weights of
        // the window-heavy early layers over spare crossbars; a
        // perfectly balanced pipeline would run at the mean stage
        // time, and the residual imbalance after replication is
        // modelled as 1.5x.
        constexpr double kPipelineImbalance = 1.5;
        if (stages > 0) {
            const Seconds balanced =
                kPipelineImbalance * stageSum / double(stages);
            slowest = std::min(slowest, balanced);
        }

        // Weight reloading when the model exceeds on-chip RRAM:
        // stream the weights from DRAM and reprogram once per batch.
        if (wsWeightsReloaded(cfg, net, false))
            chainAfter(p, emitReload(p, cfg, net, false), prevEnd);

        // ISAAC pipelining: fill once (the serial span chain above),
        // then one image per slowest stage -- the drain span.
        chainAfter(p,
                   emitPipeline(p, "drain", "drain", LayerKind::Conv,
                                double(batchSize - 1) * slowest),
                   prevEnd);
    } else {
        // Forward, error backpropagation, and weight-gradient passes
        // all run on the crossbars with comparable window/bit-cycle
        // structure. PipeLayer pipelines images through training too,
        // but -- unlike inference -- the pipeline cannot be balanced
        // by replicating the early layers' weights, because every
        // replica would have to be reprogrammed at each update. The
        // batch therefore drains at the raw slowest stage, three
        // passes deep. The per-layer spans are posted off-critical
        // (their costs are reported, their time is hidden); the
        // critical chain is pipe spans -> drain -> reload.
        Seconds slowest = 0.0;
        const double passes = 3.0;
        for (const auto &layer : net.layers) {
            const std::string &l = layer.name;
            if (!layer.isConvLike()) {
                const Instr aux = auxWork(cfg, layer, batchSize);
                chainAfter(p,
                           emitAux(p, aux, l, layer.kind, true, prevAct,
                                   "act." + l),
                           postedEnd);
                chainAfter(p,
                           emitAux(p, aux, l + ".bwd", layer.kind, true,
                                   "grad.out", "grad." + l + ".bwd"),
                           postedEnd);
                prevAct = "act." + l;
                continue;
            }
            const Stage fwd = stageWork(cfg, net, layer, batchSize);
            chainAfter(p,
                       emitStage(p, fwd, l, layer.kind, true, prevAct,
                                 "w." + l, "act." + l),
                       postedEnd);
            const Seconds stage = spanLatency(p, p.spans.back());
            prevAct = "act." + l;

            // The backward pass reads the transposed-weight copy; the
            // update pass writes activations/errors to RRAM and
            // reprograms the weight cells (original + transposed). The
            // pipelined abstraction does not track the per-layer
            // gradient chain, so every backward stage consumes the
            // streaming loss gradient.
            const double aBits = cfg.activationBits;
            const double actWrites =
                double(layer.inputCount()) * aBits * batchSize;
            chainAfter(p,
                       emitStage(p, fwd, l + ".bwd", layer.kind, true,
                                 "grad.out", "wT." + l, "grad." + l,
                                 arrayStore(cfg, "store-acts " + l,
                                            "grad." + l, actWrites,
                                            0.0)),
                       postedEnd);
            const double weightCellWrites =
                2.0 * double(layer.weightCount()) * cfg.weightBits;
            chainAfter(p,
                       emitStage(p, fwd, l + ".upd", layer.kind, true,
                                 "grad." + l, "w." + l, "dw." + l,
                                 arrayStore(cfg, "program-weights " + l,
                                            "dw." + l, weightCellWrites,
                                            weightCellWrites > 0.0
                                                ? cfg.device.tWrite
                                                : 0.0)),
                       postedEnd);

            slowest = std::max(slowest, stage);

            // Critical chain: three pipelined passes of this stage
            // (fill += passes * stage).
            chainAfter(p,
                       emitPipeline(p, "pipe." + l, "pipe " + l,
                                    layer.kind, passes * stage),
                       prevEnd);
        }

        // Images pipeline through the three passes at the unbalanced
        // slowest stage.
        chainAfter(p,
                   emitPipeline(p, "drain", "drain", LayerKind::Conv,
                                double(batchSize - 1) * passes *
                                    slowest),
                   prevEnd);

        // The reload LayerCost lands after the per-layer rows, as the
        // engine ordered it; its latency joins the total by one
        // commuted addition (see file comment).
        if (wsWeightsReloaded(cfg, net, true))
            chainAfter(p, emitReload(p, cfg, net, true), prevEnd);
    }

    sealProgram(p, prevEnd);
    validate(p);
    return p;
}

} // namespace ir
} // namespace inca
