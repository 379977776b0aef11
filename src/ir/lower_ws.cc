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
#include <string>
#include <vector>

#include "arch/power.hh"
#include "baseline/mapping.hh"
#include "common/cache.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
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

/** Wall clock of one layer-group evaluation. */
metrics::Histogram &
layerEvalHistogram()
{
    static metrics::Histogram *h =
        &metrics::histogram("engine.layer_eval_us");
    return *h;
}

// Instruction roles inside a WS conv-like stage group. Training
// appends one extra Move before the sync (RRAM stores), shifting the
// sync to index 5.
enum
{
    kLoad = 0,
    kMvm = 1,
    kReduce = 2,
    kMove = 3,
    kSync = 4,
    kStageCount = 5,
    kExtra = 4, ///< training-only extra Move
    kExtraSync = 5,
};

LayerGroup
forwardGroup(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
             const LayerDesc &layer, int batchSize)
{
    trace::Span span(trace::spanName("ws.fwd ", layer.name));
    metrics::ScopedTimer timer(layerEvalHistogram());
    LayerGroup g;
    g.instrs.resize(kStageCount);
    Instr &load = g.instrs[kLoad];
    Instr &mvm = g.instrs[kMvm];
    Instr &reduce = g.instrs[kReduce];
    Instr &move = g.instrs[kMove];
    Instr &sync = g.instrs[kSync];
    load.op = Op::Load;
    load.unit = Unit::Buffer;
    mvm.op = Op::Mvm;
    mvm.unit = Unit::Array;
    reduce.op = Op::Reduce;
    reduce.unit = Unit::Adc;
    move.op = Op::Move;
    move.unit = Unit::Buffer;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;

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
    reduce.deps = {kMvm};
    move.deps = {kReduce};
    sync.deps = {kLoad, kMvm, kReduce, kMove};
    return g;
}

LayerGroup
auxGroup(const arch::BaselineConfig &cfg, const LayerDesc &layer,
         int batchSize)
{
    trace::Span span(trace::spanName("ws.aux ", layer.name));
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
    return g;
}

/** Copy @p g, inserting an extra Array Move (RRAM stores) before the
 *  sync; @p dep is the group-local index the store waits on. */
LayerGroup
withArrayStore(LayerGroup g, double cellWrites, Joules energy,
               Seconds duration, int dep)
{
    Instr store;
    store.op = Op::Move;
    store.unit = Unit::Array;
    store.stats.add("count.array.write", cellWrites);
    store.stats.add("energy.array.write", energy);
    store.duration = duration;
    store.deps = {dep};
    Instr sync = std::move(g.instrs.back());
    sync.deps.push_back(kExtra);
    g.instrs.back() = std::move(store);
    g.instrs.push_back(std::move(sync));
    return g;
}

/** The weight-reload group (two instructions + sync). */
LayerGroup
reloadGroup(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
            bool training)
{
    LayerGroup g;
    g.instrs.resize(3);
    Instr &load = g.instrs[0];
    Instr &move = g.instrs[1];
    Instr &sync = g.instrs[2];
    load.op = Op::Load;
    load.unit = Unit::Dram;
    move.op = Op::Move;
    move.unit = Unit::Array;
    move.deps = {0};
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;
    sync.deps = {0, 1};

    // Originals (+ transposed copies when training), streamed and
    // programmed; rows program in parallel across arrays, so the
    // exposed time is the DRAM stream.
    const double weightBits =
        (training ? 2.0 : 1.0) * double(net.totalWeights()) *
        cfg.weightBits;
    const double bytes = weightBits / 8.0;
    load.stats.add("count.dram.bytes", bytes);
    load.stats.add("energy.dram.weights", cfg.dram.accessEnergy(bytes));
    move.stats.add("energy.array.write",
                   weightBits * cfg.device.avgWriteEnergy());
    load.duration = cfg.dram.streamTime(bytes);
    return g;
}

/** Label + operand assignment for a conv stage span at @p base. */
void
nameStage(Program &p, int base, const std::string &name,
          const std::string &in, const std::string &weights,
          const std::string &out, int count)
{
    Instr &load = p.instrs[std::size_t(base + kLoad)];
    Instr &mvm = p.instrs[std::size_t(base + kMvm)];
    Instr &reduce = p.instrs[std::size_t(base + kReduce)];
    Instr &move = p.instrs[std::size_t(base + kMove)];
    load.label = "fetch " + name;
    load.reads = {in};
    load.writes = {"fetch." + name};
    mvm.label = "mvm " + name;
    mvm.reads = {"fetch." + name, weights};
    mvm.writes = {"psum." + name};
    reduce.label = "reduce " + name;
    reduce.reads = {"psum." + name};
    reduce.writes = {"out." + name};
    move.label = "save " + name;
    move.reads = {"out." + name};
    move.writes = {out};
    p.instrs[std::size_t(base + count - 1)].label = "sync " + name;
}

} // namespace

Program
lowerWs(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
        arch::Phase phase, int batchSize, const LowerOptions &opts)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    CacheKey cfgKey;
    arch::appendKey(cfgKey, cfg);

    const bool training = phase == arch::Phase::Training;
    Program p;
    p.network = net.name;
    p.engine = "ws";
    p.phase = phase;
    p.batchSize = batchSize;
    p.configKeyHash = cfgKey.hash();
    p.idlePower = arch::baselineIdlePower(cfg);
    // The WS pipeline already overlaps analytically (fill + drain);
    // the overlap flag does not change its program.
    p.overlap = opts.overlap;
    p.inputs = {"act.in"};
    if (training)
        p.inputs.push_back("grad.out");
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
            int base;
            if (layer.isConvLike()) {
                base = appendSpan(
                    p, forwardGroup(cfg, net, layer, batchSize),
                    layer.name, layer.kind, false, false);
                nameStage(p, base, layer.name, prevAct,
                          "w." + layer.name, "act." + layer.name,
                          kStageCount);
                prevAct = "act." + layer.name;
            } else {
                base = appendSpan(p, auxGroup(cfg, layer, batchSize),
                                  layer.name, layer.kind, false, false);
                Instr &act = p.instrs[std::size_t(base)];
                act.label = "post " + layer.name;
                act.reads = {prevAct};
                act.writes = {"act." + layer.name};
                p.instrs[std::size_t(base + 1)].label =
                    "sync " + layer.name;
                prevAct = "act." + layer.name;
            }
            chainAfter(p, base, prevEnd);
            prevEnd = int(p.instrs.size()) - 1;
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
        if (wsWeightsReloaded(cfg, net, false)) {
            const int base =
                appendSpan(p, reloadGroup(cfg, net, false),
                           "weight-reload", LayerKind::Conv, false,
                           false);
            p.instrs[std::size_t(base)].label = "stream weights";
            p.instrs[std::size_t(base)].writes = {"w.stream"};
            p.instrs[std::size_t(base + 1)].label = "program weights";
            p.instrs[std::size_t(base + 1)].reads = {"w.stream"};
            p.instrs[std::size_t(base + 2)].label = "sync reload";
            chainAfter(p, base, prevEnd);
            prevEnd = int(p.instrs.size()) - 1;
        }

        // ISAAC pipelining: fill once (the serial span chain above),
        // then one image per slowest stage -- the drain span.
        LayerGroup drain;
        drain.instrs.resize(1);
        drain.instrs[0].op = Op::Sync;
        drain.instrs[0].unit = Unit::Pipeline;
        drain.instrs[0].duration =
            double(batchSize - 1) * slowest;
        const int base = appendSpan(p, std::move(drain), "drain",
                                    LayerKind::Conv, true, false);
        p.instrs[std::size_t(base)].label = "drain";
        chainAfter(p, base, prevEnd);
        prevEnd = base;
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
            if (layer.isConvLike()) {
                const LayerGroup fwd =
                    forwardGroup(cfg, net, layer, batchSize);

                int base = appendSpan(p, fwd, layer.name, layer.kind,
                                      false, true);
                nameStage(p, base, layer.name, prevAct,
                          "w." + layer.name, "act." + layer.name,
                          kStageCount);
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;
                const Seconds stage =
                    spanLatency(p, p.spans.back());
                prevAct = "act." + layer.name;

                // The backward pass reads the transposed-weight copy;
                // the update pass writes activations/errors to RRAM
                // and reprograms the weight cells (original +
                // transposed). The pipelined abstraction does not
                // track the per-layer gradient chain, so every
                // backward stage consumes the streaming loss gradient.
                const double aBits = cfg.activationBits;
                const double actWrites =
                    double(layer.inputCount()) * aBits * batchSize;
                base = appendSpan(
                    p,
                    withArrayStore(fwd, actWrites,
                                   actWrites *
                                       cfg.device.avgWriteEnergy(),
                                   0.0, kMove),
                    layer.name + ".bwd", layer.kind, false, true);
                nameStage(p, base, layer.name + ".bwd", "grad.out",
                          "wT." + layer.name, "grad." + layer.name,
                          kStageCount + 1);
                p.instrs[std::size_t(base + kExtra)].label =
                    "store-acts " + layer.name;
                p.instrs[std::size_t(base + kExtra)].reads = {
                    "grad." + layer.name};
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;

                const double weightCellWrites =
                    2.0 * double(layer.weightCount()) * cfg.weightBits;
                base = appendSpan(
                    p,
                    withArrayStore(fwd, weightCellWrites,
                                   weightCellWrites *
                                       cfg.device.avgWriteEnergy(),
                                   weightCellWrites > 0.0
                                       ? cfg.device.tWrite
                                       : 0.0,
                                   kMove),
                    layer.name + ".upd", layer.kind, false, true);
                nameStage(p, base, layer.name + ".upd",
                          "grad." + layer.name, "w." + layer.name,
                          "dw." + layer.name, kStageCount + 1);
                p.instrs[std::size_t(base + kExtra)].label =
                    "program-weights " + layer.name;
                p.instrs[std::size_t(base + kExtra)].reads = {
                    "dw." + layer.name};
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;

                slowest = std::max(slowest, stage);

                // Critical chain: three pipelined passes of this
                // stage (fill += passes * stage).
                LayerGroup pipe;
                pipe.instrs.resize(1);
                pipe.instrs[0].op = Op::Sync;
                pipe.instrs[0].unit = Unit::Pipeline;
                pipe.instrs[0].duration = passes * stage;
                base = appendSpan(p, std::move(pipe),
                                  "pipe." + layer.name, layer.kind,
                                  true, false);
                p.instrs[std::size_t(base)].label =
                    "pipe " + layer.name;
                chainAfter(p, base, prevEnd);
                prevEnd = base;
            } else {
                const LayerGroup aux = auxGroup(cfg, layer, batchSize);
                for (int pass = 0; pass < 2; ++pass) {
                    const bool bwd = pass == 1;
                    const std::string name =
                        bwd ? layer.name + ".bwd" : layer.name;
                    const int base =
                        appendSpan(p, aux, name, layer.kind, false,
                                   true);
                    Instr &act = p.instrs[std::size_t(base)];
                    act.label = "post " + name;
                    act.reads = {bwd ? std::string("grad.out")
                                     : prevAct};
                    act.writes = {
                        (bwd ? "grad." : "act.") + name};
                    p.instrs[std::size_t(base + 1)].label =
                        "sync " + name;
                    chainAfter(p, base, postedEnd);
                    postedEnd = int(p.instrs.size()) - 1;
                    if (!bwd)
                        prevAct = "act." + name;
                }
            }
        }

        // Images pipeline through the three passes at the unbalanced
        // slowest stage.
        LayerGroup drain;
        drain.instrs.resize(1);
        drain.instrs[0].op = Op::Sync;
        drain.instrs[0].unit = Unit::Pipeline;
        drain.instrs[0].duration =
            double(batchSize - 1) * passes * slowest;
        int base = appendSpan(p, std::move(drain), "drain",
                              LayerKind::Conv, true, false);
        p.instrs[std::size_t(base)].label = "drain";
        chainAfter(p, base, prevEnd);
        prevEnd = base;

        // The reload LayerCost lands after the per-layer rows, as the
        // engine ordered it; its latency joins the total by one
        // commuted addition (see file comment).
        if (wsWeightsReloaded(cfg, net, true)) {
            base = appendSpan(p, reloadGroup(cfg, net, true),
                              "weight-reload", LayerKind::Conv, false,
                              false);
            p.instrs[std::size_t(base)].label = "stream weights";
            p.instrs[std::size_t(base)].writes = {"w.stream"};
            p.instrs[std::size_t(base + 1)].label = "program weights";
            p.instrs[std::size_t(base + 1)].reads = {"w.stream"};
            p.instrs[std::size_t(base + 2)].label = "sync reload";
            chainAfter(p, base, prevEnd);
            prevEnd = int(p.instrs.size()) - 1;
        }
    }

    sealProgram(p, prevEnd);
    validate(p);
    return p;
}

} // namespace ir
} // namespace inca
