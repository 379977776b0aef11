/**
 * @file
 * What the IS and WS lowering passes share. Both walk the network once
 * and emit every span straight into the Program: the code that
 * computes an instruction's stats also sets its opcode, unit, label,
 * operands and span-local dependencies, so a span is complete when it
 * is emitted. Shared here is only what both dataflows do the same way
 * -- the program header, opening a span and emitting into it, serial
 * chaining, the exit sync and the per-span eval histogram; the cost
 * math and the network walks stay in lower_is.cc and lower_ws.cc.
 */

#ifndef INCA_IR_LOWER_INTERNAL_HH
#define INCA_IR_LOWER_INTERNAL_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/cache.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "ir/ir.hh"
#include "ir/lower.hh"

namespace inca {
namespace ir {

/** Wall clock of computing one layer's span(s). */
inline metrics::Histogram &
layerEvalHistogram()
{
    static metrics::Histogram *h =
        &metrics::histogram("engine.layer_eval_us");
    return *h;
}

/** An empty program with its header set; inputs act.in (+ grad.out). */
template <class Config>
Program
programHeader(const Config &cfg, const char *engine,
              const nn::NetworkDesc &net, arch::Phase phase,
              int batchSize, const LowerOptions &opts, Watts idlePower)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    CacheKey cfgKey;
    arch::appendKey(cfgKey, cfg);

    Program p;
    p.network = net.name;
    p.engine = engine;
    p.phase = phase;
    p.batchSize = batchSize;
    p.configKeyHash = cfgKey.hash();
    p.idlePower = idlePower;
    p.overlap = opts.overlap;
    p.inputs = {"act.in"};
    if (phase == arch::Phase::Training)
        p.inputs.push_back("grad.out");
    return p;
}

/** An instruction with its identity and operands set. */
inline Instr
instr(Op op, Unit unit, std::string label,
      std::vector<std::string> reads = {},
      std::vector<std::string> writes = {})
{
    Instr in;
    in.op = op;
    in.unit = unit;
    in.label = std::move(label);
    in.reads = std::move(reads);
    in.writes = std::move(writes);
    return in;
}

/**
 * Open a span at the end of @p p: every instruction emit()ted until
 * the next openSpan() belongs to it. Returns the index its first
 * instruction gets.
 */
inline int
openSpan(Program &p, std::string name, nn::LayerKind kind,
         bool synthetic = false, bool offCritical = false)
{
    p.spans.push_back({.name = std::move(name),
                       .kind = kind,
                       .first = int(p.instrs.size()),
                       .synthetic = synthetic,
                       .offCritical = offCritical});
    return p.spans.back().first;
}

/** Append @p in to the open span; returns its global index. */
inline int
emit(Program &p, Instr in)
{
    in.span = int(p.spans.size()) - 1;
    ++p.spans.back().count;
    p.instrs.push_back(std::move(in));
    return int(p.instrs.size()) - 1;
}

/** Append the span's closing "sync <name>" over @p deps. */
inline int
emitSync(Program &p, const std::string &name, std::vector<int> deps)
{
    Instr sync = instr(Op::Sync, Unit::Ctrl, "sync " + name);
    sync.deps = std::move(deps);
    return emit(p, std::move(sync));
}

/**
 * Serial wiring: every dependency-free instruction of the span that
 * starts at @p base (and runs to the end of the program) waits on
 * @p end, which then moves to the span's last instruction -- its
 * completion point. Instructions with span-local dependencies inherit
 * the ordering transitively.
 */
inline void
chainAfter(Program &p, int base, int &end)
{
    if (end >= 0)
        for (int i = base; i < int(p.instrs.size()); ++i)
            if (p.instrs[std::size_t(i)].deps.empty())
                p.instrs[std::size_t(i)].deps.push_back(end);
    end = int(p.instrs.size()) - 1;
}

/** Append the single exit sync; @p lastCritical is its dependency. */
inline void
sealProgram(Program &p, int lastCritical)
{
    Instr exit = instr(Op::Sync, Unit::Ctrl, "exit");
    if (lastCritical >= 0)
        exit.deps.push_back(lastCritical);
    p.instrs.push_back(std::move(exit));
}

} // namespace ir
} // namespace inca

#endif // INCA_IR_LOWER_INTERNAL_HH
