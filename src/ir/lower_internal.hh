/**
 * @file
 * Shared internals of the IS and WS lowering passes: the
 * position-independent per-layer instruction group and the assembly helpers that splice
 * groups into a Program.
 */

#ifndef INCA_IR_LOWER_INTERNAL_HH
#define INCA_IR_LOWER_INTERNAL_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "ir/ir.hh"

namespace inca {
namespace ir {

/**
 * A position-independent per-layer instruction group: dependencies are
 * group-local indices, labels and operands are unset (they carry the
 * layer name). appendSpan() rebases a copy into a concrete Program and
 * the caller then assigns labels, operands, and inter-span wiring.
 */
struct LayerGroup
{
    std::vector<Instr> instrs;
};

/**
 * Append @p g to @p p as a new span. Group-local dependencies are
 * rebased to global indices. Returns the global index of the group's
 * first instruction; the span's last instruction (base + count - 1)
 * is its completion point for inter-span wiring.
 */
inline int
appendSpan(Program &p, LayerGroup g, const std::string &name,
           nn::LayerKind kind, bool synthetic, bool offCritical)
{
    const int base = int(p.instrs.size());
    Span s;
    s.name = name;
    s.kind = kind;
    s.first = base;
    s.count = int(g.instrs.size());
    s.synthetic = synthetic;
    s.offCritical = offCritical;
    p.spans.push_back(std::move(s));
    for (Instr &in : g.instrs) {
        in.span = int(p.spans.size()) - 1;
        for (int &d : in.deps)
            d += base;
        p.instrs.push_back(std::move(in));
    }
    return base;
}

/**
 * Serial wiring: every dependency-free instruction of the span that
 * starts at @p base (and runs to the end of the program) waits on
 * @p prevEnd. Instructions with intra-group dependencies inherit the
 * ordering transitively.
 */
inline void
chainAfter(Program &p, int base, int prevEnd)
{
    if (prevEnd < 0)
        return;
    for (int i = base; i < int(p.instrs.size()); ++i)
        if (p.instrs[std::size_t(i)].deps.empty())
            p.instrs[std::size_t(i)].deps.push_back(prevEnd);
}

/** Append the single exit sync; @p lastCritical is its dependency. */
inline void
sealProgram(Program &p, int lastCritical)
{
    Instr exit;
    exit.op = Op::Sync;
    exit.unit = Unit::Ctrl;
    exit.label = "exit";
    exit.span = -1;
    if (lastCritical >= 0)
        exit.deps.push_back(lastCritical);
    p.instrs.push_back(std::move(exit));
}

} // namespace ir
} // namespace inca

#endif // INCA_IR_LOWER_INTERNAL_HH
