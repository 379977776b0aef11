#include "reliability/fault_model.hh"

#include <algorithm>

#include "baseline/crossbar.hh"
#include "common/logging.hh"
#include "inca/plane.hh"
#include "tensor/kernels/kernels.hh"

namespace inca {
namespace reliability {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::StuckAt0:
        return "stuck_at_0";
      case FaultKind::StuckAt1:
        return "stuck_at_1";
      case FaultKind::WriteVariation:
        return "write_variation";
      case FaultKind::Drift:
        return "drift";
    }
    panic("unreachable fault kind %d", int(kind));
}

FaultModel::FaultModel(const FaultSpec &spec, double writesPerCell)
    : spec_(spec), writesPerCell_(writesPerCell)
{
    inca_assert(writesPerCell >= 0.0,
                "negative write count %f", writesPerCell);
}

FaultMap
FaultModel::sample(int rows, int cols, std::uint64_t streamId) const
{
    inca_assert(rows > 0 && cols > 0, "bad fault-map geometry %dx%d",
                rows, cols);
    FaultMap map;
    map.rows = rows;
    map.cols = cols;
    map.stuck.assign(std::size_t(rows) * std::size_t(cols), -1);

    // Stream splitting: one splitmix64 child per (seed, streamId)
    // keeps maps independent and order-free -- the sampler never
    // shares generator state across planes or trials.
    SplitMix64 parent(spec_.seed);
    Rng rng(SplitMix64(parent.next() ^ streamId).next());

    // Buffered form of the original per-cell loop: cell i consumes
    // one uniform draw, a faulty cell consumes one more for its stuck
    // polarity. Draw j here is exactly draw j there (fillUniform is
    // the same recurrence, batched), so the sampled map is
    // byte-identical; the win is that at realistic BERs nearly every
    // draw is >= rate, and the dispatched scanBelow kernel skips
    // those misses 4/8 doubles per compare instead of one branchy
    // uniform() call per cell. The generator may run a partial chunk
    // past the last consumed draw; it is trial-local state, so the
    // overshoot is unobservable.
    const double rate = stuckRate();
    const std::size_t total = map.stuck.size();
    const kernels::KernelSet &ks = kernels::active();
    constexpr std::size_t kChunk = 512;
    double buf[kChunk];
    std::size_t pos = 0;
    std::size_t avail = 0;
    std::size_t cell = 0;
    while (cell < total) {
        if (pos == avail) {
            avail = std::min(kChunk, (total - cell) + 1);
            rng.fillUniform(buf, avail);
            pos = 0;
        }
        const std::size_t window =
            std::min(avail - pos, total - cell);
        const std::size_t hit = std::size_t(
            ks.scanBelow(buf + pos, std::int64_t(window), rate));
        cell += hit;
        pos += hit;
        if (hit == window)
            continue;
        // buf[pos] < rate: this cell is stuck. Polarity is a coin
        // flip on the next draw -- wear-out leaves cells in either
        // resistance state.
        ++pos;
        if (pos == avail) {
            avail = std::min(kChunk, (total - cell) + 1);
            rng.fillUniform(buf, avail);
            pos = 0;
        }
        map.stuck[cell] = buf[pos] < 0.5 ? 1 : 0;
        ++pos;
        ++map.stuckCount;
        ++cell;
    }
    return map;
}

void
applyFaults(const FaultMap &map, core::BitPlane &plane)
{
    inca_assert(map.rows <= plane.size() && map.cols <= plane.size(),
                "fault map %dx%d larger than plane %dx%d", map.rows,
                map.cols, plane.size(), plane.size());
    for (int r = 0; r < map.rows; ++r)
        for (int c = 0; c < map.cols; ++c)
            if (map.at(r, c) >= 0)
                plane.injectStuckAt(r, c, map.at(r, c) != 0);
}

void
applyFaults(const FaultMap &map, baseline::WsCrossbar &xbar)
{
    inca_assert(map.rows <= xbar.rows() && map.cols <= xbar.cols(),
                "fault map %dx%d larger than crossbar %dx%d", map.rows,
                map.cols, xbar.rows(), xbar.cols());
    for (int r = 0; r < map.rows; ++r)
        for (int c = 0; c < map.cols; ++c)
            if (map.at(r, c) >= 0)
                xbar.injectStuckAt(r, c, map.at(r, c) != 0);
}

} // namespace reliability
} // namespace inca
