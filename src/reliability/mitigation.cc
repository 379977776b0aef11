#include "reliability/mitigation.hh"

#include "common/logging.hh"

namespace inca {
namespace reliability {

RemapTable::RemapTable(int rows, int cols, int spareRows,
                       int spareCols)
    : rows_(rows), cols_(cols), spareRows_(spareRows),
      spareCols_(spareCols), rowMap_(std::size_t(rows)),
      colMap_(std::size_t(cols))
{
    inca_assert(rows > 0 && cols > 0, "bad remap geometry %dx%d",
                rows, cols);
    inca_assert(spareRows >= 0 && spareCols >= 0,
                "negative spare count %d/%d", spareRows, spareCols);
    for (int r = 0; r < rows_; ++r)
        rowMap_[std::size_t(r)] = r;
    for (int c = 0; c < cols_; ++c)
        colMap_[std::size_t(c)] = c;
}

bool
RemapTable::noteFault(int row, int col)
{
    // Already on a healthy spare line in either direction: covered.
    if (rowRemapped(row) || colRemapped(col))
        return true;
    if (usedSpareRows_ < spareRows_) {
        rowMap_[std::size_t(row)] = rows_ + usedSpareRows_;
        ++usedSpareRows_;
        return true;
    }
    if (usedSpareCols_ < spareCols_) {
        colMap_[std::size_t(col)] = cols_ + usedSpareCols_;
        ++usedSpareCols_;
        return true;
    }
    // Spares exhausted: graceful degradation, the fault stays
    // resident and is reported as residual error rate downstream.
    ++residual_;
    return false;
}

RemappedPlane::RemappedPlane(int size, const MitigationSpec &spec)
    // BitPlane is square; one side holds the spare rows and the
    // other the spare columns, so the physical side is size + the
    // larger spare count.
    : size_(size), spec_(spec),
      plane_(size +
             std::max(std::max(spec.spareRows, spec.spareCols), 0)),
      table_(size, size, spec.spareRows, spec.spareCols),
      intended_(std::size_t(size) * std::size_t(size), -1)
{
}

int
RemappedPlane::write(int row, int col, bool bit, Rng *rng,
                     double softBer)
{
    inca_assert(row >= 0 && row < size_ && col >= 0 && col < size_,
                "logical cell (%d, %d) outside %dx%d array", row, col,
                size_, size_);
    intended_[std::size_t(row) * std::size_t(size_) +
              std::size_t(col)] = bit ? 1 : 0;

    const int attempts =
        1 + (spec_.verifyEnabled()
                 ? std::max(spec_.writeVerifyRetries, 0)
                 : 0);
    int issued = 0;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        const int pr = table_.physicalRow(row);
        const int pc = table_.physicalCol(col);
        // A soft write-variation event leaves the cell in the wrong
        // state; stuck cells ignore the write entirely (BitPlane
        // fault semantics).
        const bool flipped =
            rng != nullptr && softBer > 0.0 && rng->uniform() < softBer;
        plane_.writeCell(pr, pc, flipped ? !bit : bit);
        ++issued;
        pulses_ += 1;
        if (!spec_.verifyEnabled())
            return issued; // blind write: errors persist
        if (plane_.cell(pr, pc) == bit)
            return issued; // verified
    }

    // The cell never verified within the budget: a persistent (hard)
    // fault. Remap its line when a spare remains and replay the
    // buffered intent onto the healthy replacement.
    const bool rowWasRemapped = table_.rowRemapped(row);
    const bool colWasRemapped = table_.colRemapped(col);
    if (table_.noteFault(row, col)) {
        if (!rowWasRemapped && table_.rowRemapped(row))
            replayRow(row);
        else if (!colWasRemapped && table_.colRemapped(col))
            replayCol(col);
    }
    return issued;
}

void
RemappedPlane::replayRow(int row)
{
    // Spares are guard-banded, fault-free lines; the replay is a
    // plain buffered rewrite.
    const int pr = table_.physicalRow(row);
    for (int c = 0; c < size_; ++c) {
        const std::int8_t want =
            intended_[std::size_t(row) * std::size_t(size_) +
                      std::size_t(c)];
        if (want < 0)
            continue;
        plane_.writeCell(pr, table_.physicalCol(c), want != 0);
        pulses_ += 1;
    }
}

void
RemappedPlane::replayCol(int col)
{
    const int pc = table_.physicalCol(col);
    for (int r = 0; r < size_; ++r) {
        const std::int8_t want =
            intended_[std::size_t(r) * std::size_t(size_) +
                      std::size_t(col)];
        if (want < 0)
            continue;
        plane_.writeCell(table_.physicalRow(r), pc, want != 0);
        pulses_ += 1;
    }
}

bool
RemappedPlane::read(int row, int col) const
{
    inca_assert(row >= 0 && row < size_ && col >= 0 && col < size_,
                "logical cell (%d, %d) outside %dx%d array", row, col,
                size_, size_);
    return plane_.cell(table_.physicalRow(row),
                       table_.physicalCol(col));
}

int
RemappedPlane::residualErrors() const
{
    int errors = 0;
    for (int r = 0; r < size_; ++r) {
        for (int c = 0; c < size_; ++c) {
            const std::int8_t want =
                intended_[std::size_t(r) * std::size_t(size_) +
                          std::size_t(c)];
            if (want >= 0 && read(r, c) != (want != 0))
                ++errors;
        }
    }
    return errors;
}

WriteVerifyCost
applyWriteVerify(arch::RunCost &run, const MitigationSpec &spec,
                 double softBer, double hardBer,
                 const circuit::RramDevice &device, double writeLanes)
{
    WriteVerifyCost cost;
    if (!spec.verifyEnabled())
        return cost;
    inca_assert(writeLanes > 0.0, "write lanes must be positive");

    const int retries = std::max(spec.writeVerifyRetries, 0);
    // Soft retries converge geometrically; writes that land on a
    // hard-stuck cell never verify and burn the whole retry budget
    // before the remap engine takes over.
    cost.extraPulsesPerWrite =
        (expectedWritePulses(softBer, retries) - 1.0) +
        std::min(std::max(hardBer, 0.0), 0.5) * double(retries);
    cost.verifyReadsPerWrite = 1.0 + cost.extraPulsesPerWrite;

    const Joules pulseEnergy = device.avgWriteEnergy();
    const Joules verifyEnergy = device.avgReadEnergy();

    for (auto &layer : run.layers) {
        const double writes = layer.stats.sumPrefix("count.array.write");
        if (writes <= 0.0)
            continue;
        const double extraPulses = writes * cost.extraPulsesPerWrite;
        const double verifyReads = writes * cost.verifyReadsPerWrite;
        const Joules energy =
            extraPulses * pulseEnergy + verifyReads * verifyEnergy;
        layer.stats.add("count.reliability.extra_pulse", extraPulses);
        layer.stats.add("count.reliability.verify_read", verifyReads);
        layer.stats.add("energy.reliability.write_verify", energy);
        // Extra pulses and verify reads serialize on each array's
        // write port; the chip's arrays work in parallel.
        const Seconds latency =
            (extraPulses * device.tWrite + verifyReads * device.tRead) /
            writeLanes;
        layer.latency += latency;
        run.latency += latency;
        cost.extraEnergy += energy;
        cost.extraLatency += latency;
    }
    return cost;
}

} // namespace reliability
} // namespace inca
