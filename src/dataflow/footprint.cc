#include "dataflow/footprint.hh"

namespace inca {
namespace dataflow {

FootprintRow
footprint(const nn::NetworkDesc &net, int bitPrecision)
{
    const double bytesPerValue = double(bitPrecision) / 8.0;
    const double weights =
        double(net.totalWeights()) * bytesPerValue;
    const double activations =
        double(net.totalActivations()) * bytesPerValue;

    FootprintRow row;
    // Baseline: weights + transposed weights + activations in RRAM;
    // activations staged through buffers.
    row.baseline.rram = 2.0 * weights + activations;
    row.baseline.buffers = activations;
    // INCA: activations in RRAM (recycled for errors); weights in
    // buffers (transposed view is a read-order change, not a copy).
    row.inca.rram = activations;
    row.inca.buffers = weights;
    return row;
}

double
toMiB(Bytes b)
{
    return b / (1024.0 * 1024.0);
}

} // namespace dataflow
} // namespace inca
