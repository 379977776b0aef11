#include "arch/endurance.hh"

#include <algorithm>

#include "common/logging.hh"

namespace inca {
namespace arch {

namespace {

EnduranceReport
finish(EnduranceReport r, double enduranceRating)
{
    if (r.cellsWritten > 0.0) {
        r.writesPerCellPerIteration =
            r.writesPerIteration / r.cellsWritten;
        if (r.writesPerCellPerIteration > 0.0) {
            r.iterationsToWearOut =
                enduranceRating / r.writesPerCellPerIteration;
        }
    }
    return r;
}

} // namespace

EnduranceReport
incaEndurance(const nn::NetworkDesc &net, const IncaConfig &cfg,
              int batchSize, double enduranceRating)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    EnduranceReport r;
    const double aBits = cfg.activationBits;
    double activationsPerImage = 0.0;
    double outputWritesPerImage = 0.0;
    for (const auto &layer : net.layers) {
        if (!layer.isConvLike())
            continue;
        activationsPerImage += double(layer.inputCount());
        // Forward: outputs written into the next layer's planes.
        outputWritesPerImage += double(layer.outputCount());
        // Backward: errors overwrite this layer's activation cells.
        outputWritesPerImage += double(layer.inputCount());
    }
    r.writesPerIteration =
        outputWritesPerImage * aBits * double(batchSize);
    r.cellsWritten =
        activationsPerImage * aBits * double(batchSize);
    return finish(r, enduranceRating);
}

EnduranceReport
baselineEndurance(const nn::NetworkDesc &net,
                  const BaselineConfig &cfg, int batchSize,
                  double enduranceRating)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    EnduranceReport r;
    const double wBits = cfg.weightBits;
    const double aBits = cfg.activationBits;
    const double weights = double(net.totalWeights());
    // Weight update: originals + transposed copies, once per batch.
    const double weightWrites = 2.0 * weights * wBits;
    // PipeLayer keeps activations and errors in RRAM per image.
    double actsPerImage = 0.0;
    for (const auto &layer : net.layers) {
        if (layer.isConvLike())
            actsPerImage += double(layer.inputCount());
    }
    const double actWrites =
        2.0 * actsPerImage * aBits * double(batchSize);
    r.writesPerIteration = weightWrites + actWrites;
    r.cellsWritten =
        2.0 * weights * wBits +
        2.0 * actsPerImage * aBits * double(batchSize);
    return finish(r, enduranceRating);
}

} // namespace arch
} // namespace inca
