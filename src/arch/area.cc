#include "arch/area.hh"

namespace inca {
namespace arch {

namespace {

// Post-processing (ReLU + max-pool) per tile; Table V reports
// 3.656 mm^2 for 168 tiles in both designs.
constexpr SquareMeters kPostPerTile = 3.656e-6 / 168.0;

// "Others" (interconnect, control, adders, registers) per tile, as
// measured by NeuroSim+ in the paper: 27.920 mm^2 (baseline) and
// 24.249 mm^2 (INCA) for 168 tiles. The baseline needs a wider H-tree
// to feed 128-row crossbars, hence the larger constant.
constexpr SquareMeters kOthersPerTileBaseline = 27.920e-6 / 168.0;
constexpr SquareMeters kOthersPerTileInca = 24.249e-6 / 168.0;

} // namespace

SquareMeters
incaStackArea(const IncaConfig &cfg)
{
    // Cells per stack, divided by the vertical stacking factor, gives
    // the number of projected cell footprints.
    const double footprints =
        double(cfg.cellsPerStack()) / double(cfg.cell.verticalStack);
    return footprints * cfg.cell.scaledArea();
}

SquareMeters
baselineSubarrayArea(const BaselineConfig &cfg)
{
    return double(cfg.cellsPerSubarray()) * cfg.cell.scaledArea();
}

AreaBreakdown
incaArea(const IncaConfig &cfg)
{
    AreaBreakdown a;
    const double tiles = cfg.org.numTiles;
    const double subarrays = double(cfg.org.totalSubarrays());

    a.buffer = tiles * cfg.buffer.area();
    a.array = subarrays * incaStackArea(cfg);
    // One shared ADC per 3D stack (Table V counts 168 x 12 x 8).
    a.adc = subarrays * cfg.adc().area;
    // One 1-bit DAC per pillar: 16 x 16 = 256 per stack.
    const double dacsPerStack =
        double(cfg.subarraySize) * cfg.subarraySize;
    a.dac = subarrays * dacsPerStack * circuit::makeDac().area;
    a.postProcessing = tiles * kPostPerTile;
    a.others = tiles * kOthersPerTileInca;
    return a;
}

AreaBreakdown
baselineArea(const BaselineConfig &cfg)
{
    AreaBreakdown a;
    const double tiles = cfg.org.numTiles;
    const double subarrays = double(cfg.org.totalSubarrays());

    a.buffer = tiles * cfg.buffer.area();
    a.array = subarrays * baselineSubarrayArea(cfg);
    a.adc = subarrays * cfg.adc().area;
    // One 1-bit DAC per crossbar row.
    a.dac = subarrays * double(cfg.subarraySize) *
            circuit::makeDac().area;
    a.postProcessing = tiles * kPostPerTile;
    a.others = tiles * kOthersPerTileBaseline;
    return a;
}

} // namespace arch
} // namespace inca
