/**
 * @file
 * Generator for tests/goldens_fig11_fig14.inc -- the Fig. 11 (energy
 * efficiency gain) and Fig. 14 (speedup) golden snapshot the paper
 * goldens test pins -- and, with --ir, for tests/goldens_ir.inc --
 * the instruction-stream disassembly snapshot the IR lowering test
 * pins, plus a digest of the disassembly of every (network, engine,
 * phase, overlap) lowering; with --serving, for
 * tests/goldens_serving.inc -- the export digests of every case of the
 * serving scenario matrix (tests/serving_digest.hh). Run via
 * scripts/regen_goldens.sh after a REVIEWED model change; never
 * hand-edit the .inc files.
 *
 * Values print as %.17g, which round-trips IEEE doubles exactly, so
 * the test can assert EXPECT_EQ -- any drift, however small, is a
 * model change.
 */

#include <cstdio>
#include <cstring>

#include "arch/config.hh"
#include "baseline/engine.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "ir_digest.hh"
#include "nn/model_zoo.hh"
#include "serving_digest.hh"

namespace {

inca::ir::Program
lower(const char *engine, const inca::nn::NetworkDesc &net,
      inca::arch::Phase phase, int batch, bool overlap = false)
{
    using namespace inca;
    const ir::LowerOptions opts{overlap};
    return std::strcmp(engine, "inca") == 0
               ? ir::lowerInca(arch::paperInca(), net, phase, batch,
                               opts)
               : ir::lowerWs(arch::paperBaseline(), net, phase, batch,
                             opts);
}

const char *
phaseName(inca::arch::Phase phase)
{
    return phase == inca::arch::Phase::Training ? "training"
                                                : "inference";
}

/**
 * Emit one IrGolden entry: the overlap-off disassembly of a
 * (engine, network, phase) triple as a raw string literal. The small
 * paper networks keep the snapshot reviewable; the big ones are
 * covered by the differential event-backend tests instead.
 */
void
printIrGolden(const char *engine, const inca::nn::NetworkDesc &net,
              inca::arch::Phase phase, int batch)
{
    using namespace inca;
    const ir::Program p = lower(engine, net, phase, batch);
    std::printf("    {\"%s\", \"%s\", \"%s\",\n"
                "     R\"ir(%s)ir\"},\n",
                engine, net.name.c_str(), phaseName(phase),
                ir::disassemble(p).c_str());
}

int
irMain()
{
    using namespace inca;
    const int batch = 64;
    std::printf(
        "// Generated by tests/golden_gen.cc --ir -- do not edit.\n"
        "// Regenerate with scripts/regen_goldens.sh after a\n"
        "// reviewed model or lowering change.\n"
        "\n"
        "inline constexpr int kIrGoldenBatch = %d;\n"
        "\n"
        "inline const IrGolden kIrGoldens[] = {\n",
        batch);
    for (const auto &net : {nn::lenet5(), nn::vgg8()})
        for (const char *engine : {"inca", "ws"})
            for (const arch::Phase phase :
                 {arch::Phase::Inference, arch::Phase::Training})
                printIrGolden(engine, net, phase, batch);
    std::printf("};\n"
                "\n"
                "inline const IrDigest kIrDigests[] = {\n");
    for (const char *name : kIrDigestNetworks) {
        const nn::NetworkDesc net = nn::byName(name);
        for (const char *engine : {"inca", "ws"})
            for (const arch::Phase phase :
                 {arch::Phase::Inference, arch::Phase::Training})
                for (const bool overlap : {false, true})
                    std::printf(
                        "    {\"%s\", \"%s\", \"%s\", %d, "
                        "0x%016llxULL},\n",
                        engine, name, phaseName(phase), overlap ? 1 : 0,
                        (unsigned long long)fnv1a64(ir::disassemble(
                            lower(engine, net, phase, batch,
                                  overlap))));
    }
    std::printf("};\n");
    return 0;
}

int
servingMain()
{
    using namespace inca;
    std::printf(
        "// Generated by tests/golden_gen.cc --serving -- do not edit.\n"
        "// Regenerate with scripts/regen_goldens.sh after a\n"
        "// reviewed serving-model change.\n"
        "\n"
        "inline const ServingGolden kServingGoldens[] = {\n");
    for (const ServingDigestCase &c : servingDigestCases()) {
        const ServingDigests d =
            servingDigests(serving::simulate(c.spec));
        std::printf("    {\"%s\",\n"
                    "     0x%016llxULL, 0x%016llxULL, "
                    "0x%016llxULL},\n",
                    c.name.c_str(), (unsigned long long)d.json,
                    (unsigned long long)d.requests,
                    (unsigned long long)d.timeline);
    }
    std::printf("};\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;
    if (argc > 1 && std::strcmp(argv[1], "--ir") == 0)
        return irMain();
    if (argc > 1 && std::strcmp(argv[1], "--serving") == 0)
        return servingMain();
    const int batch = 64;
    core::IncaEngine is(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());

    std::printf(
        "// Generated by tests/golden_gen.cc -- do not edit.\n"
        "// Regenerate with scripts/regen_goldens.sh after a\n"
        "// reviewed model change.\n"
        "\n"
        "inline constexpr int kGoldenBatch = %d;\n"
        "\n"
        "inline const EngineGolden kFig11Fig14[] = {\n",
        batch);
    for (const auto &net : nn::evaluationSuite()) {
        const auto iInf = is.inference(net, batch);
        const auto bInf = base.inference(net, batch);
        const auto iTrn = is.training(net, batch);
        const auto bTrn = base.training(net, batch);
        std::printf("    {\"%s\",\n"
                    "     %.17g, %.17g,\n"
                    "     %.17g, %.17g},\n",
                    net.name.c_str(),
                    bInf.energy() / iInf.energy(),
                    bInf.latency / iInf.latency,
                    bTrn.energy() / iTrn.energy(),
                    bTrn.latency / iTrn.latency);
    }
    std::printf("};\n");
    return 0;
}
