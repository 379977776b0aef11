/**
 * @file
 * The digest tests/goldens_ir.inc pins for every lowering it does not
 * pin as full text: 64-bit FNV-1a over the bytes of a disassembly.
 * Shared by the generator (tests/golden_gen.cc --ir) and the check
 * (tests/test_ir_lowering.cc) so both hash the same way.
 */

#ifndef INCA_TESTS_IR_DIGEST_HH
#define INCA_TESTS_IR_DIGEST_HH

#include <cstdint>
#include <string>

namespace inca {

/** FNV-1a 64 of @p text. */
inline std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Every nn::byName network, in the digest table's order. */
inline const char *const kIrDigestNetworks[] = {
    "vgg16",       "vgg19",   "resnet18", "resnet50",
    "mobilenetv2", "mnasnet", "lenet5",   "vgg8"};

} // namespace inca

#endif // INCA_TESTS_IR_DIGEST_HH
