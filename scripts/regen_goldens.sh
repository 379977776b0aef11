#!/bin/sh
# Regenerate tests/goldens_fig11_fig14.inc (paper ratio goldens) and
# tests/goldens_ir.inc (IR lowering disassembly goldens and digests)
# from the current analytic models. Run from the repo root after a
# REVIEWED model change; the paper-goldens and ir-lowering tests pin
# the output bit-for-bit.
set -eu

cd "$(dirname "$0")/.."
cmake -B build -S . >/dev/null
cmake --build build --target golden_gen -j >/dev/null
# The goldens must not depend on the thread count; generate with one
# thread to make that stance explicit.
INCA_NUM_THREADS=1 \
    ./build/tests/golden_gen > tests/goldens_fig11_fig14.inc
echo "wrote tests/goldens_fig11_fig14.inc"
INCA_NUM_THREADS=1 \
    ./build/tests/golden_gen --ir > tests/goldens_ir.inc
echo "wrote tests/goldens_ir.inc"
