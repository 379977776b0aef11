#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "tensor/kernels/kernels.hh"

namespace inca {
namespace tensor {

std::int64_t
convOutDim(std::int64_t in, int k, const ConvSpec &spec)
{
    const std::int64_t padded = in + 2 * spec.pad;
    inca_assert(padded >= k, "window %d larger than padded input %lld", k,
                (long long)padded);
    return (padded - k) / spec.stride + 1;
}

namespace {

// The blocked GEMM row-range microkernel (deterministic ascending-k
// accumulation per C element, the property cross-thread and
// cross-ISA bit-identity rests on) lives in tensor/kernels/ now, one
// implementation per instruction set; kernels::active() picks the
// widest one the CPU supports. Callers hoist the KernelSet once per
// op so a conv counts as one dispatch, not one per pool task.

/** Filters handled per GEMM task (batch x filter-block fan-out). */
constexpr std::int64_t kFilterBlock = 16;

/**
 * Output positions p in [0, out) whose window tap p * stride + off
 * lands inside [0, in): an interval, since the tap is affine in p.
 */
std::pair<std::int64_t, std::int64_t>
validRange(std::int64_t off, std::int64_t stride, std::int64_t in,
           std::int64_t out)
{
    const std::int64_t begin = off >= 0 ? 0 : (-off + stride - 1) / stride;
    const std::int64_t end =
        in - 1 - off < 0 ? 0 : std::min(out, (in - 1 - off) / stride + 1);
    return {begin, std::max(begin, end)};
}

/**
 * Geometry of one im2col packing: input images [C, H, W], a KH x KW
 * window at @p stride with padH / padW zero rows / columns before the
 * image, and an OH x OW output grid. The grid is passed in rather
 * than derived so callers can request asymmetric overhang (transposed
 * convolution needs up to stride-1 extra rows at the bottom/right --
 * "output padding"); overhang reads as zeros like the padding.
 */
struct PackGeom
{
    std::int64_t c, h, wd, kh, kw, oh, ow;
    std::int64_t stride, padH, padW;
};

/**
 * The one im2col packer. Writes tap k = (ic, kr, kc) of every output
 * position (orow, ocol) of one image to dst[orow * rowStride + ocol *
 * colStride]. Out-of-window taps are skipped, so callers pack into
 * zeroed storage: the zeros reproduce the naive loops' skipped
 * contributions. The valid positions form one row interval and one
 * column interval, so each output row is a single copyRow/gatherRow
 * call (colStride 1) or one strided scatter, with no per-element
 * bounds checks.
 */
void
packTap(const kernels::KernelSet &ks, const PackGeom &g,
        const float *xImage, std::int64_t k, float *dst,
        std::int64_t rowStride, std::int64_t colStride)
{
    const std::int64_t ic = k / (g.kh * g.kw);
    const std::int64_t kr = (k / g.kw) % g.kh;
    const std::int64_t kc = k % g.kw;
    const auto [iBegin, iEnd] = validRange(kr - g.padH, g.stride, g.h, g.oh);
    const auto [jBegin, jEnd] = validRange(kc - g.padW, g.stride, g.wd, g.ow);
    const std::int64_t count = jEnd - jBegin;
    if (count == 0)
        return;
    const float *plane = xImage + ic * g.h * g.wd;
    const std::int64_t icol = jBegin * g.stride + kc - g.padW;
    for (std::int64_t orow = iBegin; orow < iEnd; ++orow) {
        const float *src =
            plane + (orow * g.stride + kr - g.padH) * g.wd + icol;
        float *drow = dst + orow * rowStride + jBegin * colStride;
        if (colStride != 1) {
            for (std::int64_t j = 0; j < count; ++j)
                drow[j * colStride] = src[j * g.stride];
        } else if (g.stride == 1) {
            ks.copyRow(drow, src, count);
        } else {
            ks.gatherRow(drow, src, count, g.stride);
        }
    }
}

/** Packing geometry of a rank-4 input under a symmetric ConvSpec. */
PackGeom
im2colGeom(const Tensor &x, int kh, int kw, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4, "im2col expects rank 4");
    return PackGeom{x.dim(1), x.dim(2), x.dim(3), kh, kw,
                    convOutDim(x.dim(2), kh, spec),
                    convOutDim(x.dim(3), kw, spec), spec.stride,
                    spec.pad, spec.pad};
}

/**
 * Shared convolution engine: y[in][of][pix] = sum_k wFlat[of][k] *
 * colsT[in][k][pix], where colsT is the transposed im2col of one
 * image (k = (ic, kr, kc) ascending -- the naive accumulation order)
 * and wFlat is the [F, C*KH*KW] row-major view of the kernels.
 *
 * Phase 1 packs colsT for all images in parallel, one (image, k) row
 * per packTap call (disjoint rows); phase 2 fans the GEMM over batch
 * x filter blocks (disjoint output slices).
 */
Tensor
convViaGemm(const float *xData, std::int64_t n, const float *wFlat,
            std::int64_t f, const PackGeom &g)
{
    const std::int64_t depth = g.c * g.kh * g.kw;
    const std::int64_t oh = g.oh, ow = g.ow, pix = oh * ow;
    const std::int64_t imageSize = g.c * g.h * g.wd;
    const kernels::KernelSet &ks = kernels::active();

    // Zeroed lease: packTap leaves out-of-window taps untouched.
    arena::ScratchLease colsT =
        arena::scratchFloats(std::size_t(n * depth * pix), true);
    parallel_for(n * depth, 8, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t idx = lo; idx < hi; ++idx)
            packTap(ks, g, xData + (idx / depth) * imageSize,
                    idx % depth, colsT.data() + idx * pix, ow, 1);
    });

    Tensor y({n, f, oh, ow});
    const std::int64_t nfb = (f + kFilterBlock - 1) / kFilterBlock;
    parallel_for(n * nfb, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t t = lo; t < hi; ++t) {
            const std::int64_t in = t / nfb;
            const std::int64_t f0 = (t % nfb) * kFilterBlock;
            const std::int64_t f1 = std::min(f0 + kFilterBlock, f);
            ks.gemmRowRange(wFlat, depth,
                            colsT.data() + in * depth * pix, pix,
                            y.data() + in * f * pix, pix, f0, f1,
                            depth, pix);
        }
    });
    return y;
}

/**
 * Naive-order input gradient for ONE image: identical loops (and thus
 * identical float accumulation order) to conv2dInputGradNaive, but
 * scoped to the disjoint dx slice of image @p in so images can run in
 * parallel.
 */
void
inputGradImage(Tensor &dx, const Tensor &dy, const Tensor &w,
               std::int64_t in, const ConvSpec &spec)
{
    const std::int64_t f = dy.dim(1), oh = dy.dim(2), ow = dy.dim(3);
    const std::int64_t c = dx.dim(1), h = dx.dim(2), wd = dx.dim(3);
    const std::int64_t kh = w.dim(2), kw = w.dim(3);
    for (std::int64_t of = 0; of < f; ++of) {
        for (std::int64_t orow = 0; orow < oh; ++orow) {
            for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                const float g = dy.at(in, of, orow, ocol);
                if (g == 0.0f)
                    continue;
                for (std::int64_t ic = 0; ic < c; ++ic) {
                    for (std::int64_t kr = 0; kr < kh; ++kr) {
                        const std::int64_t ir =
                            orow * spec.stride + kr - spec.pad;
                        if (ir < 0 || ir >= h)
                            continue;
                        for (std::int64_t kc = 0; kc < kw; ++kc) {
                            const std::int64_t icl =
                                ocol * spec.stride + kc - spec.pad;
                            if (icl < 0 || icl >= wd)
                                continue;
                            dx.at(in, ic, ir, icl) +=
                                g * w.at(of, ic, kr, kc);
                        }
                    }
                }
            }
        }
    }
}

} // namespace

Tensor
conv2dNaive(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 4, "conv2d expects 4-D x/w");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
    inca_assert(w.dim(1) == c, "channel mismatch: x has %lld, w has %lld",
                (long long)c, (long long)w.dim(1));
    const std::int64_t oh = convOutDim(h, int(kh), spec);
    const std::int64_t ow = convOutDim(wd, int(kw), spec);

    Tensor y({n, f, oh, ow});
    for (std::int64_t in = 0; in < n; ++in) {
        for (std::int64_t of = 0; of < f; ++of) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    float acc = 0.0f;
                    for (std::int64_t ic = 0; ic < c; ++ic) {
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                acc += x.at(in, ic, ir, icl) *
                                       w.at(of, ic, kr, kc);
                            }
                        }
                    }
                    y.at(in, of, orow, ocol) = acc;
                }
            }
        }
    }
    return y;
}

Tensor
conv2d(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 4, "conv2d expects 4-D x/w");
    inca_assert(w.dim(1) == x.dim(1),
                "channel mismatch: x has %lld, w has %lld",
                (long long)x.dim(1), (long long)w.dim(1));
    // w is [F, C, KH, KW] row-major, i.e. already the [F, C*KH*KW]
    // weight matrix the GEMM wants -- one unrolled kernel per row,
    // exactly how WS crossbars lay kernels out (one kernel per
    // bitline).
    return convViaGemm(x.data(), x.dim(0), w.data(), w.dim(0),
                       im2colGeom(x, int(w.dim(2)), int(w.dim(3)), spec));
}

Tensor
conv2dInputGradNaive(const Tensor &dy, const Tensor &w,
                     const std::vector<std::int64_t> &xShape,
                     const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && w.rank() == 4 && xShape.size() == 4,
                "conv2dInputGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1);
    const std::int64_t c = xShape[1];
    inca_assert(w.dim(0) == f && w.dim(1) == c, "shape mismatch");

    Tensor dx(xShape);
    for (std::int64_t in = 0; in < n; ++in)
        inputGradImage(dx, dy, w, in, spec);
    return dx;
}

Tensor
conv2dInputGrad(const Tensor &dy, const Tensor &w,
                const std::vector<std::int64_t> &xShape,
                const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && w.rank() == 4 && xShape.size() == 4,
                "conv2dInputGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = xShape[1], h = xShape[2], wd = xShape[3];
    const std::int64_t kh = w.dim(2), kw = w.dim(3);
    inca_assert(w.dim(0) == f && w.dim(1) == c, "shape mismatch");

    // Transposed-convolution route: dilate dy by the stride, flip the
    // kernel spatially, swap its filter/channel axes, and push it
    // through the forward GEMM engine at stride 1, asking for exactly
    // x's spatial dims (the engine zero-extends the bottom/right
    // overhang a non-tiling stride leaves). The engine's column order
    // (of ascending, then flipped taps ascending = orow, ocol
    // ascending) reproduces the naive scatter's accumulation order
    // exactly; the dilation/padding zeros contribute exact zeros.
    // Padding beyond the kernel falls back to the naive-order
    // per-image loops, parallel over the batch.
    const int padH = int(kh) - 1 - spec.pad;
    const int padW = int(kw) - 1 - spec.pad;
    if (padH < 0 || padW < 0) {
        Tensor dx(xShape);
        parallel_for(n, 1, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t in = lo; in < hi; ++in)
                inputGradImage(dx, dy, w, in, spec);
        });
        return dx;
    }

    const float *srcData = dy.data();
    std::int64_t srcH = oh, srcW = ow;
    arena::ScratchLease dilated;
    if (spec.stride > 1) {
        const std::int64_t hd = (oh - 1) * spec.stride + 1;
        const std::int64_t wdd = (ow - 1) * spec.stride + 1;
        // Zeroed lease: the gaps between scattered dy taps must be
        // exact zeros (they are the dilation).
        dilated =
            arena::scratchFloats(std::size_t(n * f * hd * wdd), true);
        parallel_for(n * f, 4, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t plane = lo; plane < hi; ++plane) {
                const float *s = dy.data() + plane * oh * ow;
                float *d = dilated.data() + plane * hd * wdd;
                for (std::int64_t orow = 0; orow < oh; ++orow)
                    for (std::int64_t ocol = 0; ocol < ow; ++ocol)
                        d[orow * spec.stride * wdd +
                          ocol * spec.stride] = s[orow * ow + ocol];
            }
        });
        srcData = dilated.data();
        srcH = hd;
        srcW = wdd;
    }

    // wT[ic][of][a][b] = w[of][ic][kh-1-a][kw-1-b]. Unzeroed lease:
    // every element is written below.
    arena::ScratchLease wT =
        arena::scratchFloats(std::size_t(c * f * kh * kw), false);
    parallel_for(c * f, 16, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t cf = lo; cf < hi; ++cf) {
            const std::int64_t ic = cf / f;
            const std::int64_t of = cf % f;
            const float *wsrc = w.data() + (of * c + ic) * kh * kw;
            float *wdst = wT.data() + cf * kh * kw;
            for (std::int64_t a = 0; a < kh; ++a)
                for (std::int64_t b = 0; b < kw; ++b)
                    wdst[a * kw + b] =
                        wsrc[(kh - 1 - a) * kw + (kw - 1 - b)];
        }
    });

    return convViaGemm(srcData, n, wT.data(), c,
                       PackGeom{f, srcH, srcW, kh, kw, h, wd, 1, padH, padW});
}

Tensor
conv2dWeightGradNaive(const Tensor &dy, const Tensor &x,
                      const std::vector<std::int64_t> &wShape,
                      const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && x.rank() == 4 && wShape.size() == 4,
                "conv2dWeightGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = x.dim(1), h = x.dim(2), wd = x.dim(3);
    const std::int64_t kh = wShape[2], kw = wShape[3];
    inca_assert(wShape[0] == f && wShape[1] == c, "shape mismatch");

    Tensor dw(wShape);
    for (std::int64_t in = 0; in < n; ++in) {
        for (std::int64_t of = 0; of < f; ++of) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const float g = dy.at(in, of, orow, ocol);
                    if (g == 0.0f)
                        continue;
                    for (std::int64_t ic = 0; ic < c; ++ic) {
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                dw.at(of, ic, kr, kc) +=
                                    g * x.at(in, ic, ir, icl);
                            }
                        }
                    }
                }
            }
        }
    }
    return dw;
}

Tensor
conv2dWeightGrad(const Tensor &dy, const Tensor &x,
                 const std::vector<std::int64_t> &wShape,
                 const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && x.rank() == 4 && wShape.size() == 4,
                "conv2dWeightGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = x.dim(1);
    const std::int64_t kh = wShape[2], kw = wShape[3];
    inca_assert(wShape[0] == f && wShape[1] == c, "shape mismatch");

    // dw[of][k] = sum_row dyT[of][row] * cols[row][k], rows ascending
    // in (image, orow, ocol) -- the naive loops' contribution order
    // for every dw element (the of loop sits between in and orow
    // there, which cannot reorder a fixed of's contributions).
    const std::int64_t pix = oh * ow;
    const std::int64_t rows = n * pix;
    const std::int64_t depth = c * kh * kw;

    const Tensor cols = im2col(x, int(kh), int(kw), spec); // [rows, depth]
    const kernels::KernelSet &ks = kernels::active();

    // dyT[of][row]: gather the NCHW dy into filter-major order.
    // Unzeroed lease: every element is written below.
    arena::ScratchLease dyT =
        arena::scratchFloats(std::size_t(f * rows), false);
    parallel_for(f, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t of = lo; of < hi; ++of) {
            float *dst = dyT.data() + of * rows;
            for (std::int64_t in = 0; in < n; ++in)
                ks.copyRow(dst + in * pix,
                           dy.data() + (in * f + of) * pix, pix);
        }
    });

    Tensor dw(wShape); // [f][depth] row-major, zero-filled
    const std::int64_t nfb = (f + kFilterBlock - 1) / kFilterBlock;
    parallel_for(nfb, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t t = lo; t < hi; ++t) {
            const std::int64_t f0 = t * kFilterBlock;
            const std::int64_t f1 = std::min(f0 + kFilterBlock, f);
            ks.gemmRowRange(dyT.data(), rows, cols.data(), depth,
                            dw.data(), depth, f0, f1, rows, depth);
        }
    });
    return dw;
}

Tensor
depthwiseConv2d(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 3,
                "depthwiseConv2d expects x rank 4, w rank 3");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t kh = w.dim(1), kw = w.dim(2);
    inca_assert(w.dim(0) == c, "depthwise channel mismatch");
    const std::int64_t oh = convOutDim(h, int(kh), spec);
    const std::int64_t ow = convOutDim(wd, int(kw), spec);

    Tensor y({n, c, oh, ow});
    parallel_for(n * c, 2, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            const std::int64_t in = plane / c;
            const std::int64_t ic = plane % c;
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    float acc = 0.0f;
                    for (std::int64_t kr = 0; kr < kh; ++kr) {
                        const std::int64_t ir =
                            orow * spec.stride + kr - spec.pad;
                        if (ir < 0 || ir >= h)
                            continue;
                        for (std::int64_t kc = 0; kc < kw; ++kc) {
                            const std::int64_t icl =
                                ocol * spec.stride + kc - spec.pad;
                            if (icl < 0 || icl >= wd)
                                continue;
                            acc += x.at(in, ic, ir, icl) *
                                   w.at(ic, kr, kc);
                        }
                    }
                    y.at(in, ic, orow, ocol) = acc;
                }
            }
        }
    });
    return y;
}

Tensor
depthwiseConv2dInputGrad(const Tensor &dy, const Tensor &w,
                         const std::vector<std::int64_t> &xShape,
                         const ConvSpec &spec)
{
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t h = xShape[2], wd = xShape[3];
    const std::int64_t kh = w.dim(1), kw = w.dim(2);

    Tensor dx(xShape);
    parallel_for(n * c, 2, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            const std::int64_t in = plane / c;
            const std::int64_t ic = plane % c;
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const float g = dy.at(in, ic, orow, ocol);
                    if (g == 0.0f)
                        continue;
                    for (std::int64_t kr = 0; kr < kh; ++kr) {
                        const std::int64_t ir =
                            orow * spec.stride + kr - spec.pad;
                        if (ir < 0 || ir >= h)
                            continue;
                        for (std::int64_t kc = 0; kc < kw; ++kc) {
                            const std::int64_t icl =
                                ocol * spec.stride + kc - spec.pad;
                            if (icl < 0 || icl >= wd)
                                continue;
                            dx.at(in, ic, ir, icl) += g * w.at(ic, kr, kc);
                        }
                    }
                }
            }
        }
    });
    return dx;
}

Tensor
depthwiseConv2dWeightGrad(const Tensor &dy, const Tensor &x,
                          const std::vector<std::int64_t> &wShape,
                          const ConvSpec &spec)
{
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t h = x.dim(2), wd = x.dim(3);
    const std::int64_t kh = wShape[1], kw = wShape[2];

    Tensor dw(wShape);
    // Each channel's dw slice accumulates over (image, orow, ocol) in
    // the original order; channels partition the output.
    parallel_for(c, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ic = lo; ic < hi; ++ic) {
            for (std::int64_t in = 0; in < n; ++in) {
                for (std::int64_t orow = 0; orow < oh; ++orow) {
                    for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                        const float g = dy.at(in, ic, orow, ocol);
                        if (g == 0.0f)
                            continue;
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                dw.at(ic, kr, kc) +=
                                    g * x.at(in, ic, ir, icl);
                            }
                        }
                    }
                }
            }
        }
    });
    return dw;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    inca_assert(a.rank() == 2 && b.rank() == 2, "matmul expects rank 2");
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    inca_assert(b.dim(0) == k, "matmul inner dims differ: %lld vs %lld",
                (long long)k, (long long)b.dim(0));

    Tensor y({m, n});
    const kernels::KernelSet &ks = kernels::active();
    parallel_for(m, 4, [&](std::int64_t lo, std::int64_t hi) {
        ks.gemmRowRange(a.data(), k, b.data(), n, y.data(), n, lo, hi,
                        k, n);
    });
    return y;
}

Tensor
transpose(const Tensor &a)
{
    inca_assert(a.rank() == 2, "transpose expects rank 2");
    const std::int64_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    parallel_for(m, 64, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            for (std::int64_t j = 0; j < n; ++j)
                t.at(j, i) = a.at(i, j);
    });
    return t;
}

Tensor
im2col(const Tensor &x, int kh, int kw, const ConvSpec &spec)
{
    const PackGeom g = im2colGeom(x, kh, kw, spec);
    const std::int64_t n = x.dim(0), pix = g.oh * g.ow;
    const std::int64_t depth = g.c * g.kh * g.kw;
    const std::int64_t imageSize = g.c * g.h * g.wd;
    const kernels::KernelSet &ks = kernels::active();

    // Row (image, orow, ocol), column k: packTap's transpose of the
    // colsT layout, one image (a disjoint block of rows) per task.
    Tensor cols({n * pix, depth});
    parallel_for(n, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t in = lo; in < hi; ++in)
            for (std::int64_t k = 0; k < depth; ++k)
                packTap(ks, g, x.data() + in * imageSize, k,
                        cols.data() + in * pix * depth + k,
                        g.ow * depth, depth);
    });
    return cols;
}

Tensor
conv2dGemm(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    // The unrolled WS-crossbar dataflow IS the production path now;
    // the name is kept for the paper-facing call sites and tests.
    return conv2d(x, w, spec);
}

Tensor
fc(const Tensor &x, const Tensor &w, const Tensor &bias)
{
    inca_assert(x.rank() == 2 && w.rank() == 2, "fc expects rank-2 x/w");
    Tensor y = matmul(x, w);
    if (bias.size() > 0) {
        inca_assert(bias.size() == w.dim(1), "bias size mismatch");
        for (std::int64_t i = 0; i < y.dim(0); ++i)
            for (std::int64_t j = 0; j < y.dim(1); ++j)
                y.at(i, j) += bias[j];
    }
    return y;
}

Tensor
fcInputGrad(const Tensor &dy, const Tensor &w)
{
    return matmul(dy, transpose(w));
}

Tensor
fcWeightGrad(const Tensor &dy, const Tensor &x)
{
    return matmul(transpose(x), dy);
}

Tensor
fcBiasGrad(const Tensor &dy)
{
    Tensor db({dy.dim(1)});
    for (std::int64_t i = 0; i < dy.dim(0); ++i)
        for (std::int64_t j = 0; j < dy.dim(1); ++j)
            db[j] += dy.at(i, j);
    return db;
}

namespace {

/** Elementwise-map grain: below this size threads cost more than they
 * save. */
constexpr std::int64_t kMapGrain = 16384;

} // namespace

Tensor
relu(const Tensor &x)
{
    Tensor y(x.shape());
    const float *xs = x.data();
    float *ys = y.data();
    parallel_for(x.size(), kMapGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         ys[i] = std::max(0.0f, xs[i]);
                 });
    return y;
}

Tensor
reluGrad(const Tensor &dy, const Tensor &x)
{
    inca_assert(dy.shape() == x.shape(), "reluGrad shape mismatch");
    Tensor dx(x.shape());
    const float *dys = dy.data();
    const float *xs = x.data();
    float *dxs = dx.data();
    // dy is loaded unconditionally so the mask compiles to a select,
    // not a branch on the sign of x (which mispredicts half the time).
    parallel_for(x.size(), kMapGrain,
                 [=](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i) {
                         const float g = dys[i];
                         dxs[i] = xs[i] > 0.0f ? g : 0.0f;
                     }
                 });
    return dx;
}

Tensor
sigmoid(const Tensor &x)
{
    Tensor y(x.shape());
    parallel_for(x.size(), kMapGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         y[i] = 1.0f / (1.0f + std::exp(-x[i]));
                 });
    return y;
}

Tensor
sigmoidGrad(const Tensor &dy, const Tensor &y)
{
    inca_assert(dy.shape() == y.shape(), "sigmoidGrad shape mismatch");
    Tensor dx(y.shape());
    parallel_for(y.size(), kMapGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         dx[i] = dy[i] * y[i] * (1.0f - y[i]);
                 });
    return dx;
}

Tensor
tanhAct(const Tensor &x)
{
    Tensor y(x.shape());
    parallel_for(x.size(), kMapGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         y[i] = std::tanh(x[i]);
                 });
    return y;
}

Tensor
tanhGrad(const Tensor &dy, const Tensor &y)
{
    inca_assert(dy.shape() == y.shape(), "tanhGrad shape mismatch");
    Tensor dx(y.shape());
    parallel_for(y.size(), kMapGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t i = lo; i < hi; ++i)
                         dx[i] = dy[i] * (1.0f - y[i] * y[i]);
                 });
    return dx;
}

PoolResult
maxPool2d(const Tensor &x, int k, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4, "maxPool2d expects rank 4");
    // pad < k puts at least one input tap in every window.
    inca_assert(spec.pad < k, "empty pooling window (pad %d, k %d)",
                spec.pad, k);
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t oh = convOutDim(h, k, spec);
    const std::int64_t ow = convOutDim(wd, k, spec);

    PoolResult res{Tensor({n, c, oh, ow}), Tensor({n, c, oh, ow})};
    const float *xs = x.data();
    float *ys = res.output.data();
    float *as = res.argmax.data();
    parallel_for(n * c, 2, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            const float *xp = xs + plane * h * wd;
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                const std::int64_t r0 = orow * spec.stride - spec.pad;
                const std::int64_t rBegin = std::max<std::int64_t>(r0, 0);
                const std::int64_t rEnd = std::min<std::int64_t>(r0 + k, h);
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const std::int64_t c0 = ocol * spec.stride - spec.pad;
                    const std::int64_t cBegin =
                        std::max<std::int64_t>(c0, 0);
                    const std::int64_t cEnd =
                        std::min<std::int64_t>(c0 + k, wd);
                    // Strict > keeps the first maximum in row-major
                    // window order on ties.
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t bestIdx = rBegin * wd + cBegin;
                    for (std::int64_t ir = rBegin; ir < rEnd; ++ir) {
                        for (std::int64_t icl = cBegin; icl < cEnd; ++icl) {
                            const float v = xp[ir * wd + icl];
                            if (v > best) {
                                best = v;
                                bestIdx = ir * wd + icl;
                            }
                        }
                    }
                    const std::int64_t o = (plane * oh + orow) * ow + ocol;
                    ys[o] = best;
                    as[o] = float(bestIdx);
                }
            }
        }
    });
    return res;
}

Tensor
maxPool2dGrad(const Tensor &dy, const Tensor &argmax,
              const std::vector<std::int64_t> &xShape, int k,
              const ConvSpec &spec)
{
    (void)k;
    (void)spec;
    inca_assert(dy.shape() == argmax.shape(),
                "maxPool2dGrad shape mismatch");
    inca_assert(dy.rank() == 4 && xShape.size() == 4 &&
                    xShape[0] == dy.dim(0) && xShape[1] == dy.dim(1),
                "maxPool2dGrad: dy %s does not pool an input of rank %zu",
                dy.shapeStr().c_str(), xShape.size());
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t hw = xShape[2] * xShape[3];

    Tensor dx(xShape);
    const float *dys = dy.data();
    const float *as = argmax.data();
    float *dxs = dx.data();
    parallel_for(n * c, 2, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            float *dxp = dxs + plane * hw;
            for (std::int64_t o = plane * oh * ow; o < (plane + 1) * oh * ow;
                 ++o) {
                // The argmax is data, not a loop index: keep its check.
                const float flat = as[o];
                inca_assert(flat >= 0.0f && flat < float(hw),
                            "argmax %g outside a %lld-element plane",
                            double(flat), (long long)hw);
                dxp[std::int64_t(flat)] += dys[o];
            }
        }
    });
    return dx;
}

Tensor
globalAvgPool(const Tensor &x)
{
    inca_assert(x.rank() == 4, "globalAvgPool expects rank 4");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    Tensor y({n, c});
    const float scale = 1.0f / float(h * wd);
    parallel_for(n * c, 8, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            const float *xp = x.data() + plane * h * wd;
            float acc = 0.0f;
            for (std::int64_t i = 0; i < h * wd; ++i)
                acc += xp[i];
            y[plane] = acc * scale;
        }
    });
    return y;
}

Tensor
globalAvgPoolGrad(const Tensor &dy, const std::vector<std::int64_t> &xShape)
{
    const std::int64_t n = xShape[0], c = xShape[1], h = xShape[2],
                       wd = xShape[3];
    Tensor dx(xShape);
    const float scale = 1.0f / float(h * wd);
    parallel_for(n * c, 8, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t plane = lo; plane < hi; ++plane) {
            const float g = dy[plane] * scale;
            float *d = dx.data() + plane * h * wd;
            for (std::int64_t i = 0; i < h * wd; ++i)
                d[i] = g;
        }
    });
    return dx;
}

Tensor
softmax(const Tensor &logits)
{
    inca_assert(logits.rank() == 2, "softmax expects rank 2");
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    Tensor p({n, f});
    for (std::int64_t i = 0; i < n; ++i) {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t j = 0; j < f; ++j)
            mx = std::max(mx, logits.at(i, j));
        double denom = 0.0;
        for (std::int64_t j = 0; j < f; ++j) {
            const float e = std::exp(logits.at(i, j) - mx);
            p.at(i, j) = e;
            denom += e;
        }
        for (std::int64_t j = 0; j < f; ++j)
            p.at(i, j) = float(p.at(i, j) / denom);
    }
    return p;
}

LossResult
crossEntropy(const Tensor &logits, const std::vector<int> &labels)
{
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    inca_assert(std::int64_t(labels.size()) == n,
                "label count %zu != batch %lld", labels.size(),
                (long long)n);

    const Tensor p = softmax(logits);
    LossResult res;
    res.grad = Tensor({n, f});
    double loss = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const int label = labels[size_t(i)];
        inca_assert(label >= 0 && label < f, "label %d out of range",
                    label);
        loss -= std::log(std::max(p.at(i, label), 1e-12f));
        for (std::int64_t j = 0; j < f; ++j) {
            res.grad.at(i, j) =
                (p.at(i, j) - (j == label ? 1.0f : 0.0f)) / float(n);
        }
    }
    res.loss = loss / double(n);
    return res;
}

LossResult
l2Loss(const Tensor &outputs, const std::vector<int> &labels)
{
    const std::int64_t n = outputs.dim(0), f = outputs.dim(1);
    inca_assert(std::int64_t(labels.size()) == n,
                "label count %zu != batch %lld", labels.size(),
                (long long)n);
    LossResult res;
    res.grad = Tensor({n, f});
    double loss = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const int label = labels[size_t(i)];
        inca_assert(label >= 0 && label < f, "label %d out of range",
                    label);
        for (std::int64_t j = 0; j < f; ++j) {
            const float target = j == label ? 1.0f : 0.0f;
            const float diff = outputs.at(i, j) - target;
            loss += 0.5 * double(diff) * double(diff);
            res.grad.at(i, j) = diff / float(n);
        }
    }
    res.loss = loss / double(n);
    return res;
}

int
countCorrect(const Tensor &logits, const std::vector<int> &labels)
{
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    int correct = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t best = 0;
        for (std::int64_t j = 1; j < f; ++j) {
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        }
        if (best == labels[size_t(i)])
            ++correct;
    }
    return correct;
}

} // namespace tensor
} // namespace inca
