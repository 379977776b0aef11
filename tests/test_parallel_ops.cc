/**
 * @file
 * Differential tests for the parallel im2col convolution paths.
 *
 * conv2d(), conv2dInputGrad() and conv2dWeightGrad() are the
 * production im2col + blocked-GEMM implementations, parallelized on
 * the shared ThreadPool. Their contract is exact: every output
 * element is accumulated in the same serial order as the naive
 * scalar loops, so the results must match conv2dNaive() and the
 * *GradNaive() references bit-for-bit (0 ULP) at every thread count.
 * These tests sweep ~20 randomized shapes -- odd strides, asymmetric
 * kernels, heavy padding, batch 1 and 7 -- at 1, 2 and 8 lanes. The
 * interval im2col packer and the raw-pointer max-pool loops are held
 * to the same 0-ULP standard against per-element references.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "tensor/ops.hh"

namespace inca {
namespace tensor {
namespace {

struct ConvCase
{
    std::int64_t n, c, f, h, w;
    int kh, kw, stride, pad;

    std::string
    label() const
    {
        return "n" + std::to_string(n) + "c" + std::to_string(c) +
               "f" + std::to_string(f) + "_" + std::to_string(h) +
               "x" + std::to_string(w) + "_k" + std::to_string(kh) +
               "x" + std::to_string(kw) + "s" +
               std::to_string(stride) + "p" + std::to_string(pad);
    }
};

/**
 * The shape sweep. Deliberately adversarial: strides 1/2/3, kh != kw,
 * even kernels, pad up to k (which exercises the input-grad fallback
 * path for pad > k-1), kernels as large as the padded input, and the
 * batch sizes 1 and 7 the chunking logic splits unevenly.
 */
const std::vector<ConvCase> kCases = {
    {1, 1, 1, 5, 5, 3, 3, 1, 0},   // minimal
    {1, 3, 4, 8, 8, 3, 3, 1, 1},   // the common 3x3 same-pad
    {7, 2, 3, 9, 7, 3, 3, 2, 1},   // odd batch, non-square input
    {1, 4, 2, 6, 6, 3, 3, 2, 1},   // stride-2 with output overhang
    {7, 3, 5, 11, 11, 5, 5, 2, 2}, // 5x5 stride 2
    {1, 2, 2, 8, 6, 1, 3, 1, 0},   // 1x3 asymmetric kernel
    {2, 3, 4, 7, 9, 3, 1, 1, 0},   // 3x1 asymmetric kernel
    {7, 1, 6, 10, 10, 4, 4, 2, 0}, // even kernel
    {1, 5, 3, 12, 12, 3, 3, 3, 1}, // stride 3
    {2, 2, 2, 13, 9, 5, 3, 3, 2},  // stride 3, kh != kw
    {1, 3, 3, 6, 6, 2, 2, 1, 2},   // pad > k-1 (input-grad fallback)
    {7, 2, 4, 5, 5, 3, 3, 1, 2},   // pad = k-1, asymmetric overhang
    {1, 6, 8, 14, 14, 3, 3, 2, 1}, // wider channels
    {3, 4, 4, 8, 8, 3, 3, 2, 0},   // no padding, stride 2
    {1, 1, 2, 7, 7, 7, 7, 1, 3},   // kernel spans the padded input
    {2, 3, 2, 10, 8, 5, 5, 2, 2},  // 5x5 on non-square input
    {7, 4, 1, 9, 9, 3, 3, 2, 2},   // single filter, odd batch
    {1, 2, 5, 15, 11, 3, 5, 2, 1}, // 3x5 asymmetric kernel
    {2, 1, 3, 6, 10, 3, 3, 1, 1},  // wide input
    {1, 3, 4, 8, 8, 4, 2, 2, 1},   // 4x2 even asymmetric kernel
};

const std::vector<int> kThreadCounts = {1, 2, 8};

/** Every test leaves the pool in the serial default. */
class ParallelOps : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(ParallelOps, ForwardMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(1000 + cs.n + 31 * cs.h + 7 * cs.kh);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};

        ThreadPool::setGlobalThreads(1);
        const Tensor ref = conv2dNaive(x, w, spec);
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool::setGlobalThreads(threads);
            EXPECT_TRUE(conv2d(x, w, spec).equals(ref));
            EXPECT_TRUE(conv2dGemm(x, w, spec).equals(ref));
        }
    }
}

TEST_F(ParallelOps, InputGradMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(2000 + cs.c + 13 * cs.w + 5 * cs.kw);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = convOutDim(cs.w, cs.kw, spec);
        const Tensor dy = Tensor::randn({cs.n, cs.f, oh, ow}, rng);

        ThreadPool::setGlobalThreads(1);
        const Tensor ref =
            conv2dInputGradNaive(dy, w, x.shape(), spec);
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool::setGlobalThreads(threads);
            EXPECT_TRUE(
                conv2dInputGrad(dy, w, x.shape(), spec).equals(ref));
        }
    }
}

TEST_F(ParallelOps, WeightGradMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(3000 + cs.f + 17 * cs.h + 3 * cs.stride);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = convOutDim(cs.w, cs.kw, spec);
        const Tensor dy = Tensor::randn({cs.n, cs.f, oh, ow}, rng);

        ThreadPool::setGlobalThreads(1);
        const Tensor ref =
            conv2dWeightGradNaive(dy, x, w.shape(), spec);
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool::setGlobalThreads(threads);
            EXPECT_TRUE(
                conv2dWeightGrad(dy, x, w.shape(), spec).equals(ref));
        }
    }
}

/**
 * im2col is the packer conv2dWeightGrad multiplies through; its
 * interval packing must place every tap, and leave every padded tap
 * an exact zero, where the per-element definition does.
 */
TEST_F(ParallelOps, Im2colMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(6000 + cs.c + 11 * cs.h + cs.kw);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = convOutDim(cs.w, cs.kw, spec);
        const std::int64_t depth = cs.c * cs.kh * cs.kw;

        Tensor ref({cs.n * oh * ow, depth});
        for (std::int64_t in = 0; in < cs.n; ++in)
            for (std::int64_t orow = 0; orow < oh; ++orow)
                for (std::int64_t ocol = 0; ocol < ow; ++ocol)
                    for (std::int64_t ic = 0; ic < cs.c; ++ic)
                        for (std::int64_t kr = 0; kr < cs.kh; ++kr)
                            for (std::int64_t kc = 0; kc < cs.kw; ++kc) {
                                const std::int64_t ir =
                                    orow * cs.stride + kr - cs.pad;
                                const std::int64_t icl =
                                    ocol * cs.stride + kc - cs.pad;
                                const bool inside = ir >= 0 &&
                                                    ir < cs.h &&
                                                    icl >= 0 && icl < cs.w;
                                ref.at((in * oh + orow) * ow + ocol,
                                       (ic * cs.kh + kr) * cs.kw + kc) =
                                    inside ? x.at(in, ic, ir, icl) : 0.0f;
                            }
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool::setGlobalThreads(threads);
            EXPECT_TRUE(im2col(x, cs.kh, cs.kw, spec).equals(ref));
        }
    }
}

/**
 * Max pooling against the per-element definition: the first maximum
 * in row-major window order wins ties, and the gradient routes to
 * exactly that input. The input is drawn from a handful of levels so
 * most windows hold tied maxima.
 */
TEST_F(ParallelOps, MaxPoolMatchesNaiveExactly)
{
    struct PoolCase
    {
        std::int64_t n, c, h, w;
        int k, stride, pad;
    };
    const std::vector<PoolCase> cases = {
        {1, 1, 4, 4, 2, 2, 0},  {7, 3, 9, 7, 3, 2, 1},
        {2, 4, 12, 12, 2, 2, 0}, {3, 2, 8, 11, 3, 1, 1},
        {1, 5, 10, 10, 4, 3, 2}, {7, 1, 5, 5, 5, 1, 2},
    };
    for (const auto &pc : cases) {
        const ConvSpec spec{pc.stride, pc.pad};
        SCOPED_TRACE("n" + std::to_string(pc.n) + "c" +
                     std::to_string(pc.c) + "_" + std::to_string(pc.h) +
                     "x" + std::to_string(pc.w) + "_k" +
                     std::to_string(pc.k) + "s" +
                     std::to_string(pc.stride) + "p" +
                     std::to_string(pc.pad));
        Rng rng(7000 + pc.h * 13 + pc.k);
        Tensor x({pc.n, pc.c, pc.h, pc.w});
        for (std::int64_t i = 0; i < x.size(); ++i)
            x[i] = float(rng.below(4)) - 1.5f;
        const std::int64_t oh = convOutDim(pc.h, pc.k, spec);
        const std::int64_t ow = convOutDim(pc.w, pc.k, spec);
        const Tensor dy = Tensor::randn({pc.n, pc.c, oh, ow}, rng);

        Tensor refOut({pc.n, pc.c, oh, ow}), refArg({pc.n, pc.c, oh, ow});
        Tensor refDx(x.shape());
        for (std::int64_t in = 0; in < pc.n; ++in)
            for (std::int64_t ic = 0; ic < pc.c; ++ic)
                for (std::int64_t orow = 0; orow < oh; ++orow)
                    for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                        float best = -1e30f;
                        std::int64_t br = -1, bc = -1;
                        for (int kr = 0; kr < pc.k; ++kr)
                            for (int kc = 0; kc < pc.k; ++kc) {
                                const std::int64_t ir =
                                    orow * pc.stride + kr - pc.pad;
                                const std::int64_t icl =
                                    ocol * pc.stride + kc - pc.pad;
                                if (ir < 0 || ir >= pc.h || icl < 0 ||
                                    icl >= pc.w)
                                    continue;
                                if (x.at(in, ic, ir, icl) > best) {
                                    best = x.at(in, ic, ir, icl);
                                    br = ir;
                                    bc = icl;
                                }
                            }
                        ASSERT_GE(br, 0);
                        refOut.at(in, ic, orow, ocol) = best;
                        refArg.at(in, ic, orow, ocol) =
                            float(br * pc.w + bc);
                        refDx.at(in, ic, br, bc) += dy.at(in, ic, orow, ocol);
                    }
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool::setGlobalThreads(threads);
            const PoolResult res = maxPool2d(x, pc.k, spec);
            EXPECT_TRUE(res.output.equals(refOut));
            EXPECT_TRUE(res.argmax.equals(refArg));
            EXPECT_TRUE(maxPool2dGrad(dy, res.argmax, x.shape(), pc.k, spec)
                            .equals(refDx));
        }
    }
}

/** Matmul's blocked kernel must also be order-exact. */
TEST_F(ParallelOps, MatmulBitIdenticalAcrossThreadCounts)
{
    Rng rng(4000);
    const Tensor a = Tensor::randn({37, 53}, rng);
    const Tensor b = Tensor::randn({53, 29}, rng);

    // Reference: the plain ascending-k accumulation order.
    Tensor ref({37, 29});
    for (std::int64_t i = 0; i < 37; ++i) {
        for (std::int64_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 53; ++k)
                acc += a[i * 53 + k] * b[k * 29 + j];
            ref[i * 29 + j] = acc;
        }
    }
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        EXPECT_TRUE(matmul(a, b).equals(ref));
    }
}

/** Depthwise convolution and its gradients ride the same pool. */
TEST_F(ParallelOps, DepthwiseBitIdenticalAcrossThreadCounts)
{
    Rng rng(5000);
    const Tensor x = Tensor::randn({7, 5, 9, 9}, rng);
    const Tensor w = Tensor::randn({5, 3, 3}, rng);
    const ConvSpec spec{2, 1};
    const std::int64_t od = convOutDim(9, 3, spec);
    const Tensor dy = Tensor::randn({7, 5, od, od}, rng);

    ThreadPool::setGlobalThreads(1);
    const Tensor refY = depthwiseConv2d(x, w, spec);
    const Tensor refDx =
        depthwiseConv2dInputGrad(dy, w, x.shape(), spec);
    const Tensor refDw =
        depthwiseConv2dWeightGrad(dy, x, w.shape(), spec);
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        EXPECT_TRUE(depthwiseConv2d(x, w, spec).equals(refY));
        EXPECT_TRUE(depthwiseConv2dInputGrad(dy, w, x.shape(), spec)
                        .equals(refDx));
        EXPECT_TRUE(depthwiseConv2dWeightGrad(dy, x, w.shape(), spec)
                        .equals(refDw));
    }
}

} // namespace
} // namespace tensor
} // namespace inca
