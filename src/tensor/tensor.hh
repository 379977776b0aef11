/**
 * @file
 * Minimal dense float tensor.
 *
 * The functional side of the simulator (accuracy experiments, functional
 * verification of the INCA direct-convolution array and the baseline
 * GEMM path) operates on small dense tensors. Data is stored row-major;
 * the common layouts are NCHW for activations and (N out, C in, KH, KW)
 * for convolution kernels.
 */

#ifndef INCA_TENSOR_TENSOR_HH
#define INCA_TENSOR_TENSOR_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace inca {

class Rng;

namespace tensor {

/** Dense row-major float tensor with explicit shape. */
class Tensor
{
  public:
    /** An empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<std::int64_t> shape);

    /** Construct with shape and explicit data (sizes must match). */
    Tensor(std::vector<std::int64_t> shape, std::vector<float> data);

    /** Zero-filled tensor factory. */
    static Tensor zeros(std::vector<std::int64_t> shape);

    /** Constant-filled tensor factory. */
    static Tensor full(std::vector<std::int64_t> shape, float value);

    /** Gaussian-random tensor (mean 0, given sigma) from @p rng. */
    static Tensor randn(std::vector<std::int64_t> shape, Rng &rng,
                        float sigma = 1.0f);

    /** Uniform-random tensor in [lo, hi) from @p rng. */
    static Tensor uniform(std::vector<std::int64_t> shape, Rng &rng,
                          float lo, float hi);

    /** Total number of elements. */
    std::int64_t size() const { return std::int64_t(data_.size()); }

    /** Tensor rank (number of dimensions). */
    int rank() const { return int(shape_.size()); }

    /** Shape vector. */
    const std::vector<std::int64_t> &shape() const { return shape_; }

    /** Size of dimension @p dim (supports negative indices). */
    std::int64_t dim(int d) const;

    /** Flat data access. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    // The element accessors are inline because the reference loops and
    // the remaining indexed ops call them once per element. They keep
    // their bounds checks; hot ops check shapes once and walk data().

    /** Flat element access with bounds check. */
    float &operator[](std::int64_t i) { return data_[size_t(checkFlat(i))]; }
    float operator[](std::int64_t i) const
    {
        return data_[size_t(checkFlat(i))];
    }

    /** 1-D indexed access. */
    float &at(std::int64_t i0) { return data_[size_t(flatIndex(i0))]; }
    /** 2-D indexed access. */
    float &at(std::int64_t i0, std::int64_t i1)
    {
        return data_[size_t(flatIndex(i0, i1))];
    }
    /** 3-D indexed access. */
    float &at(std::int64_t i0, std::int64_t i1, std::int64_t i2)
    {
        return data_[size_t(flatIndex(i0, i1, i2))];
    }
    /** 4-D indexed access. */
    float &at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
              std::int64_t i3)
    {
        return data_[size_t(flatIndex(i0, i1, i2, i3))];
    }

    float at(std::int64_t i0) const { return data_[size_t(flatIndex(i0))]; }
    float at(std::int64_t i0, std::int64_t i1) const
    {
        return data_[size_t(flatIndex(i0, i1))];
    }
    float at(std::int64_t i0, std::int64_t i1, std::int64_t i2) const
    {
        return data_[size_t(flatIndex(i0, i1, i2))];
    }
    float at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
             std::int64_t i3) const
    {
        return data_[size_t(flatIndex(i0, i1, i2, i3))];
    }

    /** Reinterpret with a new shape of identical element count. */
    Tensor reshaped(std::vector<std::int64_t> shape) const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Elementwise in-place operations. */
    Tensor &operator+=(const Tensor &other);
    Tensor &operator-=(const Tensor &other);
    Tensor &operator*=(float scalar);

    /** Sum of all elements. */
    double sum() const;

    /** Maximum absolute element (0 for empty). */
    float absMax() const;

    /** True when shapes and all elements match exactly. */
    bool equals(const Tensor &other) const;

    /** True when shapes match and elements differ by at most @p tol. */
    bool allClose(const Tensor &other, float tol = 1e-5f) const;

    /** Human-readable shape, e.g. "[2, 3, 8, 8]". */
    std::string shapeStr() const;

  private:
    std::int64_t checkFlat(std::int64_t i) const
    {
        inca_assert(i >= 0 && i < size(), "flat index %lld out of range",
                    (long long)i);
        return i;
    }

    /** Row-major offset of a full index tuple, each index checked. */
    template <typename... Idx>
    std::int64_t flatIndex(Idx... idx) const
    {
        constexpr int n = int(sizeof...(Idx));
        inca_assert(n == rank(), "index arity %d != rank %d", n, rank());
        std::int64_t flat = 0;
        size_t d = 0;
        for (const std::int64_t i : {std::int64_t(idx)...}) {
            inca_assert(i >= 0 && i < shape_[d],
                        "index %lld out of range for dim %d (size %lld)",
                        (long long)i, int(d), (long long)shape_[d]);
            flat += i * strides_[d];
            ++d;
        }
        return flat;
    }

    std::vector<std::int64_t> shape_;
    std::vector<std::int64_t> strides_;
    std::vector<float> data_;
};

} // namespace tensor
} // namespace inca

#endif // INCA_TENSOR_TENSOR_HH
