#include "tensor/tensor.hh"

#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"

namespace inca {
namespace tensor {

namespace {

std::int64_t
shapeSize(const std::vector<std::int64_t> &shape)
{
    std::int64_t n = 1;
    for (auto d : shape) {
        inca_assert(d >= 0, "negative dimension %lld", (long long)d);
        n *= d;
    }
    return n;
}

std::vector<std::int64_t>
computeStrides(const std::vector<std::int64_t> &shape)
{
    std::vector<std::int64_t> strides(shape.size(), 1);
    for (int d = int(shape.size()) - 2; d >= 0; --d)
        strides[d] = strides[d + 1] * shape[d + 1];
    return strides;
}

} // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)), strides_(computeStrides(shape_)),
      data_(shapeSize(shape_), 0.0f)
{
}

Tensor::Tensor(std::vector<std::int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), strides_(computeStrides(shape_)),
      data_(std::move(data))
{
    inca_assert(std::int64_t(data_.size()) == shapeSize(shape_),
                "data size %zu does not match shape size %lld",
                data_.size(), (long long)shapeSize(shape_));
}

Tensor
Tensor::zeros(std::vector<std::int64_t> shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::full(std::vector<std::int64_t> shape, float value)
{
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
}

Tensor
Tensor::randn(std::vector<std::int64_t> shape, Rng &rng, float sigma)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = float(rng.gaussian(0.0, sigma));
    return t;
}

Tensor
Tensor::uniform(std::vector<std::int64_t> shape, Rng &rng, float lo,
                float hi)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = float(rng.uniform(lo, hi));
    return t;
}

std::int64_t
Tensor::dim(int d) const
{
    if (d < 0)
        d += rank();
    inca_assert(d >= 0 && d < rank(), "dim %d out of range for rank %d", d,
                rank());
    return shape_[size_t(d)];
}

Tensor
Tensor::reshaped(std::vector<std::int64_t> shape) const
{
    inca_assert(shapeSize(shape) == size(),
                "reshape size mismatch: %lld -> %lld", (long long)size(),
                (long long)shapeSize(shape));
    return Tensor(std::move(shape), data_);
}

void
Tensor::fill(float value)
{
    for (auto &v : data_)
        v = value;
}

Tensor &
Tensor::operator+=(const Tensor &other)
{
    inca_assert(shape_ == other.shape_, "shape mismatch in +=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &other)
{
    inca_assert(shape_ == other.shape_, "shape mismatch in -=");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Tensor &
Tensor::operator*=(float scalar)
{
    for (auto &v : data_)
        v *= scalar;
    return *this;
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (auto v : data_)
        s += v;
    return s;
}

float
Tensor::absMax() const
{
    float m = 0.0f;
    for (auto v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

bool
Tensor::equals(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

bool
Tensor::allClose(const Tensor &other, float tol) const
{
    if (shape_ != other.shape_)
        return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (std::fabs(data_[i] - other.data_[i]) > tol)
            return false;
    }
    return true;
}

std::string
Tensor::shapeStr() const
{
    std::ostringstream os;
    os << "[";
    for (size_t d = 0; d < shape_.size(); ++d) {
        if (d)
            os << ", ";
        os << shape_[d];
    }
    os << "]";
    return os.str();
}

} // namespace tensor
} // namespace inca
