#include "problem/layer.hpp"

#include <sstream>

#include "common/logging.hpp"
#include "common/math_utils.hpp"

namespace cosa {

std::int64_t
LayerSpec::bound(Dim d) const
{
    switch (d) {
      case Dim::R: return r;
      case Dim::S: return s;
      case Dim::P: return p;
      case Dim::Q: return q;
      case Dim::C: return c;
      case Dim::K: return k;
      case Dim::N: return n;
    }
    panic("invalid dimension");
}

std::int64_t
LayerSpec::macs() const
{
    return r * s * p * q * c * k * n;
}

std::int64_t
LayerSpec::tensorElements(Tensor t) const
{
    switch (t) {
      case Tensor::Weights:
        return r * s * c * k;
      case Tensor::Inputs:
        return inputWidth() * inputHeight() * c * n;
      case Tensor::Outputs:
        return p * q * k * n;
    }
    panic("invalid tensor");
}

std::string
LayerSpec::label() const
{
    std::ostringstream oss;
    oss << r << "_" << p << "_" << c << "_" << k << "_" << stride;
    return oss.str();
}

std::string
LayerSpec::canonicalKey() const
{
    std::ostringstream oss;
    oss << r << "." << s << "." << p << "." << q << "." << c << "." << k
        << "." << n << "." << stride;
    return oss.str();
}

StatusOr<LayerSpec>
LayerSpec::parseLabel(const std::string& label, std::int64_t batch)
{
    const auto invalid = [&](const std::string& why) {
        return Status{ErrorCode::kInvalidInput,
                      "layer label `" + label + "` " + why};
    };
    std::vector<std::int64_t> parts;
    std::istringstream iss(label);
    std::string tok;
    while (std::getline(iss, tok, '_')) {
        std::size_t consumed = 0;
        try {
            parts.push_back(std::stoll(tok, &consumed));
        } catch (const std::exception&) {
        }
        if (tok.empty() || consumed != tok.size())
            return invalid("has non-numeric field `" + tok + "`");
    }
    if (parts.size() != 5)
        return invalid("must be R_P_C_K_Stride");
    LayerSpec spec;
    spec.name = label;
    spec.r = spec.s = parts[0];
    spec.p = spec.q = parts[1];
    spec.c = parts[2];
    spec.k = parts[3];
    spec.stride = parts[4];
    spec.n = batch;
    if (Status bounds = spec.checkBounds(); !bounds.ok())
        return bounds;
    return spec;
}

Status
LayerSpec::checkBounds() const
{
    const auto invalid = [&](const std::string& why) {
        return Status{ErrorCode::kInvalidInput,
                      "layer `" + name + "` " + why};
    };
    const std::string limit = std::to_string(kMaxBound);
    for (Dim d : kAllDims) {
        if (bound(d) < 1)
            return invalid(std::string("has non-positive bound ") +
                           dimName(d));
        if (bound(d) > kMaxBound)
            return invalid(std::string("has bound ") + dimName(d) +
                           " above " + limit);
    }
    if (stride < 1)
        return invalid("has non-positive stride");
    if (stride > kMaxBound)
        return invalid("has stride above " + limit);
    // Every bound is now in [1, 2^31 - 1], so a product of bounds can
    // still overflow but an input extent cannot. The MAC count bounds
    // the weight and output tensors, whose factors are a subset of it.
    std::int64_t product = 1;
    for (Dim d : kAllDims) {
        if (__builtin_mul_overflow(product, bound(d), &product))
            return invalid("has a MAC count that overflows int64");
    }
    product = 1;
    for (std::int64_t factor : {inputWidth(), inputHeight(), c, n}) {
        if (__builtin_mul_overflow(product, factor, &product))
            return invalid("has an input tensor size that overflows int64");
    }
    return Status::Ok();
}

LayerSpec
LayerSpec::fromLabel(const std::string& label, std::int64_t batch)
{
    StatusOr<LayerSpec> spec = parseLabel(label, batch);
    if (!spec.ok())
        fatal(spec.status().message());
    return std::move(spec).value();
}

FactorPool::FactorPool(const LayerSpec& layer, std::int64_t max_prime)
{
    for (Dim d : kAllDims) {
        std::int64_t bound = layer.bound(d);
        auto factors = factorize(bound);
        if (!factors.empty() && factors.back() > max_prime) {
            bound = padToSmoothBound(bound, max_prime);
            factors = factorize(bound);
            any_padded_ = true;
        }
        padded_bounds_[dimIndex(d)] = bound;
        for (std::int64_t f : factors)
            factors_.push_back({d, f});
    }
}

std::vector<int>
FactorPool::indicesOfDim(Dim d) const
{
    std::vector<int> idx;
    for (int i = 0; i < size(); ++i) {
        if (factors_[i].dim == d)
            idx.push_back(i);
    }
    return idx;
}

} // namespace cosa
