#pragma once

/**
 * @file
 * A DNN layer specification (the scheduling "problem") and its
 * prime-factor pool, the unit of CoSA's allocation encoding.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "problem/dims.hpp"

namespace cosa {

/** One prime factor of one loop bound. */
struct PrimeFactor
{
    Dim dim;
    std::int64_t value;

    bool operator==(const PrimeFactor&) const = default;
};

/**
 * A convolution / matmul layer: the 7 loop bounds plus stride.
 * Matmuls map to R=S=1, P=Q spatial collapsed, etc., as in the paper.
 */
struct LayerSpec
{
    std::string name;           //!< paper naming: R_P_C_K_Stride
    std::int64_t r = 1, s = 1;  //!< kernel width / height
    std::int64_t p = 1, q = 1;  //!< output width / height
    std::int64_t c = 1;         //!< input channels
    std::int64_t k = 1;         //!< output channels
    std::int64_t n = 1;         //!< batch
    std::int64_t stride = 1;    //!< both spatial strides

    /** Loop bound of dimension @p d. */
    std::int64_t bound(Dim d) const;

    /** Input activation width: W = (P-1)*stride + R. */
    std::int64_t inputWidth() const { return (p - 1) * stride + r; }

    /** Input activation height: H = (Q-1)*stride + S. */
    std::int64_t inputHeight() const { return (q - 1) * stride + s; }

    /** Total multiply-accumulate count: R*S*P*Q*C*K*N. */
    std::int64_t macs() const;

    /** Dense tensor element counts. */
    std::int64_t tensorElements(Tensor t) const;

    /** Paper-style label `R_P_C_K_Stride` (with S=R, Q=P implied). */
    std::string label() const;

    /**
     * Name-independent identity of the scheduling problem: every loop
     * bound plus the stride. Two layers with equal canonical keys have
     * identical mapspaces and identical evaluations under any
     * architecture, so the scheduling engine deduplicates and caches by
     * this key (plus an arch fingerprint and scheduler config).
     */
    std::string canonicalKey() const;

    /** Largest loop bound or stride a layer may have (2^31 - 1). */
    static constexpr std::int64_t kMaxBound = 2147483647;

    /**
     * kInvalidInput naming the first loop bound or the stride outside
     * [1, kMaxBound], or a macs() / tensorElements() product that
     * overflows int64; Ok otherwise. Every way a layer enters (label,
     * wire object, in-process solve) runs this one check, so the
     * factorization and the solver only ever see bounded problems.
     */
    Status checkBounds() const;

    /**
     * Parse a paper-style label (e.g. "3_14_256_256_1"), expanding
     * S=R, Q=P, N=batch. kInvalidInput when the label does not have
     * five integer fields or fails checkBounds().
     */
    static StatusOr<LayerSpec> parseLabel(const std::string& label,
                                          std::int64_t batch = 1);

    /** parseLabel(), exiting through fatal() on a malformed label (for
     *  command-line tools). */
    static LayerSpec fromLabel(const std::string& label,
                               std::int64_t batch = 1);

    bool operator==(const LayerSpec&) const = default;
};

/**
 * The prime-factor pool of a layer: every loop bound decomposed into its
 * prime factors (paper §III-B1). Bounds whose factorization contains a
 * prime larger than @p max_prime are padded up to the next smooth bound
 * so the factor pool stays divisible.
 */
class FactorPool
{
  public:
    explicit FactorPool(const LayerSpec& layer, std::int64_t max_prime = 499);

    /** Flat list of all prime factors across all dimensions. */
    const std::vector<PrimeFactor>& factors() const { return factors_; }

    /** Number of factors. */
    int size() const { return static_cast<int>(factors_.size()); }

    /** Factor at index @p i. */
    const PrimeFactor& operator[](int i) const { return factors_[i]; }

    /** Possibly-padded bound of dimension @p d. */
    std::int64_t paddedBound(Dim d) const
    {
        return padded_bounds_[dimIndex(d)];
    }

    /** True when any bound needed padding. */
    bool anyPadded() const { return any_padded_; }

    /** Factor indices belonging to dimension @p d. */
    std::vector<int> indicesOfDim(Dim d) const;

  private:
    std::vector<PrimeFactor> factors_;
    std::array<std::int64_t, kNumDims> padded_bounds_{};
    bool any_padded_ = false;
};

} // namespace cosa
