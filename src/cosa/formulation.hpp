#pragma once

/**
 * @file
 * The CoSA mixed-integer-programming formulation (paper §III).
 *
 * The paper's encoding is a binary matrix X over individual prime
 * factors. Identical prime factors of the same dimension are fully
 * interchangeable, so we solve an exactly equivalent, symmetry-collapsed
 * encoding over *counts*: for each (dimension, prime) pair, integer
 * variables N[g][i][k] say how many copies of that prime sit at memory
 * level i with kind k (0 = spatial, 1 = temporal). Every log-domain
 * expression of the paper (Eqs. 1-11) is linear in these counts because
 * log(p^n) = n log p. The collapse changes no reachable schedule — it
 * only removes the n! duplicated branch-and-bound subtrees a per-factor
 * encoding would create.
 *
 * Constraint groups:
 *  - Assignment (Eq. 3): counts of each (dim, prime) sum to its
 *    multiplicity.
 *  - Buffer capacity (Eq. 2) in log domain with per-tensor capacity
 *    shares (the log transform cannot express the shared-buffer sum;
 *    the evaluation model still checks true shared semantics). The
 *    input-tensor budget is divided by stride^2 so the product-form
 *    footprint of matrix A stays conservative for strided layers.
 *  - Spatial resources (Eq. 4) per spatial group.
 *  - Permutation: per-dimension rank slots at the NoC-visible level
 *    (GlobalBuf). R[j][z] binary = dimension j's merged GB loop holds
 *    rank z (rank 0 innermost); G[j] = dimension j present at the GB
 *    temporal level. Loops of one dimension at one level are
 *    interchangeable for traffic purposes, so per-dimension ranking
 *    matches the paper's per-factor ranking up to benign merges.
 *  - Traffic (Eqs. 7-11) per tensor v:
 *      D_v  log tile size at v's PE-side home buffer,
 *      L_v  relevant (unicast) spatial volume between home and NoC,
 *           plus output reduction traffic for irrelevant spatial loops
 *           (Fig. 5c),
 *      T_v  temporal iteration count with reuse filtering: relevant
 *           temporal loops above home always count; irrelevant loops
 *           count only when a relevant loop sits inside them. The
 *           inside-ness indicator is the paper's Y chain (Eq. 9) across
 *           GB ranks, seeded by per-level relevance chains below the
 *           GB; the products of Eq. 10 are big-M linearized.
 *  - Objectives (Eqs. 5, 6, 12):
 *      min  -wU * Util + wC * Comp + wT * Traf.
 */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mapping/mapping.hpp"
#include "solver/model.hpp"

namespace cosa {

/** How the composite objective is assembled. */
enum class CosaObjectiveMode {
    /**
     * Min-max latency proxy (default): minimize Z with Z bounding the
     * log compute cycles and the log traffic-over-bandwidth of every
     * tensor boundary (register<->home, home<->NoC source, GB<->DRAM),
     * i.e. the log of the double-buffered latency max() the evaluation
     * platforms report. The paper's Eq. 12 terms act as an epsilon
     * tie-break. This instantiates the paper's remark (§III-D4) that
     * the overall objective should balance memory-access and compute
     * cycles, with weights calibrated to the target architecture.
     */
    MinMaxLatency,
    /** The paper's plain weighted sum of Eq. 12. */
    WeightedSum,
};

/** Weights and solver controls of the CoSA scheduler. */
struct CosaConfig
{
    CosaObjectiveMode objective_mode = CosaObjectiveMode::MinMaxLatency;
    double w_util = 1.0;    //!< weight of the utilization objective
    double w_comp = 1.0;    //!< weight of the compute objective
    double w_traf = 1.0;    //!< weight of the traffic objective
    double tie_break = 0.05; //!< Eq.-12 weight inside min-max mode
    /** Per-tensor share of a multi-tensor buffer's capacity; if empty,
     *  capacity splits equally among the tensors a level stores. */
    std::vector<std::vector<double>> capacity_fraction;
    solver::MipParams mip; //!< time limit, gap, verbosity

    /** Largest budget in seconds the command-line surfaces accept
     *  (about 11.6 days), so workLimitFromSeconds stays well inside
     *  int64. */
    static constexpr double kMaxBudgetSeconds = 1e6;

    /**
     * Deterministic work units equivalent to @p seconds of the
     * historical dense-core throughput (5000 units/s) — the one
     * conversion the examples and benches share when a user expresses
     * the CoSA budget in "seconds". Never returns 0: a tiny budget
     * must stay a tiny budget, not become unlimited.
     */
    static std::int64_t
    workLimitFromSeconds(double seconds)
    {
        return std::max<std::int64_t>(
            1, static_cast<std::int64_t>(seconds * 5000.0));
    }

    /** Wall-clock safety net paired with workLimitFromSeconds: wide
     *  enough that the deterministic budget binds first on any sane
     *  host. */
    static double
    timeSafetyNetFromSeconds(double seconds)
    {
        return std::max(30.0, seconds * 4.0);
    }

    CosaConfig()
    {
        // Deterministic effort budget: ~ the LP work the pre-sparse
        // dense core performed under its old 5-second wall limit, so
        // default schedules stay at the established quality level while
        // being reproducible on any machine. The wall clock is only a
        // safety net (it binds alone when a host is pathologically
        // slow, in which case determinism is forfeit anyway).
        mip.work_limit = workLimitFromSeconds(5.0);
        mip.time_limit_sec = timeSafetyNetFromSeconds(5.0);
        mip.rel_gap = 5e-3;
    }
};

/**
 * Builder for the CoSA MIP over one (layer, arch) pair. Exposes the
 * objective terms so the Fig. 8 breakdown bench can evaluate them for
 * any schedule, not just the optimum.
 */
class CosaFormulation
{
  public:
    CosaFormulation(const LayerSpec& layer, const ArchSpec& arch,
                    const CosaConfig& config);

    /** The assembled model (constraints + composite objective). */
    solver::Model& model() { return model_; }
    const solver::Model& model() const { return model_; }

    /** Solve and extract the mapping; nullopt if no feasible schedule. */
    std::optional<Mapping> solve(solver::MipResult* result_out = nullptr);

    /** Extract a mapping from an arbitrary solution vector. */
    Mapping extractMapping(const std::vector<double>& values) const;

    /** Objective terms evaluated at a solution vector (Fig. 8). */
    double utilObjective(const std::vector<double>& values) const;
    double compObjective(const std::vector<double>& values) const;
    double trafObjective(const std::vector<double>& values) const;
    double totalObjective(const std::vector<double>& values) const;

    /**
     * Encode an existing mapping as a solution vector of this model
     * (used to score baseline schedules with CoSA's objective). Loop
     * bounds are decomposed back into prime counts; interleaved loops
     * of one dimension at the GB level merge at their innermost rank.
     */
    std::vector<double> encodeMapping(const Mapping& mapping) const;

    const FactorPool& pool() const { return pool_; }

  private:
    /** One (dimension, prime) group of interchangeable factors. */
    struct FactorGroup
    {
        Dim dim;
        std::int64_t prime;
        int multiplicity;
        double log_prime;
    };

    LayerSpec layer_;
    ArchSpec arch_;
    CosaConfig config_;
    FactorPool pool_;
    solver::Model model_;

    std::vector<FactorGroup> groups_;
    int num_levels_ = 0;
    int noc_level_ = 0;
    int num_ranks_ = 0; //!< = number of dimensions with factors

    /**
     * The reuse-filtering machinery of Eqs. 9-10 rooted at a base level:
     * rel[i] flags a relevant temporal loop in (base, i); y[z] extends
     * the flag through the GB rank order; w[z] carries the linearized
     * irrelevant-GB-loop contribution; t_act[j][i] the linearized
     * irrelevant contribution at non-GB levels. Instantiated per tensor
     * at the home buffer (NoC traffic, Eqs. 7-11) and at the register
     * level (inner-boundary traffic for the min-max latency objective).
     */
    struct ReuseChain
    {
        int base_level = 0;
        std::vector<solver::Var> rel;                      //!< [level]
        std::vector<solver::Var> y;                        //!< [rank]
        std::vector<solver::Var> w;                        //!< [rank]
        std::vector<std::vector<solver::Var>> t_act;       //!< [dim][level]
    };

    // Variable tables (invalid Var where a slot is disallowed).
    std::vector<std::vector<std::array<solver::Var, 2>>> n_; //!< [g][i][k]
    std::vector<std::vector<solver::Var>> present_; //!< [dim][i] temporal
    std::vector<solver::Var> gb_present_;           //!< [dim] G[j]
    std::vector<std::vector<solver::Var>> rank_;    //!< [dim][z]
    std::vector<ReuseChain> chain_home_;            //!< [tensor]
    std::vector<ReuseChain> chain_reg_;             //!< [tensor]

    // Cached objective expressions.
    solver::LinExpr util_expr_;
    solver::LinExpr comp_expr_;
    solver::LinExpr traf_expr_;

    double capacityFraction(int level, Tensor t) const;
    /** Sum over primes of dim j: log(p) * N[g][i][k]. */
    solver::LinExpr dimLevelLog(Dim d, int level, int kind) const;
    /** Max possible log contribution of dim j (log of padded bound). */
    double dimMaxLog(Dim d) const;

    /** Create the variables and constraints of one reuse chain. */
    ReuseChain buildReuseChain(Tensor t, int base_level,
                               const char* tag);
    /**
     * Log of the reuse-filtered temporal iteration count above the
     * chain's base level (the T term of Eqs. 9-10).
     */
    solver::LinExpr chainIterLog(Tensor t, const ReuseChain& chain) const;

    void buildGroups();
    void buildVariables();
    void buildAssignmentConstraints();
    void buildCapacityConstraints();
    void buildSpatialConstraints();
    void buildPermutationConstraints();
    void buildTrafficStructure();
    void buildObjectives();
};

} // namespace cosa
