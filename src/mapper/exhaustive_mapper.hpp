#pragma once

/**
 * @file
 * Brute-force enumeration over factor assignments for *tiny* layers.
 * Not a paper baseline — it is the test oracle that lets the test suite
 * check CoSA and the search mappers against a known global optimum
 * (over the canonical-permutation subspace it enumerates). Tests call
 * it directly; the scheduler service and the wire do not offer it.
 */

#include "mapper/mapper.hpp"
#include "mapping/mapspace.hpp"

namespace cosa {

/** Exhaustive mapper configuration. */
struct ExhaustiveMapperConfig
{
    /** Refuse (found = false, kInvalidInput) a layer whose assignment
     *  space exceeds this many points. */
    std::int64_t max_points = 20'000'000;
    /** Also scan permutations of the NoC level for each assignment. */
    bool permute_noc_level = true;
    int max_perms = 24;
    SearchObjective objective = SearchObjective::Latency;
};

/** Exhaustive enumeration scheduler (test oracle for small layers). */
class ExhaustiveMapper
{
  public:
    explicit ExhaustiveMapper(ExhaustiveMapperConfig config = {});

    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch) const;

    /** Same enumeration, scored by @p evaluator (see Evaluator). */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch,
                          const Evaluator& evaluator) const;

  private:
    ExhaustiveMapperConfig config_;
};

} // namespace cosa
