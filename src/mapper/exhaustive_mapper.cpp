#include "mapper/exhaustive_mapper.hpp"

#include <sstream>

#include "mapper/random_mapper.hpp"

namespace cosa {

ExhaustiveMapper::ExhaustiveMapper(ExhaustiveMapperConfig config)
    : config_(std::move(config))
{
}

SearchResult
ExhaustiveMapper::schedule(const LayerSpec& layer, const ArchSpec& arch) const
{
    return schedule(layer, arch, defaultEvaluator());
}

SearchResult
ExhaustiveMapper::schedule(const LayerSpec& layer, const ArchSpec& arch,
                           const Evaluator& evaluator) const
{
    const double start = wallTimeSec();
    SearchResult result;
    result.scheduler = "Exhaustive";

    const auto bound = evaluator.bind(layer, arch);
    CandidateSelector select(evaluator, *bound, config_.objective);
    FactorPool pool(layer);

    // Per-factor slot alphabet: (level, temporal) always; (level,
    // spatial) where the level allows it.
    std::vector<std::pair<int, bool>> slots;
    for (int i = 0; i < arch.numLevels(); ++i) {
        slots.emplace_back(i, false);
        if (arch.spatialAllowedAt(i))
            slots.emplace_back(i, true);
    }
    const auto num_slots = static_cast<std::int64_t>(slots.size());

    double space = 1.0;
    for (int f = 0; f < pool.size(); ++f)
        space *= static_cast<double>(num_slots);
    if (space > static_cast<double>(config_.max_points)) {
        std::ostringstream why;
        why << "exhaustive mapper: assignment space " << space
            << " exceeds max_points " << config_.max_points
            << "; use a smaller layer";
        result.status = {ErrorCode::kInvalidInput, why.str()};
        result.stats.search_time_sec = wallTimeSec() - start;
        return result;
    }

    FactorAssignment assignment;
    assignment.level.assign(static_cast<std::size_t>(pool.size()), 0);
    assignment.spatial.assign(static_cast<std::size_t>(pool.size()), false);
    std::vector<int> code(static_cast<std::size_t>(pool.size()), 0);

    bool done = pool.size() == 0;
    while (!done) {
        for (int f = 0; f < pool.size(); ++f) {
            assignment.level[f] = slots[code[f]].first;
            assignment.spatial[f] = slots[code[f]].second;
        }
        const Mapping base = buildMapping(pool, assignment, arch);
        std::vector<Mapping> candidates;
        if (config_.permute_noc_level) {
            candidates =
                permuteLevel(base, arch.noc_level, config_.max_perms);
        } else {
            candidates = {base};
        }
        for (const Mapping& candidate : candidates) {
            ++result.stats.samples;
            const Evaluation ev = bound->searchEvaluate(candidate);
            if (!ev.valid)
                continue;
            ++result.stats.valid_evaluated;
            select.offer(candidate, ev);
        }
        // Odometer increment over the per-factor slot codes.
        done = true;
        for (std::size_t f = 0; f < code.size(); ++f) {
            if (++code[f] < num_slots) {
                done = false;
                break;
            }
            code[f] = 0;
        }
    }
    if (auto winner = select.finalize()) {
        result.found = true;
        result.mapping = std::move(winner->mapping);
        result.eval = std::move(winner->eval);
    }
    result.stats.search_time_sec = wallTimeSec() - start;
    return result;
}

} // namespace cosa
