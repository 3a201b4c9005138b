#pragma once

/**
 * @file
 * Pluggable evaluation backends — the abstraction over the paper's two
 * evaluation platforms (§IV-A): the Timeloop-style analytical model and
 * the cycle-driven NoC/DRAM schedule simulator.
 *
 * Every scheduler (CoSA and the search baselines) scores mappings
 * through an `Evaluator` instead of calling `AnalyticalModel` directly,
 * so one engine/config/CLI switch decides which platform's numbers a
 * schedule is judged by. Three backends ship:
 *
 *  - `AnalyticalEvaluator` — the analytical model, exactly as before.
 *  - `NocSimEvaluator` — the simulator is authoritative: searches still
 *    prune candidates with the analytical model (the simulator is 4-6
 *    orders of magnitude too slow to sit in a sampling loop), but the
 *    search winner's reported cycles come from a full simulation.
 *  - `CascadeEvaluator` — analytical model prunes, the simulator
 *    re-scores the top-k analytical candidates and picks among them,
 *    so simulation can overturn the analytical ranking.
 *
 * Searches bind an evaluator to one (layer, arch) pair once
 * (`Evaluator::bind`) and then drive two calls: `searchEvaluate()` per
 * candidate inside the sampling loop, and `evaluate()` — the
 * full-fidelity platform — on the top candidates at the end. The
 * `CandidateSelector` helper implements that funnel for all mappers.
 *
 * `fingerprint()` serializes everything that can change an evaluation
 * and is the fourth component of the engine's `ScheduleCache` key, so
 * analytical and simulated results never alias in the cache.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/analytical_model.hpp"
#include "noc/schedule_sim.hpp"

namespace cosa {

/** Optimization target for search-based mappers. */
enum class SearchObjective {
    Latency, //!< minimize model cycles
    Energy,  //!< minimize model energy
    Edp,     //!< minimize energy-delay product
};

/** Metric value of an evaluation under an objective. */
double objectiveValue(const Evaluation& ev, SearchObjective objective);

/** Display name of an objective ("latency" / "energy" / "edp"). */
const char* searchObjectiveName(SearchObjective objective);

/** Parse an objective name; returns false (and leaves @p out alone)
 *  on an unknown name. Accepts the searchObjectiveName() spellings. */
bool parseSearchObjective(const std::string& text, SearchObjective* out);

/**
 * CLI helper shared by the examples and benches: when argv[*a] is
 * "--objective", consume its value into @p objective, advance @p a
 * past it, and return true; any other flag returns false untouched. A
 * missing or unknown value is fatal (exit 1), like a malformed layer
 * label.
 */
bool parseObjectiveFlag(int argc, char** argv, int* a,
                        SearchObjective* objective);

/**
 * An evaluator bound to one (layer, architecture) pair — the stateful
 * form searches hold for the duration of one schedule() call, so
 * per-pair setup (model construction, simulator configuration) is paid
 * once, not per sampled mapping. Thread-compatible: const calls are
 * reentrant.
 */
class BoundEvaluator
{
  public:
    virtual ~BoundEvaluator() = default;

    /** Full-fidelity evaluation of @p mapping on the backend platform
     *  (defines the metrics a SearchResult reports). */
    virtual Evaluation evaluate(const Mapping& mapping) const = 0;

    /**
     * Cheap per-candidate evaluation driving search inner loops
     * (validity + pruning metric). Defaults to evaluate(); simulator
     * backends override it with the analytical model.
     */
    virtual Evaluation searchEvaluate(const Mapping& mapping) const
    {
        return evaluate(mapping);
    }
};

/**
 * A mapping-evaluation backend. Stateless and thread-safe; share one
 * instance (e.g. via `ScheduleRequest::evaluator`) across requests and
 * worker threads.
 */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /** Bind to one (layer, arch) scheduling problem. */
    virtual std::unique_ptr<BoundEvaluator> bind(
        const LayerSpec& layer, const ArchSpec& arch) const = 0;

    /** One-shot full-fidelity evaluation (convenience over bind()). */
    virtual Evaluation evaluate(const Mapping& mapping,
                                const LayerSpec& layer,
                                const ArchSpec& arch) const
    {
        return bind(layer, arch)->evaluate(mapping);
    }

    /** True when searchEvaluate() and evaluate() are the same function,
     *  so a search winner needs no final re-score. */
    virtual bool searchIsExact() const { return true; }

    /** How many top search candidates the final evaluate() pass
     *  re-scores (the cascade width; 1 for exact backends). */
    virtual int rescoreTopK() const { return 1; }

    /**
     * Serialization of everything that can change an evaluation —
     * backend identity, its format version, and every tunable. The
     * fourth component of the ScheduleCache key.
     */
    virtual std::string fingerprint() const = 0;
};

/** The process-wide default backend (a shared AnalyticalEvaluator),
 *  used by the evaluator-less legacy schedule() signatures. */
const Evaluator& defaultEvaluator();

/** The analytical model backend (paper §IV-A, Timeloop-style). */
class AnalyticalEvaluator final : public Evaluator
{
  public:
    std::unique_ptr<BoundEvaluator> bind(const LayerSpec& layer,
                                         const ArchSpec& arch) const override;
    std::string fingerprint() const override;
};

/**
 * The cycle-driven NoC/DRAM simulation backend. Searches prune with
 * the analytical model; the winner's reported cycles come from one
 * full `ScheduleSimulator` run (energy and the per-level breakdown
 * stay analytical — the simulator does not model energy). A mapping
 * whose simulation fails is reported invalid.
 */
class NocSimEvaluator final : public Evaluator
{
  public:
    explicit NocSimEvaluator(ScheduleSimConfig config = {});

    std::unique_ptr<BoundEvaluator> bind(const LayerSpec& layer,
                                         const ArchSpec& arch) const override;
    bool searchIsExact() const override { return false; }
    std::string fingerprint() const override;

    const ScheduleSimConfig& simConfig() const { return config_; }

  private:
    ScheduleSimConfig config_;
};

/**
 * The cascade backend: the analytical model prunes the mapspace, the
 * simulator re-scores the @p top_k best analytical candidates, and the
 * simulated metric picks the winner — so simulation can overturn the
 * analytical ranking where the two platforms disagree (congestion,
 * DRAM timing), at k simulations per schedule() instead of one per
 * sample.
 */
class CascadeEvaluator final : public Evaluator
{
  public:
    explicit CascadeEvaluator(int top_k = 4, ScheduleSimConfig config = {});

    std::unique_ptr<BoundEvaluator> bind(const LayerSpec& layer,
                                         const ArchSpec& arch) const override;
    bool searchIsExact() const override { return false; }
    int rescoreTopK() const override { return top_k_; }
    std::string fingerprint() const override;

    const ScheduleSimConfig& simConfig() const { return config_; }

  private:
    int top_k_;
    ScheduleSimConfig config_;
};

/**
 * The search-to-evaluation funnel shared by every mapper: offer each
 * valid candidate with its search evaluation; the selector keeps the
 * `rescoreTopK()` best (by search metric, ties to the earlier offer,
 * duplicates dropped), and finalize() re-scores them on the full
 * platform and returns the winner.
 *
 * With an exact backend (`searchIsExact()`), finalize() returns the
 * best search candidate and its search evaluation unchanged — byte
 * identical to the historical direct-model code path.
 */
class CandidateSelector
{
  public:
    CandidateSelector(const Evaluator& evaluator,
                      const BoundEvaluator& bound,
                      SearchObjective objective);

    /**
     * Consider a valid candidate. Returns true when it became the new
     * *best* (strictly better search metric than every prior offer) —
     * the signal search loops use for improvement counters.
     */
    bool offer(const Mapping& mapping, const Evaluation& search_eval);

    bool empty() const { return kept_.empty(); }

    /** Offer every kept candidate into @p other, best first — the
     *  deterministic merge step for per-thread selectors. */
    void drainInto(CandidateSelector& other) const;

    /** Best search metric so far (meaningless when empty()). */
    double bestSearchMetric() const;

    /** The funnel's outcome: winner mapping + full-platform eval. */
    struct Winner
    {
        Mapping mapping;
        Evaluation eval;
    };

    /**
     * Re-score the kept candidates with the full platform and return
     * the winner under the objective (search-metric order breaks
     * ties). nullopt when no candidate was offered — or when the full
     * platform rejects every kept candidate (e.g. simulation failure).
     */
    std::optional<Winner> finalize() const;

  private:
    struct Candidate
    {
        Mapping mapping;
        Evaluation eval; //!< search evaluation
        double metric;   //!< objectiveValue(eval, objective)
    };

    const Evaluator& evaluator_;
    const BoundEvaluator& bound_;
    SearchObjective objective_;
    int top_k_;
    std::vector<Candidate> kept_; //!< ascending metric, size <= top_k_
};

} // namespace cosa
