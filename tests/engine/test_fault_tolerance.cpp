#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "engine/executor.hpp"
#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"
#include "solver/model.hpp"

namespace cosa {
namespace {

/** Disarm around every test so no armed failpoint leaks across tests. */
class FaultTolerance : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::disarmAll(); }
    void TearDown() override { failpoint::disarmAll(); }
};

Workload
tinyNet(const std::string& name, int layers)
{
    Workload net;
    net.name = name;
    for (int i = 0; i < layers; ++i) {
        net.layers.push_back(
            LayerSpec::fromLabel("1_7_32_" + std::to_string(16 + i) + "_1"));
    }
    return net;
}

ScheduleRequest
cosaRequest(Workload net, int layers_parallelism = 1)
{
    ScheduleRequest request;
    request.workloads.push_back(std::move(net));
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Cosa;
    request.cosa.mip.work_limit = 4000;
    request.max_parallelism = layers_parallelism;
    return request;
}

ScheduleRequest
randomRequest(Workload net, int samples = 300)
{
    ScheduleRequest request;
    request.workloads.push_back(std::move(net));
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Random;
    request.random.max_samples = samples;
    request.random.target_valid = 1;
    return request;
}

NetworkResult
runOne(SchedulerService& service, ScheduleRequest request)
{
    SubmitResult submitted = service.submit(std::move(request));
    EXPECT_TRUE(submitted.accepted());
    return submitted.takeJob().wait().front();
}

/** An evaluation backend that always throws — one tenant's poisoned
 *  dependency, injected without any global failpoint. */
class ThrowingEvaluator final : public Evaluator
{
  public:
    class Bound final : public BoundEvaluator
    {
      public:
        Evaluation evaluate(const Mapping&) const override
        {
            throw CosaError(ErrorCode::kEvaluatorFault,
                            "synthetic evaluator outage");
        }
    };

    std::unique_ptr<BoundEvaluator> bind(const LayerSpec&,
                                         const ArchSpec&) const override
    {
        return std::make_unique<Bound>();
    }
    std::string fingerprint() const override { return "throwing/v0"; }
};

TEST_F(FaultTolerance, ExecutorContainsThrowingTasks)
{
    // A task that throws must not take down the executor (or the
    // process): the set finishes and every non-throwing slot is written.
    Executor executor(2);
    std::vector<int> written(16, 0);
    test::SetLatch latch;
    executor.submit(
        written.size(),
        [&](std::size_t i) {
            if (i % 2 == 1)
                throw std::runtime_error("task fault");
            written[i] = 1;
        },
        latch.track());
    latch.wait();
    for (std::size_t i = 0; i < written.size(); ++i)
        EXPECT_EQ(written[i], i % 2 == 0 ? 1 : 0) << "slot " << i;
}

TEST_F(FaultTolerance, SolverFaultDegradesToGreedyFallback)
{
    // Every basis factorization fails: CoSA cannot solve, each retry
    // fails the same way, and the ladder serves the greedy schedule —
    // the job completes, degraded but found.
    ASSERT_TRUE(failpoint::configure("simplex.factorize=1").ok());

    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);
    const NetworkResult result = runOne(service, cosaRequest(tinyNet("n", 1)));

    ASSERT_EQ(result.layers.size(), 1u);
    const LayerScheduleResult& layer = result.layers[0];
    EXPECT_TRUE(layer.result.found);
    EXPECT_EQ(layer.outcome, LayerOutcome::kDegradedFallback);
    EXPECT_STREQ(layer.fallback_stage.c_str(), "greedy");
    EXPECT_EQ(layer.result.scheduler, "Greedy[fallback]");
    EXPECT_EQ(layer.solve_retries, 2); // the default max_solve_retries
    EXPECT_TRUE(result.all_found);
    EXPECT_EQ(result.num_degraded, 1);
    EXPECT_EQ(result.num_failed, 0);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.degraded, 1);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_GT(failpoint::triggerCount("simplex.factorize"), 0);

    const std::string metrics = service.metricsText();
    EXPECT_NE(metrics.find("cosa_layer_fallbacks_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("cosa_errors_total"), std::string::npos);
    EXPECT_NE(metrics.find("cosa_failpoints_triggered_total"),
              std::string::npos);
}

TEST_F(FaultTolerance, RetryBudgetIsRespected)
{
    // With zero retries the firewall goes straight from the first
    // fault to the ladder.
    ASSERT_TRUE(failpoint::configure("simplex.factorize=1").ok());
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);
    ScheduleRequest request = cosaRequest(tinyNet("n", 1));
    request.max_solve_retries = 0;
    const NetworkResult result = runOne(service, std::move(request));
    ASSERT_EQ(result.layers.size(), 1u);
    EXPECT_EQ(result.layers[0].outcome, LayerOutcome::kDegradedFallback);
    EXPECT_EQ(result.layers[0].solve_retries, 0);
}

/** The analytical evaluator, except that the first evaluate() call
 *  across all its bindings throws a retriable fault — a transient
 *  outage that one retry gets past. */
class FlakyOnceEvaluator final : public Evaluator
{
  public:
    class Bound final : public BoundEvaluator
    {
      public:
        Bound(std::unique_ptr<BoundEvaluator> inner, std::atomic<int>* calls)
            : inner_(std::move(inner)), calls_(calls)
        {
        }
        Evaluation evaluate(const Mapping& mapping) const override
        {
            if (calls_->fetch_add(1) == 0)
                throw CosaError(ErrorCode::kNumericFailure,
                                "synthetic transient fault");
            return inner_->evaluate(mapping);
        }

      private:
        std::unique_ptr<BoundEvaluator> inner_;
        std::atomic<int>* calls_;
    };

    std::unique_ptr<BoundEvaluator> bind(const LayerSpec& layer,
                                         const ArchSpec& arch) const override
    {
        return std::make_unique<Bound>(inner_.bind(layer, arch), &calls_);
    }
    std::string fingerprint() const override { return inner_.fingerprint(); }

  private:
    AnalyticalEvaluator inner_;
    mutable std::atomic<int> calls_{0};
};

TEST_F(FaultTolerance, RetriedSolveMatchesFaultFreeSolve)
{
    const Workload net = tinyNet("flaky", 1);
    SchedulerService service(ServiceConfig{1});
    const NetworkResult clean = runOne(service, cosaRequest(net));

    // A transient fault on the first attempt: one retry re-runs the
    // same deterministic solve and serves exactly the fault-free answer.
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = cosaRequest(net);
    request.evaluator = std::make_shared<FlakyOnceEvaluator>();
    request.cache = cache;
    const NetworkResult retried = runOne(service, request);

    ASSERT_EQ(retried.layers.size(), 1u);
    const LayerScheduleResult& layer = retried.layers[0];
    const LayerScheduleResult& reference = clean.layers[0];
    EXPECT_EQ(layer.outcome, LayerOutcome::kOptimal);
    EXPECT_EQ(layer.solve_retries, 1);
    EXPECT_TRUE(layer.result.found);
    EXPECT_EQ(layer.result.mapping, reference.result.mapping);
    EXPECT_EQ(layer.result.eval.cycles, reference.result.eval.cycles);
    EXPECT_EQ(layer.result.eval.energy_pj, reference.result.eval.energy_pj);
    EXPECT_EQ(layer.result.stats.lp_iterations,
              reference.result.stats.lp_iterations);
    EXPECT_EQ(layer.result.stats.mip_nodes, reference.result.stats.mip_nodes);

    // The retried answer was cached like any other solve.
    const NetworkResult again = runOne(service, request);
    ASSERT_EQ(again.layers.size(), 1u);
    EXPECT_TRUE(again.layers[0].from_cache);
    EXPECT_EQ(again.num_cache_hits, 1);
    EXPECT_EQ(again.layers[0].result.mapping, reference.result.mapping);
}

TEST_F(FaultTolerance, FaultyTenantDoesNotPerturbCoTenant)
{
    const Workload healthy_net = tinyNet("healthy", 4);

    // Reference: the healthy job alone.
    NetworkResult reference;
    {
        SchedulerService service(ServiceConfig{2});
        reference = runOne(service, randomRequest(healthy_net));
    }

    // Same job next to a tenant whose evaluator throws on every call.
    // Hybrid's walks also run on helper tasks of the shared executor;
    // a walk's fault must reach the firewall on the calling worker.
    for (const SchedulerKind kind :
         {SchedulerKind::Random, SchedulerKind::Hybrid}) {
        SCOPED_TRACE(schedulerKindName(kind));
        SchedulerService service(ServiceConfig{2});
        ScheduleRequest faulty = randomRequest(tinyNet("faulty", 4));
        faulty.scheduler = kind;
        faulty.hybrid.num_threads = 2;
        faulty.evaluator = std::make_shared<ThrowingEvaluator>();
        SubmitResult faulty_submitted = service.submit(std::move(faulty));
        ASSERT_TRUE(faulty_submitted.accepted());
        ScheduleJob faulty_job = faulty_submitted.takeJob();
        const NetworkResult healthy =
            runOne(service, randomRequest(healthy_net));
        const NetworkResult poisoned = faulty_job.wait().front();

        // The faulty tenant fails typed — contained, not crashed...
        EXPECT_FALSE(poisoned.all_found);
        EXPECT_EQ(poisoned.num_failed, 4);
        for (const LayerScheduleResult& layer : poisoned.layers) {
            EXPECT_EQ(layer.outcome, LayerOutcome::kFailed);
            EXPECT_FALSE(layer.result.found);
            EXPECT_EQ(layer.result.status.code(),
                      ErrorCode::kEvaluatorFault);
        }
        // ...and the co-tenant's result is bit-identical to running
        // alone.
        ASSERT_EQ(healthy.layers.size(), reference.layers.size());
        for (std::size_t l = 0; l < healthy.layers.size(); ++l) {
            EXPECT_EQ(healthy.layers[l].result.mapping,
                      reference.layers[l].result.mapping);
            EXPECT_EQ(healthy.layers[l].result.eval.cycles,
                      reference.layers[l].result.eval.cycles);
            EXPECT_EQ(healthy.layers[l].result.eval.energy_pj,
                      reference.layers[l].result.eval.energy_pj);
            EXPECT_EQ(healthy.layers[l].outcome, LayerOutcome::kOptimal);
        }

        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.failed, 1);
        EXPECT_EQ(stats.completed, 2);
    }
}

TEST_F(FaultTolerance, ChaosRunsReplayBitIdentically)
{
    // A fixed failpoint spec + seed + single-lane execution is a
    // deterministic chaos schedule: the same faults hit the same
    // ordinals, so outcomes, retries and schedules all replay.
    auto chaosRun = [&] {
        EXPECT_TRUE(failpoint::configure("simplex.factorize=0.6@11").ok());
        ServiceConfig config;
        config.num_threads = 1;
        SchedulerService service(config);
        return runOne(service, cosaRequest(tinyNet("chaos", 3)));
    };
    const NetworkResult first = chaosRun();
    const NetworkResult second = chaosRun();
    ASSERT_EQ(first.layers.size(), second.layers.size());
    for (std::size_t l = 0; l < first.layers.size(); ++l) {
        EXPECT_EQ(first.layers[l].outcome, second.layers[l].outcome);
        EXPECT_EQ(first.layers[l].solve_retries,
                  second.layers[l].solve_retries);
        EXPECT_EQ(first.layers[l].result.found,
                  second.layers[l].result.found);
        EXPECT_EQ(first.layers[l].result.mapping,
                  second.layers[l].result.mapping);
        EXPECT_EQ(first.layers[l].result.eval.cycles,
                  second.layers[l].result.eval.cycles);
    }
    EXPECT_EQ(first.total_cycles, second.total_cycles);
}

TEST_F(FaultTolerance, NoFailpointsMeansNoBehaviorChange)
{
    // The acceptance contract: with nothing armed, the firewalled
    // service returns exactly what it returned before this PR.
    auto run = [&] {
        SchedulerService service(ServiceConfig{1});
        return runOne(service, cosaRequest(tinyNet("clean", 1)));
    };
    const NetworkResult a = run();
    const NetworkResult b = run();
    ASSERT_EQ(a.layers.size(), 1u);
    EXPECT_TRUE(a.layers[0].result.found);
    EXPECT_EQ(a.layers[0].outcome, LayerOutcome::kOptimal);
    EXPECT_EQ(a.layers[0].solve_retries, 0);
    EXPECT_TRUE(a.layers[0].result.status.ok());
    EXPECT_EQ(a.layers[0].result.mapping, b.layers[0].result.mapping);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
}

TEST_F(FaultTolerance, NanArchitectureFailsTypedWithoutLaundering)
{
    // A poisoned problem statement must fail typed — not be laundered
    // into a fallback "schedule" scored by garbage constants.
    ArchSpec arch = ArchSpec::simbaBaseline();
    arch.mac_energy_pj = std::nan("");
    ScheduleRequest request = randomRequest(tinyNet("nan", 1));
    request.arch = arch;

    SchedulerService service(ServiceConfig{1});
    const NetworkResult result = runOne(service, std::move(request));
    ASSERT_EQ(result.layers.size(), 1u);
    EXPECT_EQ(result.layers[0].outcome, LayerOutcome::kFailed);
    EXPECT_FALSE(result.layers[0].result.found);
    EXPECT_EQ(result.layers[0].result.status.code(),
              ErrorCode::kNumericFailure);
    EXPECT_EQ(result.num_failed, 1);
    EXPECT_EQ(service.stats().failed, 1);
}

TEST_F(FaultTolerance, ModelRejectsNonFiniteCoefficients)
{
    solver::Model model;
    const solver::Var x = model.addContinuous(0.0, 10.0, "x");
    model.setObjective(std::nan("") * x, solver::ObjSense::Maximize);
    const solver::MipResult result = model.optimize();
    EXPECT_EQ(result.status, solver::Status::NumericalError);
    EXPECT_FALSE(result.fault.ok());
    EXPECT_EQ(result.fault.code(), ErrorCode::kNumericFailure);
}

} // namespace
} // namespace cosa
