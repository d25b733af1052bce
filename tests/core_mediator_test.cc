// End-to-end tests of the mediation pipeline on small controlled systems.

#include "core/mediator.h"

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/capacity_based.h"
#include "core/sbqa.h"
#include "model/reputation.h"
#include "sim/simulation.h"

namespace sbqa::core {
namespace {

/// A small controllable system: preference-only policies, configurable
/// latency, capacity-1 providers by default.
struct TestSystem {
  explicit TestSystem(int providers, uint64_t seed = 1,
                      double latency = 0.0) {
    sim::SimulationConfig sim_config;
    sim_config.seed = seed;
    sim_config.latency_median = latency > 0 ? latency : 0.001;
    sim_config.latency_sigma = 0;  // constant latency for exact arithmetic
    simulation = std::make_unique<sim::Simulation>(sim_config);

    ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumer_params.n_results = 1;
    consumer = registry.AddConsumer(consumer_params);

    for (int i = 0; i < providers; ++i) {
      ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    simulate_network = latency > 0;
  }

  /// Builds the mediator with `method`; call after customizing providers.
  void Start(std::unique_ptr<AllocationMethod> method,
             MediatorConfig config = {}) {
    config.simulate_network = simulate_network;
    mediator = std::make_unique<Mediator>(&simulation->runtime(), &registry,
                                          reputation.get(), std::move(method),
                                          config);
  }

  void StartSbqa(SbqaParams params = {}) {
    Start(std::make_unique<SbqaMethod>(params));
  }

  model::Query MakeQuery(int n_results = 1, double cost = 2.0) {
    model::Query q;
    q.id = next_query_id++;
    q.consumer = consumer;
    q.n_results = n_results;
    q.cost = cost;
    return q;
  }

  std::unique_ptr<sim::Simulation> simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Mediator> mediator;
  model::ConsumerId consumer = 0;
  model::QueryId next_query_id = 1;
  bool simulate_network = false;
};

/// Observer recording completed outcomes.
struct RecordingObserver : MediationObserver {
  void OnQueryCompleted(const QueryOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  void OnProviderDeparted(model::ProviderId p, double) override {
    departed.push_back(p);
  }
  std::vector<QueryOutcome> outcomes;
  std::vector<model::ProviderId> departed;
};

TEST(MediatorTest, SingleQueryLifecycle) {
  TestSystem sys(2);
  sys.registry.consumer(0).preferences().Set(0, 1.0);
  sys.registry.consumer(0).preferences().Set(1, 1.0);
  sys.registry.provider(0).preferences().Set(0, 1.0);
  sys.registry.provider(1).preferences().Set(0, 1.0);
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);

  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/1, /*cost=*/2.0));
  sys.simulation->RunUntil(10.0);

  ASSERT_EQ(obs.outcomes.size(), 1u);
  const QueryOutcome& outcome = obs.outcomes.front();
  EXPECT_EQ(outcome.results_received, 1);
  EXPECT_FALSE(outcome.timed_out);
  EXPECT_FALSE(outcome.unallocated);
  // Cost 2 on capacity 1 with zero latency: exactly 2 seconds.
  EXPECT_NEAR(outcome.response_time, 2.0, 1e-9);
  // Both intentions were 1.0: perfect satisfaction.
  EXPECT_NEAR(outcome.satisfaction, 1.0, 1e-9);
  EXPECT_EQ(sys.mediator->stats().queries_finalized, 1);
  EXPECT_EQ(sys.mediator->stats().queries_fully_served, 1);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
}

TEST(MediatorTest, ReplicationDispatchesToDistinctProviders) {
  TestSystem sys(4);
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);

  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/3));
  sys.simulation->RunUntil(10.0);

  ASSERT_EQ(obs.outcomes.size(), 1u);
  EXPECT_EQ(obs.outcomes.front().results_received, 3);
  std::set<model::ProviderId> unique(obs.outcomes.front().performers.begin(),
                                     obs.outcomes.front().performers.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(MediatorTest, ConsumerSatisfactionTrackerUpdated) {
  TestSystem sys(2);
  sys.registry.consumer(0).preferences().Set(0, 0.0);  // norm 0.5
  sys.registry.consumer(0).preferences().Set(1, 0.0);
  sys.StartSbqa();
  for (int i = 0; i < 5; ++i) {
    sys.mediator->SubmitQuery(sys.MakeQuery());
  }
  sys.simulation->RunUntil(60.0);
  const Consumer& c = sys.registry.consumer(0);
  EXPECT_EQ(c.satisfaction_tracker().sample_count(), 5u);
  EXPECT_NEAR(c.satisfaction(), 0.5, 1e-9);
}

TEST(MediatorTest, SbqaConsultsKnAndRecordsProposals) {
  TestSystem sys(6);
  SbqaParams params;
  params.knbest = KnBestParams{6, 4};  // consult 4 of 6
  sys.StartSbqa(params);

  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/1));
  sys.simulation->RunUntil(10.0);

  size_t proposals = 0, performed = 0;
  for (const Provider& p : sys.registry.providers()) {
    proposals += p.satisfaction_tracker().proposal_count();
    performed += p.satisfaction_tracker().performed_count();
  }
  EXPECT_EQ(proposals, 4u);  // all of Kn heard the mediation result
  EXPECT_EQ(performed, 1u);  // only the winner performed
}

TEST(MediatorTest, BaselineConsultsOnlySelected) {
  TestSystem sys(6);
  sys.Start(std::make_unique<baselines::CapacityBasedMethod>());
  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/2));
  sys.simulation->RunUntil(10.0);

  size_t proposals = 0, performed = 0;
  for (const Provider& p : sys.registry.providers()) {
    proposals += p.satisfaction_tracker().proposal_count();
    performed += p.satisfaction_tracker().performed_count();
  }
  EXPECT_EQ(proposals, 2u);
  EXPECT_EQ(performed, 2u);
}

TEST(MediatorTest, UnallocatedWhenNoProviderAlive) {
  TestSystem sys(2);
  sys.registry.provider(0).set_alive(false);
  sys.registry.provider(1).set_alive(false);
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);

  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.simulation->RunUntil(10.0);

  ASSERT_EQ(obs.outcomes.size(), 1u);
  EXPECT_TRUE(obs.outcomes.front().unallocated);
  EXPECT_EQ(obs.outcomes.front().satisfaction, 0.0);
  EXPECT_EQ(sys.mediator->stats().queries_unallocated, 1);
  // The dissatisfying outcome still lands in the consumer's window.
  EXPECT_EQ(sys.registry.consumer(0).satisfaction_tracker().sample_count(),
            1u);
}

TEST(MediatorTest, PartialAllocationWhenFewerProvidersThanReplicas) {
  TestSystem sys(2);
  sys.registry.consumer(0).preferences().Set(0, 1.0);
  sys.registry.consumer(0).preferences().Set(1, 1.0);
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);

  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/4));
  sys.simulation->RunUntil(10.0);

  ASSERT_EQ(obs.outcomes.size(), 1u);
  EXPECT_EQ(obs.outcomes.front().results_received, 2);
  // Equation 1 divides by n=4: two perfect results give 0.5.
  EXPECT_NEAR(obs.outcomes.front().satisfaction, 0.5, 1e-9);
  EXPECT_EQ(sys.mediator->stats().queries_fully_served, 0);
}

TEST(MediatorTest, TimeoutFinalizesWithPartialResults) {
  RecordingObserver obs;
  TestSystem sys2(1);
  MediatorConfig cfg;
  cfg.query_timeout = 1.0;
  sys2.Start(std::make_unique<SbqaMethod>(SbqaParams{}), cfg);
  sys2.mediator->AddObserver(&obs);
  sys2.mediator->SubmitQuery(sys2.MakeQuery(/*n_results=*/1, /*cost=*/5.0));
  sys2.simulation->RunUntil(20.0);

  ASSERT_EQ(obs.outcomes.size(), 1u);
  EXPECT_TRUE(obs.outcomes.front().timed_out);
  EXPECT_EQ(obs.outcomes.front().results_received, 0);
  EXPECT_EQ(sys2.mediator->stats().queries_timed_out, 1);
  // The provider still finishes and gets accounted for its work.
  EXPECT_EQ(sys2.registry.provider(0).instances_performed(), 1);
}

TEST(MediatorTest, ReputationTracksValidation) {
  TestSystem sys(1);
  // Build a faulty provider alongside.
  ProviderParams faulty;
  faulty.capacity = 1.0;
  faulty.error_rate = 1.0;  // always invalid
  faulty.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
  const model::ProviderId bad = sys.registry.AddProvider(faulty);
  sys.reputation = std::make_unique<model::ReputationRegistry>(
      sys.registry.provider_count());
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);

  for (int i = 0; i < 10; ++i) {
    sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/2, /*cost=*/0.5));
  }
  sys.simulation->RunUntil(60.0);

  // The good provider's reputation rose, the faulty one's fell.
  EXPECT_GT(sys.reputation->Get(0), 0.5);
  EXPECT_LT(sys.reputation->Get(bad), 0.5);
  // Every query had one valid result (quorum 1 by default): validated,
  // but valid_results < results_received.
  for (const QueryOutcome& outcome : obs.outcomes) {
    EXPECT_EQ(outcome.results_received, 2);
    EXPECT_EQ(outcome.valid_results, 1);
    EXPECT_TRUE(outcome.validated);
  }
}

TEST(MediatorTest, ProviderDepartureFailsInFlightInstances) {
  TestSystem sys(2);
  // Provider 1 hates the consumer: performing its queries dissatisfies it.
  sys.registry.provider(0).preferences().Set(0, 1.0);
  sys.registry.provider(1).preferences().Set(0, -1.0);
  RecordingObserver obs;
  sys.StartSbqa();
  sys.mediator->AddObserver(&obs);
  DepartureConfig departure;
  departure.providers_can_leave = true;
  departure.provider_threshold = 0.35;
  departure.grace_period = 0.0;  // judge immediately
  departure.sweep_interval = 0.5;
  sys.mediator->SetDepartureModel(departure);

  for (int i = 0; i < 30; ++i) {
    sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/2, /*cost=*/1.0));
  }
  sys.simulation->RunUntil(120.0);

  // Provider 1 left (its performed queries all have normalized intention 0).
  EXPECT_FALSE(sys.registry.provider(1).alive());
  EXPECT_EQ(sys.mediator->stats().provider_departures, 1);
  ASSERT_FALSE(obs.departed.empty());
  EXPECT_EQ(obs.departed.front(), 1);
  // All queries still finalize (possibly partially).
  EXPECT_EQ(sys.mediator->stats().queries_finalized, 30);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
  // Later queries went to provider 0 alone.
  EXPECT_GT(sys.mediator->stats().instances_failed, 0);
}

TEST(MediatorTest, IntentionRoundAddsLatency) {
  // With constant latency L: capacity path = 3 hops = 3L + processing;
  // SbQA adds one round-trip = 2L more.
  const double kLatency = 0.05;
  RecordingObserver obs_sbqa, obs_cap;

  TestSystem sys_sbqa(2, /*seed=*/3, kLatency);
  sys_sbqa.StartSbqa();
  sys_sbqa.mediator->AddObserver(&obs_sbqa);
  sys_sbqa.mediator->SubmitQuery(sys_sbqa.MakeQuery(1, 1.0));
  sys_sbqa.simulation->RunUntil(10.0);

  TestSystem sys_cap(2, /*seed=*/3, kLatency);
  sys_cap.Start(std::make_unique<baselines::CapacityBasedMethod>());
  sys_cap.mediator->AddObserver(&obs_cap);
  sys_cap.mediator->SubmitQuery(sys_cap.MakeQuery(1, 1.0));
  sys_cap.simulation->RunUntil(10.0);

  ASSERT_EQ(obs_sbqa.outcomes.size(), 1u);
  ASSERT_EQ(obs_cap.outcomes.size(), 1u);
  EXPECT_NEAR(obs_cap.outcomes.front().response_time, 3 * kLatency + 1.0,
              1e-9);
  EXPECT_NEAR(obs_sbqa.outcomes.front().response_time, 5 * kLatency + 1.0,
              1e-9);
}

TEST(MediatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    TestSystem sys(8, /*seed=*/99, /*latency=*/0.02);
    sys.StartSbqa();
    for (int i = 0; i < 50; ++i) {
      sys.mediator->SubmitQuery(sys.MakeQuery(2, 1.5));
    }
    sys.simulation->RunUntil(300.0);
    return sys.mediator->stats();
  };
  const MediatorStats a = run();
  const MediatorStats b = run();
  EXPECT_EQ(a.queries_finalized, b.queries_finalized);
  EXPECT_EQ(a.instances_dispatched, b.instances_dispatched);
  EXPECT_DOUBLE_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_DOUBLE_EQ(a.query_satisfaction.mean(), b.query_satisfaction.mean());
}

TEST(MediatorTest, HelpersComputeParallelArrays) {
  TestSystem sys(3);
  sys.registry.consumer(0).preferences().Set(0, 0.1);
  sys.registry.consumer(0).preferences().Set(1, 0.2);
  sys.registry.consumer(0).preferences().Set(2, 0.3);
  sys.registry.provider(0).preferences().Set(0, -0.1);
  sys.registry.provider(1).preferences().Set(0, -0.2);
  sys.registry.provider(2).preferences().Set(0, -0.3);
  sys.StartSbqa();

  model::Query q = sys.MakeQuery();
  const std::vector<model::ProviderId> providers{0, 1, 2};
  const auto ci = sys.mediator->ComputeConsumerIntentions(q, providers);
  const auto pi = sys.mediator->ComputeProviderIntentions(q, providers);
  ASSERT_EQ(ci.size(), 3u);
  ASSERT_EQ(pi.size(), 3u);
  EXPECT_DOUBLE_EQ(ci[0], 0.1);
  EXPECT_DOUBLE_EQ(ci[2], 0.3);
  EXPECT_DOUBLE_EQ(pi[0], -0.1);
  EXPECT_DOUBLE_EQ(pi[2], -0.3);

  sys.registry.provider(1).Enqueue(0.0, 7.0);
  const auto backlogs = sys.mediator->BacklogsOf(providers);
  EXPECT_DOUBLE_EQ(backlogs[0], 0.0);
  EXPECT_DOUBLE_EQ(backlogs[1], 7.0);
}

TEST(MediatorTest, FreshLoadViewTracksBacklogExactly) {
  TestSystem sys(2);
  sys.StartSbqa();  // load_view_staleness = 0 (default)
  sys.registry.provider(0).Enqueue(0.0, 6.0);
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 6.0);
  sys.registry.provider(0).Enqueue(0.0, 4.0);
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 10.0);
}

TEST(MediatorTest, StaleLoadViewCachesReports) {
  TestSystem sys(2);
  MediatorConfig config;
  config.load_view_staleness = 100.0;
  sys.Start(std::make_unique<SbqaMethod>(SbqaParams{}), config);

  // First read establishes a report of 0 backlog.
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 0.0);
  // Real backlog changes; the view must not see it yet.
  sys.registry.provider(0).Enqueue(0.0, 10.0);
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 0.0);
  EXPECT_DOUBLE_EQ(sys.registry.provider(0).Backlog(0.0), 10.0);
}

TEST(MediatorTest, StaleLoadViewAssumesDrainage) {
  TestSystem sys(2);
  MediatorConfig config;
  config.load_view_staleness = 100.0;
  sys.Start(std::make_unique<SbqaMethod>(SbqaParams{}), config);

  sys.registry.provider(0).Enqueue(0.0, 8.0);
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 8.0);  // fresh report
  sys.simulation->RunUntil(3.0);
  // No refresh yet (staleness 100), but the view drains linearly.
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 5.0);
  sys.simulation->RunUntil(50.0);
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 0.0);  // never negative
}

TEST(MediatorTest, StaleLoadViewRefreshesAfterWindow) {
  TestSystem sys(2);
  MediatorConfig config;
  config.load_view_staleness = 10.0;
  sys.Start(std::make_unique<SbqaMethod>(SbqaParams{}), config);

  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 0.0);
  sys.registry.provider(0).Enqueue(0.0, 50.0);
  sys.simulation->RunUntil(10.0);
  // Past the staleness window: the next read refreshes to the truth.
  EXPECT_DOUBLE_EQ(sys.mediator->ViewedBacklog(0), 40.0);
}

TEST(MediatorTest, SelectionTruncatedToNResults) {
  TestSystem sys(6);
  sys.Start(std::make_unique<baselines::CapacityBasedMethod>());
  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/2));
  sys.simulation->RunUntil(10.0);
  EXPECT_EQ(sys.mediator->stats().instances_dispatched, 2);
}

TEST(MediatorTest, ConsumerRetirementStopsAtThreshold) {
  TestSystem sys(2);
  // The consumer hates both providers: every completion dissatisfies it.
  sys.registry.consumer(0).preferences().Set(0, -1.0);
  sys.registry.consumer(0).preferences().Set(1, -1.0);
  sys.StartSbqa();
  DepartureConfig departure;
  departure.consumers_can_leave = true;
  departure.consumer_threshold = 0.5;
  departure.grace_period = 0.0;
  departure.sweep_interval = 0.5;
  sys.mediator->SetDepartureModel(departure);

  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.simulation->RunUntil(20.0);

  EXPECT_FALSE(sys.registry.consumer(0).active());
  EXPECT_EQ(sys.mediator->stats().consumer_retirements, 1);
}

}  // namespace
}  // namespace sbqa::core
