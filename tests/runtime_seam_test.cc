// Runtime-seam parity tests: the mediation pipeline must behave
// bit-identically whether it is driven the classic way (a hand-wired
// Simulation + Mediator) or through the runtime seam (SimRuntime adapter /
// the sbqa::Engine facade in simulated mode). Every double is compared
// exactly — the seam is a pure indirection, not an approximation.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "experiments/methods.h"
#include "model/reputation.h"
#include "sbqa.h"
#include "sim/sim_runtime.h"
#include "sim/simulation.h"

namespace sbqa {
namespace {

constexpr int kProviders = 8;
constexpr int kQueries = 200;
constexpr double kInterArrival = 0.5;
constexpr double kDrain = 700.0;

core::ProviderParams DemoProvider(int i) {
  core::ProviderParams params;
  params.capacity = 1.0 + 0.25 * i;
  params.memory_k = 50;
  params.policy_kind = model::ProviderPolicyKind::kUtilizationTrading;
  params.psi = 0.8;
  return params;
}

core::ConsumerParams DemoConsumer() {
  core::ConsumerParams params;
  params.memory_k = 50;
  params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
  params.n_results = 2;
  return params;
}

double ConsumerPreference(int provider) { return provider % 2 == 0 ? 0.8 : -0.5; }
double ProviderPreference(int provider) { return provider < 4 ? 0.7 : -0.2; }

struct HandWiredRun {
  core::MediatorStats stats;
  double consumer_satisfaction = 0;
  std::vector<double> provider_satisfaction;
};

/// The pre-seam spelling: Simulation + Registry + Mediator wired by hand,
/// submissions scheduled as zero-delay events, paced like the engine run.
HandWiredRun RunHandWired(uint64_t seed) {
  sim::SimulationConfig sim_config;
  sim_config.seed = seed;
  sim::Simulation simulation(sim_config);

  core::Registry registry;
  const model::ConsumerId consumer = registry.AddConsumer(DemoConsumer());
  for (int i = 0; i < kProviders; ++i) {
    const model::ProviderId p = registry.AddProvider(DemoProvider(i));
    registry.consumer(consumer).preferences().Set(p, ConsumerPreference(i));
    registry.provider(p).preferences().Set(consumer, ProviderPreference(i));
  }
  model::ReputationRegistry reputation(registry.provider_count());

  experiments::MethodSpec spec;
  EXPECT_TRUE(experiments::MethodSpecFromName("sbqa", &spec));
  core::Mediator mediator(&simulation.runtime(), &registry, &reputation,
                          experiments::MakeMethod(spec));

  for (int i = 0; i < kQueries; ++i) {
    simulation.scheduler().Schedule(0, [&mediator, consumer, i] {
      model::Query query;
      query.id = i + 1;
      query.consumer = consumer;
      query.n_results = 2;
      query.cost = 2.0;
      mediator.SubmitQuery(query);
    });
    simulation.RunFor(kInterArrival);
  }
  simulation.RunUntil(simulation.now() + kDrain);

  HandWiredRun run;
  run.stats = mediator.stats();
  run.consumer_satisfaction = registry.consumer(consumer).satisfaction();
  for (const core::Provider& p : registry.providers()) {
    run.provider_satisfaction.push_back(p.satisfaction());
  }
  return run;
}

struct EngineRun {
  EngineStats stats;
  EngineSnapshot snapshot;
  int64_t callbacks = 0;
  double satisfaction_sum = 0;
};

/// The same workload through the public facade (simulated mode).
EngineRun RunThroughEngine(uint64_t seed) {
  EngineOptions options;
  options.mode = EngineMode::kSimulated;
  options.seed = seed;
  options.method = "sbqa";
  Engine engine(std::move(options));

  const model::ConsumerId consumer = engine.AddConsumer(DemoConsumer());
  for (int i = 0; i < kProviders; ++i) {
    const model::ProviderId p = engine.AddProvider(DemoProvider(i));
    engine.SetConsumerPreference(consumer, p, ConsumerPreference(i));
    engine.SetProviderPreference(p, consumer, ProviderPreference(i));
  }
  engine.Start();

  EngineRun run;
  for (int i = 0; i < kQueries; ++i) {
    QueryRequest request;
    request.consumer = consumer;
    request.n_results = 2;
    request.cost = 2.0;
    engine.Submit(request, [&run](const QueryResult& result) {
      ++run.callbacks;
      run.satisfaction_sum += result.satisfaction;
    });
    engine.RunFor(kInterArrival);
  }
  EXPECT_TRUE(engine.WaitIdle(kDrain));
  run.stats = engine.Stats();
  run.snapshot = engine.Snapshot();
  return run;
}

TEST(RuntimeSeamTest, EngineFacadeMatchesHandWiredSimulationBitExactly) {
  for (uint64_t seed : {7ull, 42ull, 1234ull}) {
    SCOPED_TRACE(seed);
    const HandWiredRun hand = RunHandWired(seed);
    const EngineRun facade = RunThroughEngine(seed);

    EXPECT_EQ(facade.stats.queries_submitted, hand.stats.queries_submitted);
    EXPECT_EQ(facade.stats.queries_finalized, hand.stats.queries_finalized);
    EXPECT_EQ(facade.stats.queries_timed_out, hand.stats.queries_timed_out);
    EXPECT_EQ(facade.stats.queries_unallocated,
              hand.stats.queries_unallocated);
    EXPECT_EQ(facade.stats.instances_dispatched,
              hand.stats.instances_dispatched);
    EXPECT_EQ(facade.stats.instances_completed,
              hand.stats.instances_completed);
    // Bit-equal doubles: the facade adds no arithmetic of its own.
    EXPECT_EQ(facade.stats.mean_response_time,
              hand.stats.response_time.mean());
    EXPECT_EQ(facade.stats.mean_satisfaction,
              hand.stats.query_satisfaction.mean());
    ASSERT_EQ(facade.snapshot.consumers.size(), 1u);
    EXPECT_EQ(facade.snapshot.consumers[0].satisfaction,
              hand.consumer_satisfaction);
    ASSERT_EQ(facade.snapshot.providers.size(),
              hand.provider_satisfaction.size());
    for (size_t i = 0; i < hand.provider_satisfaction.size(); ++i) {
      EXPECT_EQ(facade.snapshot.providers[i].satisfaction,
                hand.provider_satisfaction[i]);
    }
    // Every submission delivered exactly one callback, and the per-query
    // satisfactions the callbacks saw sum to the mediator's aggregate.
    EXPECT_EQ(facade.callbacks, kQueries);
    EXPECT_EQ(facade.stats.queries_in_flight, 0);
    EXPECT_NEAR(facade.satisfaction_sum,
                facade.stats.mean_satisfaction * kQueries, 1e-6);
  }
}

TEST(RuntimeSeamTest, StandaloneSimRuntimeMatchesOwnedAdapter) {
  // A mediator on a standalone SimRuntime over simulation B must replay a
  // mediator on simulation A's owned adapter exactly.
  auto run = [](bool standalone) {
    sim::SimulationConfig config;
    config.seed = 99;
    sim::Simulation simulation(config);
    sim::SimRuntime external(&simulation);
    rt::Runtime* runtime =
        standalone ? static_cast<rt::Runtime*>(&external)
                   : static_cast<rt::Runtime*>(&simulation.runtime());

    core::Registry registry;
    const model::ConsumerId consumer = registry.AddConsumer(DemoConsumer());
    for (int i = 0; i < kProviders; ++i) {
      const model::ProviderId p = registry.AddProvider(DemoProvider(i));
      registry.consumer(consumer).preferences().Set(p, ConsumerPreference(i));
      registry.provider(p).preferences().Set(consumer, ProviderPreference(i));
    }
    model::ReputationRegistry reputation(registry.provider_count());
    experiments::MethodSpec spec = experiments::MethodSpec::Sbqa();
    core::Mediator mediator(runtime, &registry, &reputation,
                            experiments::MakeMethod(spec));
    for (int i = 0; i < 50; ++i) {
      simulation.scheduler().Schedule(0, [&mediator, consumer, i] {
        model::Query query;
        query.id = i + 1;
        query.consumer = consumer;
        query.n_results = 2;
        query.cost = 1.0;
        mediator.SubmitQuery(query);
      });
      simulation.RunFor(0.25);
    }
    simulation.RunUntil(simulation.now() + kDrain);
    return mediator.stats();
  };
  const core::MediatorStats owned = run(false);
  const core::MediatorStats external = run(true);
  EXPECT_EQ(owned.queries_finalized, external.queries_finalized);
  EXPECT_EQ(owned.response_time.mean(), external.response_time.mean());
  EXPECT_EQ(owned.query_satisfaction.mean(),
            external.query_satisfaction.mean());
}

TEST(RuntimeSeamTest, EngineRunsEveryRegistryMethod) {
  // Name-based method selection resolves and mediates for every registry
  // spelling (the CLI's --list-methods source of truth).
  for (const experiments::MethodDescription& method :
       experiments::KnownMethods()) {
    SCOPED_TRACE(method.name);
    EngineOptions options;
    options.seed = 5;
    options.method = method.name;
    Engine engine(std::move(options));
    const model::ConsumerId consumer = engine.AddConsumer(DemoConsumer());
    for (int i = 0; i < 4; ++i) {
      const model::ProviderId p = engine.AddProvider(DemoProvider(i));
      engine.SetConsumerPreference(consumer, p, 0.5);
      engine.SetProviderPreference(p, consumer, 0.5);
    }
    engine.Start();
    int64_t callbacks = 0;
    for (int i = 0; i < 10; ++i) {
      engine.Submit({consumer, 0, 1, 1.0},
                    [&callbacks](const QueryResult&) { ++callbacks; });
      engine.RunFor(0.5);
    }
    EXPECT_TRUE(engine.WaitIdle(kDrain));
    EXPECT_EQ(callbacks, 10);
    EXPECT_EQ(engine.Stats().queries_finalized, 10);
  }
}

}  // namespace
}  // namespace sbqa
