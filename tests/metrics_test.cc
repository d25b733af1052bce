// Tests for the time series and the metrics collector.

#include "metrics/collector.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/sbqa.h"
#include "metrics/timeseries.h"
#include "model/reputation.h"

namespace sbqa::metrics {
namespace {

TEST(TimeSeriesTest, AddAndQuery) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.last_value(7.0), 7.0);
  ts.Add(0, 1.0);
  ts.Add(10, 3.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.last_value(), 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanValue(), 2.0);
}

/// A complete little system driven through the collector.
struct CollectorHarness {
  CollectorHarness() {
    sim::SimulationConfig config;
    config.seed = 11;
    simulation = std::make_unique<sim::Simulation>(config);
    core::ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < 4; ++i) {
      core::ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
      registry.consumer(0).preferences().Set(i, 0.5);
      registry.provider(i).preferences().Set(0, 0.5);
    }
    reputation = std::make_unique<model::ReputationRegistry>(4);
    core::MediatorConfig mediator_config;
    mediator_config.simulate_network = false;
    mediator = std::make_unique<core::Mediator>(
        &simulation->runtime(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(core::SbqaParams{}),
        mediator_config);
  }

  void SubmitAt(double when, double cost = 1.0) {
    simulation->scheduler().ScheduleAt(when, [this, cost] {
      model::Query q;
      q.id = ++last_id;
      q.consumer = 0;
      q.n_results = 1;
      q.cost = cost;
      mediator->SubmitQuery(q);
    });
  }

  std::unique_ptr<sim::Simulation> simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
  model::QueryId last_id = 0;
};

TEST(CollectorTest, SamplesAtConfiguredCadence) {
  CollectorHarness h;
  Collector collector(h.simulation.get(), &h.registry, h.mediator.get(),
                      /*sample_interval=*/5.0);
  collector.Start(/*until=*/50.0);
  h.simulation->RunUntil(50.0);
  // Baseline snapshot at t=0 plus one every 5s through t=50.
  EXPECT_EQ(collector.series().consumer_satisfaction.size(), 11u);
  EXPECT_DOUBLE_EQ(collector.series().consumer_satisfaction.times().front(),
                   0.0);
  EXPECT_DOUBLE_EQ(collector.series().consumer_satisfaction.times().back(),
                   50.0);
}

TEST(CollectorTest, TracksCompletedQueries) {
  CollectorHarness h;
  Collector collector(h.simulation.get(), &h.registry, h.mediator.get(), 10.0);
  collector.Start(100.0);
  for (int i = 0; i < 10; ++i) h.SubmitAt(i * 2.0);
  h.simulation->RunUntil(100.0);
  const RunSummary summary = collector.Summarize(100.0);
  EXPECT_EQ(summary.queries_finalized, 10);
  EXPECT_DOUBLE_EQ(summary.throughput, 0.1);
  EXPECT_GT(summary.mean_response_time, 0.0);
  // Preference 0.5 everywhere: δs(c,q) = 0.75 exactly.
  EXPECT_NEAR(summary.consumer_satisfaction, 0.75, 1e-9);
  EXPECT_EQ(summary.method, "SbQA");
}

TEST(CollectorTest, AliveCountsReflectDepartures) {
  CollectorHarness h;
  Collector collector(h.simulation.get(), &h.registry, h.mediator.get(), 1.0);
  collector.Start(10.0);
  h.simulation->scheduler().ScheduleAt(
      4.5, [&h] { h.registry.provider(0).set_alive(false); });
  h.simulation->RunUntil(10.0);
  const auto& alive = collector.series().alive_providers;
  EXPECT_DOUBLE_EQ(alive.values().front(), 4.0);
  EXPECT_DOUBLE_EQ(alive.values().back(), 3.0);
  const RunSummary summary = collector.Summarize(10.0);
  EXPECT_DOUBLE_EQ(summary.provider_retention, 0.75);
  EXPECT_DOUBLE_EQ(summary.capacity_retention, 0.75);
}

TEST(CollectorTest, ParticipantSnapshotsExposeState) {
  CollectorHarness h;
  Collector collector(h.simulation.get(), &h.registry, h.mediator.get(), 10.0);
  collector.Start(50.0);
  h.SubmitAt(1.0);
  h.simulation->RunUntil(50.0);
  const auto consumers = collector.ConsumerSnapshots();
  ASSERT_EQ(consumers.size(), 1u);
  EXPECT_EQ(consumers[0].interactions, 1);
  EXPECT_NEAR(consumers[0].satisfaction, 0.75, 1e-9);
  const auto providers = collector.ProviderSnapshots();
  ASSERT_EQ(providers.size(), 4u);
  int64_t total_performed = 0;
  for (const auto& p : providers) total_performed += p.performed;
  EXPECT_EQ(total_performed, 1);
}

TEST(CollectorTest, ValidatedFractionComputed) {
  CollectorHarness h;
  Collector collector(h.simulation.get(), &h.registry, h.mediator.get(), 10.0);
  collector.Start(50.0);
  for (int i = 0; i < 5; ++i) h.SubmitAt(i * 1.0);
  h.simulation->RunUntil(50.0);
  // No faulty providers: everything validates.
  EXPECT_DOUBLE_EQ(collector.Summarize(50.0).validated_fraction, 1.0);
}

TEST(CollectorDeathTest, InvalidIntervalAborts) {
  CollectorHarness h;
  EXPECT_DEATH(Collector(h.simulation.get(), &h.registry, h.mediator.get(),
                         0.0),
               "CHECK failed");
}

}  // namespace
}  // namespace sbqa::metrics
