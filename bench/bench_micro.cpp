/// \file
/// Micro-benchmarks (google-benchmark) for the mediation hot paths: the
/// scoring formula, KnBest selection, satisfaction window updates, intention
/// computation, a full in-memory mediation decision, and raw simulator event
/// throughput. These bound the mediator-side cost per allocated query.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/knbest.h"
#include "core/mediator.h"
#include "core/satisfaction.h"
#include "core/sbqa.h"
#include "core/score.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "sim/simulation.h"

namespace {

using namespace sbqa;

void BM_ProviderScore(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<double> pis, cis, omegas;
  for (int i = 0; i < 1024; ++i) {
    pis.push_back(rng.Uniform(-1, 1));
    cis.push_back(rng.Uniform(-1, 1));
    omegas.push_back(rng.NextDouble());
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 1023;
    benchmark::DoNotOptimize(
        core::ProviderScore(pis[j], cis[j], omegas[j], 1.0));
  }
}
BENCHMARK(BM_ProviderScore);

void BM_AdaptiveOmega(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<double> a, b;
  for (int i = 0; i < 1024; ++i) {
    a.push_back(rng.NextDouble());
    b.push_back(rng.NextDouble());
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 1023;
    benchmark::DoNotOptimize(core::AdaptiveOmega(a[j], b[j]));
  }
}
BENCHMARK(BM_AdaptiveOmega);

void BM_KnBestSelection(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<model::ProviderId> candidates;
  std::vector<double> backlogs;
  for (size_t i = 0; i < population; ++i) {
    candidates.push_back(static_cast<model::ProviderId>(i));
    backlogs.push_back(rng.Uniform(0, 30));
  }
  const core::KnBestParams params{20, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SelectKnBest(candidates, backlogs, params, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnBestSelection)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ProviderTrackerUpdate(benchmark::State& state) {
  core::ProviderSatisfactionTracker tracker(
      static_cast<size_t>(state.range(0)));
  util::Rng rng(4);
  for (auto _ : state) {
    tracker.RecordProposal(rng.Uniform(-1, 1), rng.Bernoulli(0.4));
    benchmark::DoNotOptimize(tracker.satisfaction());
  }
}
BENCHMARK(BM_ProviderTrackerUpdate)->Arg(50)->Arg(500);

void BM_ConsumerQuerySatisfaction(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> intentions;
  for (int i = 0; i < 8; ++i) intentions.push_back(rng.Uniform(-1, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ConsumerQuerySatisfaction(intentions, 8));
  }
}
BENCHMARK(BM_ConsumerQuerySatisfaction);

/// Full mediation decision (KnBest + intention gathering + scoring +
/// ranking) against a population of `range(0)` providers, excluding any
/// simulated network time: this is the mediator's CPU cost per query.
void BM_FullMediationDecision(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  sim::SimulationConfig sim_config;
  sim_config.seed = 42;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kReputationTrading;
  registry.AddConsumer(consumer_params);
  util::Rng rng(6);
  for (int i = 0; i < population; ++i) {
    core::ProviderParams params;
    params.capacity = rng.Uniform(0.5, 2.0);
    registry.AddProvider(params);
    registry.provider(i).preferences().Set(0, rng.Uniform(-1, 1));
    registry.consumer(0).preferences().Set(i, rng.Uniform(-1, 1));
  }
  model::ReputationRegistry reputation(registry.provider_count());
  core::MediatorConfig mediator_config;
  mediator_config.simulate_network = false;
  core::Mediator mediator(&simulation.runtime(), &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(
                              core::SbqaParams{}),
                          mediator_config);

  std::vector<model::ProviderId> candidates;
  for (int i = 0; i < population; ++i) candidates.push_back(i);
  model::Query query;
  query.id = 1;
  query.consumer = 0;
  query.n_results = 3;
  query.cost = 5;

  core::SbqaMethod method(core::SbqaParams{});
  core::CandidateSet candidate_set(&candidates);
  core::AllocationContext ctx;
  ctx.query = &query;
  ctx.candidates = &candidate_set;
  ctx.mediator = &mediator;
  ctx.now = 0;
  core::AllocationDecision decision;
  for (auto _ : state) {
    decision.Clear();
    method.Allocate(ctx, &decision);
    benchmark::DoNotOptimize(decision);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullMediationDecision)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler scheduler;
    constexpr int kEvents = 10000;
    state.ResumeTiming();
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      scheduler.Schedule(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    scheduler.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerEventThroughput);

/// Wall-clock cost of one full demo-scale scenario run (200 volunteers,
/// `range(0)` simulated seconds of SbQA mediation, workload, queueing and
/// metrics). Reported as simulated-seconds per wall-second via the items
/// counter.
void BM_EndToEndScenarioRun(benchmark::State& state) {
  const double duration = static_cast<double>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    experiments::ScenarioConfig config =
        experiments::BaseDemoConfig(seed++, 200, duration);
    config.method =
        experiments::MethodSpec::Sbqa(experiments::DefaultSbqaParams());
    benchmark::DoNotOptimize(experiments::RunScenario(config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(duration));
}
BENCHMARK(BM_EndToEndScenarioRun)->Arg(30)->Arg(120)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
