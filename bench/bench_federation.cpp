// Federation bench: multi-hop borrow chains under class scarcity.
//
// Part 1 — hop-budget x topology sweep: 8 shards, 9 projects. Project 0
// (class 0) is the abundant background every provider can serve; projects
// 1..8 are scarce — only the donor shard's provider block stays
// generalist, every other block is restricted to class 0. Consumers hash
// to shards by id, so the scarce projects originate at ring distances 0-4
// from the donor. A hop budget of 1 on the ring can only serve the donor's
// immediate neighborhood; raising the budget extends the reach hop by hop
// until the full diameter (4) is covered. The sweep measures exactly that:
// scarce-class goodput (scarce queries that received results) as a
// function of hop budget, plus a full-mesh row (one-hop reach of
// everything — the upper bound).
//
// The regression gate (scripts/check_bench_regression.py --mode
// federation) requires ring/budget-4 scarce goodput >= 1.5x ring/budget-1,
// terminal completeness on every row, and the chain-accounting
// reconciliation (delegated == borrowed; hop histogram == delegated +
// forwarded).
//
// Part 2 — forward-path allocation audit: a hand-built 4-shard ring in
// which consumer 0's class-1 queries always chain 0 -> 1 -> 2 (dry
// origin, dry relay, donor) and are re-homed. After a burst pre-warm and
// a warm-up pump, the steady state must perform ZERO heap allocations per
// query — the bench reports it and the gate enforces it, alongside proof
// (forwarded delta > 0) that the measured phase actually relayed.
//
// Env knobs: SBQA_BENCH_DURATION (simulated seconds per sweep row),
// SBQA_BENCH_SEED, SBQA_BENCH_JSON (output path).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "core/shard_directory.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "federation/federation.h"
#include "model/reputation.h"
#include "sim/shard_set.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::bench {
namespace {

constexpr uint32_t kShards = 8;
constexpr uint32_t kDonorShard = 4;
constexpr size_t kVolunteers = 240;
// 8 scarce projects x 0.125 q/s x 3 replicas x ~5 units keeps the donor
// block (~30 providers) under ~65% utilization when every chain reaches
// it — an overloaded donor would turn the reach experiment into a
// capacity experiment.
constexpr double kScarceRate = 0.125;

/// Per-shard scarce-class goodput counter. OnQueryCompleted fires on the
/// query's origin shard, so per-shard instances are single-writer; the
/// totals are summed after the run.
class ScarceClassCounter : public core::MediationObserver {
 public:
  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    if (outcome.query.query_class == model::QueryClassId{0}) return;
    ++finalized_;
    if (outcome.results_received > 0) ++served_;
  }
  int64_t finalized() const { return finalized_; }
  int64_t served() const { return served_; }

 private:
  int64_t finalized_ = 0;
  int64_t served_ = 0;
};

struct ScarceCounters {
  std::vector<std::unique_ptr<ScarceClassCounter>> counters;

  experiments::ScenarioConfig Attach(experiments::ScenarioConfig config) {
    counters.clear();
    for (uint32_t s = 0; s < config.sim.shard_count; ++s) {
      counters.push_back(std::make_unique<ScarceClassCounter>());
    }
    config.shard_observer_factory = [this](uint32_t s) {
      return counters[s].get();
    };
    return config;
  }

  int64_t finalized() const {
    int64_t total = 0;
    for (const auto& c : counters) total += c->finalized();
    return total;
  }
  int64_t served() const {
    int64_t total = 0;
    for (const auto& c : counters) total += c->served();
    return total;
  }
};

/// The scarcity workload: 9 projects over 8 shards, every provider block
/// except the donor's restricted to class 0.
experiments::ScenarioConfig ScarcityConfig(uint64_t seed, double duration) {
  experiments::ScenarioConfig config =
      experiments::BaseDemoConfig(seed, kVolunteers, duration);
  // Grow to 9 projects: project 0 keeps its demo arrival rate (the
  // abundant class); projects 1..8 are the scarce classes, one consumer
  // per shard (ConsumerShard = id % shards; consumer 8 shares shard 0).
  while (config.population.projects.size() < 9) {
    boinc::ProjectSpec extra = config.population.projects[1];
    extra.name = util::StrFormat(
        "scarce-%zu", config.population.projects.size());
    config.population.projects.push_back(extra);
  }
  for (size_t i = 1; i < config.population.projects.size(); ++i) {
    config.population.projects[i].arrival_rate = kScarceRate;
  }
  config.sim.shard_count = kShards;
  config.sim.shard_use_threads = true;
  // Short safety-net timeout: bounds the post-run drain horizon.
  config.mediator.query_timeout = 60.0;
  config.population_hook = [](core::Registry* registry,
                              const boinc::BuiltPopulation& population,
                              util::Rng*) {
    const size_t count = population.volunteers.size();
    const size_t block = (count + kShards - 1) / kShards;
    for (size_t i = 0; i < count; ++i) {
      if (i / block == kDonorShard) continue;
      registry->provider(population.volunteers[i])
          .RestrictClasses({model::QueryClassId{0}});
    }
  };
  return config;
}

struct SweepRow {
  std::string label;
  const char* topology = "";
  uint32_t hop_budget = 0;
  double wall_ms = 0;
  metrics::RunSummary summary;
  int64_t scarce_finalized = 0;
  int64_t scarce_served = 0;
};

SweepRow RunSweepRow(const char* label, federation::TopologyKind topology,
                     uint32_t hop_budget, uint64_t seed, double duration) {
  experiments::ScenarioConfig config = ScarcityConfig(seed, duration);
  config.federation.enabled = true;
  config.federation.topology = topology;
  config.federation.hop_budget = hop_budget;
  config.federation.degree = 4;

  ScarceCounters counters;
  const auto start = std::chrono::steady_clock::now();
  const experiments::RunResult result =
      experiments::RunScenario(counters.Attach(config));
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1000.0;

  SweepRow row;
  row.label = label;
  row.topology =
      topology == federation::TopologyKind::kRing ? "ring" : "mesh";
  row.hop_budget = hop_budget;
  row.wall_ms = wall_ms;
  row.summary = result.summary;
  row.scarce_finalized = counters.finalized();
  row.scarce_served = counters.served();

  std::printf(
      "  %-14s | %7.1f ms | scarce %4lld/%4lld served | "
      "delegated %4lld | forwarded %4lld | multi-hop %4lld | "
      "mean hops %.3f | unallocated %4lld\n",
      label, wall_ms, static_cast<long long>(row.scarce_served),
      static_cast<long long>(row.scarce_finalized),
      static_cast<long long>(row.summary.queries_delegated),
      static_cast<long long>(row.summary.queries_forwarded),
      static_cast<long long>(row.summary.queries_multi_hop),
      row.summary.mean_borrow_hops,
      static_cast<long long>(row.summary.queries_unallocated));
  return row;
}

// --- Part 2: forward-path allocation audit ----------------------------------

struct AllocAudit {
  double per_query_warmup = 0;
  double per_query_steady_state = 0;  ///< the gate requires exactly 0
  int64_t steady_forwarded = 0;       ///< relays during the measured phase
  int64_t steady_borrowed = 0;
};

/// Hand-built 4-shard ring (same stack as tests/federation_alloc_test.cc):
/// shards 0, 1, 3 restricted to class 0, shard 2 generalist, so consumer
/// 0's class-1 stream always chains 0 -> 1 -> 2 and is re-homed. Serial
/// shard execution for exact allocation accounting.
AllocAudit MeasureForwardAllocations() {
  constexpr uint32_t shard_count = 4;
  constexpr size_t providers = 60;

  sim::SimulationConfig sim_config;
  sim_config.seed = 99;
  sim_config.shard_count = shard_count;
  sim_config.shard_use_threads = false;
  sim::ShardSet shards(sim_config);

  core::Registry registry;
  util::Rng setup(5);
  core::ConsumerParams consumer_params;
  consumer_params.n_results = 3;
  for (uint32_t s = 0; s < shard_count; ++s) {
    registry.AddConsumer(consumer_params);
  }
  for (size_t i = 0; i < providers; ++i) {
    core::ProviderParams params;
    params.capacity = setup.Uniform(0.5, 2.0);
    const model::ProviderId id = registry.AddProvider(params);
    for (uint32_t c = 0; c < shard_count; ++c) {
      registry.provider(id).preferences().Set(static_cast<int32_t>(c),
                                              setup.Uniform(-1, 1));
      registry.consumer(static_cast<model::ConsumerId>(c))
          .preferences()
          .Set(id, setup.Uniform(-1, 1));
    }
  }
  registry.SetShardCount(shard_count);
  for (model::ProviderId p = 0; p < static_cast<model::ProviderId>(providers);
       ++p) {
    if (registry.ProviderShard(p) != 2) {
      registry.provider(p).RestrictClasses({model::QueryClassId{0}});
    }
  }

  model::ReputationRegistry reputation(registry.provider_count());
  core::SbqaParams sbqa_params;
  sbqa_params.knbest = core::KnBestParams{20, 8};
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;
  for (uint32_t s = 0; s < shard_count; ++s) {
    mediators.push_back(std::make_unique<core::Mediator>(
        &shards.shard(s).runtime(), &registry, &reputation,
        std::make_unique<core::SbqaMethod>(sbqa_params),
        core::MediatorConfig{}));
    mediator_ptrs.push_back(mediators.back().get());
  }
  core::ShardDirectory directory;
  directory.Refresh(registry);

  federation::FederationConfig fed_config;
  fed_config.enabled = true;
  fed_config.topology = federation::TopologyKind::kRing;
  fed_config.hop_budget = 4;
  federation::Federation federation;
  federation.Build(fed_config, shard_count, &directory);

  for (uint32_t s = 0; s < shard_count; ++s) {
    mediators[s]->ConfigureSharding(&shards, s, &federation, mediator_ptrs);
    mediators[s]->ProvisionInflight(256);
  }
  shards.AddBarrierHook(
      [&](double) { directory.RefreshIfChanged(registry); });

  model::QueryId next_id = 0;
  double horizon = 0;
  const auto submit_round = [&] {
    for (uint32_t s = 0; s < shard_count; ++s) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = static_cast<model::ConsumerId>(s);
      query.query_class = s == 0 ? 1 : 0;
      query.n_results = 3;
      query.cost = 0.4;
      mediator_ptrs[s]->SubmitQuery(query);
    }
  };
  const auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      submit_round();
      // 0.2s cadence keeps the donor shard under ~65% utilization.
      horizon += 0.2;
      shards.RunUntil(horizon);
    }
    horizon += 700.0;  // drain: results, timeout sweeps, re-homing
    shards.RunUntil(horizon);
  };

  // Burst pre-warm: push every pool far past steady-phase concurrency so
  // later growth can only mean a leak, not a late high-water discovery.
  for (int burst = 0; burst < 200; ++burst) submit_round();
  horizon += 700.0;
  shards.RunUntil(horizon);

  AllocAudit audit;
  const uint64_t warm_allocs = util::AllocationCount();
  pump(300);
  audit.per_query_warmup =
      static_cast<double>(util::AllocationCount() - warm_allocs) /
      (300.0 * shard_count);

  const int64_t warm_forwarded = mediator_ptrs[1]->stats().queries_forwarded;
  const int64_t warm_borrowed = mediator_ptrs[2]->stats().queries_borrowed;
  const uint64_t steady_allocs = util::AllocationCount();
  pump(150);
  audit.per_query_steady_state =
      static_cast<double>(util::AllocationCount() - steady_allocs) /
      (150.0 * shard_count);
  audit.steady_forwarded =
      mediator_ptrs[1]->stats().queries_forwarded - warm_forwarded;
  audit.steady_borrowed =
      mediator_ptrs[2]->stats().queries_borrowed - warm_borrowed;
  return audit;
}

}  // namespace
}  // namespace sbqa::bench

int main() {
  using namespace sbqa;
  using namespace sbqa::bench;

  const uint64_t seed = EnvOr("SBQA_BENCH_SEED", 42);
  const double duration =
      static_cast<double>(EnvOr("SBQA_BENCH_DURATION", 300));
  const unsigned host_cores = std::thread::hardware_concurrency();

  PrintHeader(
      "Federation: multi-hop borrow chains under class scarcity",
      "8-shard ring, 8 scarce classes at ring distances 0-4 from the one "
      "donor shard; hop budget sweeps the reach of the borrow chains.");
  std::printf("host cores: %u | duration %.0fs | seed %llu | donor shard "
              "%u of %u\n\n",
              host_cores, duration, static_cast<unsigned long long>(seed),
              kDonorShard, kShards);

  std::vector<SweepRow> rows;
  rows.push_back(RunSweepRow("ring-b1", federation::TopologyKind::kRing, 1,
                             seed, duration));
  rows.push_back(RunSweepRow("ring-b2", federation::TopologyKind::kRing, 2,
                             seed, duration));
  rows.push_back(RunSweepRow("ring-b4", federation::TopologyKind::kRing, 4,
                             seed, duration));
  rows.push_back(RunSweepRow("ring-b7", federation::TopologyKind::kRing, 7,
                             seed, duration));
  rows.push_back(RunSweepRow("mesh-b1", federation::TopologyKind::kFullMesh,
                             1, seed, duration));

  const SweepRow& b1 = rows[0];
  const SweepRow& b4 = rows[2];
  const double goodput_ratio =
      b1.scarce_served > 0
          ? static_cast<double>(b4.scarce_served) /
                static_cast<double>(b1.scarce_served)
          : 0.0;
  std::printf("\nscarce-class goodput, ring budget 4 vs budget 1: %.2fx\n\n",
              goodput_ratio);

  std::printf("forward-path allocation audit (4-shard ring, steady "
              "0 -> 1 -> 2 chains):\n");
  const AllocAudit audit = MeasureForwardAllocations();
  std::printf("  warmup %.3f allocs/query, steady state %.3f allocs/query "
              "(%lld relays, %lld borrows in the measured phase)\n\n",
              audit.per_query_warmup, audit.per_query_steady_state,
              static_cast<long long>(audit.steady_forwarded),
              static_cast<long long>(audit.steady_borrowed));

  JsonWriter json(BenchJsonPath("federation"));
  if (!json.ok()) return 0;
  json.BeginObject();
  json.Field("bench", "federation");
  json.Field("host_cores", static_cast<uint64_t>(host_cores));
  json.Field("seed", seed);
  json.Field("duration_s", duration, 1);
  json.Field("shards", kShards);
  json.Field("donor_shard", kDonorShard);
  json.BeginArray("sweep");
  for (const SweepRow& row : rows) {
    json.BeginObject();
    json.Field("row", row.label);
    json.Field("topology", row.topology);
    json.Field("hop_budget", row.hop_budget);
    json.Field("wall_ms", row.wall_ms, 1);
    json.Field("queries", row.summary.queries_submitted);
    json.Field("queries_finalized", row.summary.queries_finalized);
    json.Field("queries_delegated", row.summary.queries_delegated);
    json.Field("queries_borrowed", row.summary.queries_borrowed);
    json.Field("queries_forwarded", row.summary.queries_forwarded);
    json.Field("queries_multi_hop", row.summary.queries_multi_hop);
    json.Field("mean_borrow_hops", row.summary.mean_borrow_hops, 6);
    json.Field("queries_unallocated", row.summary.queries_unallocated);
    json.Field("scarce_finalized", row.scarce_finalized);
    json.Field("scarce_served", row.scarce_served);
    json.Field("consumer_satisfaction", row.summary.consumer_satisfaction,
               6);
    json.EndObject();
  }
  json.EndArray();
  json.BeginObject("allocations");
  json.Field("topology", "ring");
  json.Field("hop_budget", 4);
  json.Field("per_query_warmup", audit.per_query_warmup, 3);
  json.Field("per_query_steady_state", audit.per_query_steady_state, 3);
  json.Field("steady_forwarded", audit.steady_forwarded);
  json.Field("steady_borrowed", audit.steady_borrowed);
  json.EndObject();
  json.EndObject();
  return 0;
}
