// Scenario-level tests of the federation subsystem — the acceptance
// gates of multi-hop borrow chains:
//
//   1. the default config (federation.enabled false) borrows exactly
//      like an explicit full mesh with hop_budget = 1: same allocation
//      traces, bit-identical summaries, same borrow counters;
//   2. multi-hop routing over a ring reproduces bit-for-bit per (seed,
//      shard_count), threaded or serial;
//   3. borrow-chain stats invariants: every chain that starts consumes
//      exactly one terminal borrow, the hops histogram folded into the
//      summary reconciles with the delegated/forwarded counters, and no
//      chain exceeds its budget;
//   4. when every shard is dry for a class, chains terminate (terminal
//      completeness) instead of looping;
//   5. per-shard mediator groups (mediator_count > 1 with shard_count >
//      1) complete every query and reproduce run-over-run.

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "federation/route_state.h"

namespace sbqa::experiments {
namespace {

/// FNV-folded allocation trace, one recorder per shard (same scheme as
/// sharding_determinism_test.cc): colliding hashes mean the runs made
/// the same decisions in the same order.
class TraceRecorder : public core::MediationObserver {
 public:
  void OnMediation(const model::Query& query,
                   const core::AllocationDecision& decision,
                   double now) override {
    Mix(0x11);
    Mix(static_cast<uint64_t>(query.id));
    Mix(std::bit_cast<uint64_t>(now));
    for (model::ProviderId p : decision.selected) {
      Mix(static_cast<uint64_t>(static_cast<uint32_t>(p)));
    }
  }

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    Mix(0x22);
    Mix(static_cast<uint64_t>(outcome.query.id));
    Mix(static_cast<uint64_t>(outcome.results_received));
    Mix(std::bit_cast<uint64_t>(outcome.satisfaction));
    Mix(static_cast<uint64_t>(outcome.hops));
  }

  uint64_t hash() const { return hash_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }
  uint64_t hash_ = 14695981039346656037ull;
};

struct ShardTraces {
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  ScenarioConfig Attach(ScenarioConfig config) {
    recorders.clear();
    for (uint32_t s = 0; s < config.sim.shard_count; ++s) {
      recorders.push_back(std::make_unique<TraceRecorder>());
    }
    config.shard_observer_factory = [this](uint32_t s) {
      return recorders[s].get();
    };
    return config;
  }

  std::vector<uint64_t> hashes() const {
    std::vector<uint64_t> out;
    for (const auto& r : recorders) out.push_back(r->hash());
    return out;
  }
};

/// Starved sharded scenario: shard 1's whole provider block is restricted
/// to class 0, so project 1's queries (class 1) must borrow off-shard —
/// the workload every test here routes through the federation.
ScenarioConfig StarvedConfig(uint64_t seed, uint32_t shards, bool threads) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/120,
                                         /*duration=*/90.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  config.population_hook = [shards](core::Registry* registry,
                                    const boinc::BuiltPopulation& population,
                                    util::Rng*) {
    const size_t count = population.volunteers.size();
    const size_t block = (count + shards - 1) / shards;
    for (size_t i = block; i < std::min(count, 2 * block); ++i) {
      registry->provider(population.volunteers[i])
          .RestrictClasses({model::QueryClassId{0}});
    }
  };
  return config;
}

ScenarioConfig WithFederation(ScenarioConfig config,
                              federation::TopologyKind topology,
                              uint32_t hop_budget) {
  config.federation.enabled = true;
  config.federation.topology = topology;
  config.federation.hop_budget = hop_budget;
  config.federation.degree = 4;
  return config;
}

/// The histogram-vs-counter reconciliation every federated run must
/// satisfy: mean_borrow_hops is hop_weight / finalized where hop_weight =
/// sum_h h * borrow_hops[h], and each chain of h hops contributed one
/// delegated plus h - 1 forwarded — so the counters must recompose it.
void ExpectChainStatsConsistent(const metrics::RunSummary& s) {
  EXPECT_EQ(s.queries_submitted, s.queries_finalized);
  // Every chain that starts (delegated at its origin) ends at exactly one
  // terminal shard that consumed it (borrowed) — mediated or unallocated.
  EXPECT_EQ(s.queries_delegated, s.queries_borrowed);
  const double hop_weight =
      s.mean_borrow_hops * static_cast<double>(s.queries_finalized);
  EXPECT_EQ(std::llround(hop_weight),
            s.queries_delegated + s.queries_forwarded);
  // A chain with >= 2 hops has >= 1 relay, so multi-hop count never
  // exceeds the relay count, and both are bounded by started chains.
  EXPECT_LE(s.queries_multi_hop, s.queries_forwarded);
  EXPECT_LE(s.queries_multi_hop, s.queries_delegated);
}

TEST(FederationShardedTest, DefaultConfigMatchesExplicitMeshBudgetOne) {
  // The default config (federation.enabled false) on the starved golden
  // seed...
  ShardTraces legacy_traces;
  const RunResult legacy = RunScenario(
      legacy_traces.Attach(StarvedConfig(/*seed=*/21, /*shards=*/4, true)));
  ASSERT_GT(legacy.summary.queries_delegated, 0);

  // ...and the same scenario with the full mesh and one hop spelled out.
  ShardTraces fed_traces;
  const RunResult fed = RunScenario(fed_traces.Attach(
      WithFederation(StarvedConfig(/*seed=*/21, /*shards=*/4, true),
                     federation::TopologyKind::kFullMesh,
                     /*hop_budget=*/1)));

  EXPECT_EQ(legacy_traces.hashes(), fed_traces.hashes());
  const metrics::RunSummary& a = legacy.summary;
  const metrics::RunSummary& b = fed.summary;
  EXPECT_EQ(a.queries_submitted, b.queries_submitted);
  EXPECT_EQ(a.queries_finalized, b.queries_finalized);
  EXPECT_EQ(a.queries_delegated, b.queries_delegated);
  EXPECT_EQ(a.queries_borrowed, b.queries_borrowed);
  EXPECT_EQ(a.queries_unallocated, b.queries_unallocated);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.consumer_satisfaction),
            std::bit_cast<uint64_t>(b.consumer_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.provider_satisfaction),
            std::bit_cast<uint64_t>(b.provider_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_response_time),
            std::bit_cast<uint64_t>(b.mean_response_time));
  // One-hop chains relay nothing.
  EXPECT_EQ(b.queries_forwarded, 0);
  EXPECT_EQ(b.queries_multi_hop, 0);
  ExpectChainStatsConsistent(b);
}

TEST(FederationShardedTest, MultiHopRingReproducesThreadedAndSerial) {
  auto ring_config = [](bool threads) {
    return WithFederation(StarvedConfig(/*seed=*/7, /*shards=*/4, threads),
                          federation::TopologyKind::kRing,
                          /*hop_budget=*/4);
  };

  ShardTraces first;
  const RunResult a = RunScenario(first.Attach(ring_config(true)));
  ShardTraces second;
  const RunResult b = RunScenario(second.Attach(ring_config(true)));
  EXPECT_EQ(first.hashes(), second.hashes());
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.summary.consumer_satisfaction),
            std::bit_cast<uint64_t>(b.summary.consumer_satisfaction));

  ShardTraces serial;
  RunScenario(serial.Attach(ring_config(false)));
  EXPECT_EQ(first.hashes(), serial.hashes());

  // The ring actually multi-hops: shard 1's starved queries reach donors
  // beyond its two neighbors through relays.
  EXPECT_GT(a.summary.queries_delegated, 0);
  ExpectChainStatsConsistent(a.summary);
}

TEST(FederationShardedTest, BorrowedOutcomesAtTheDrainHorizonReachHome) {
  // Every provider dispatch is dropped, so every attempt runs to its
  // query's deadline (attempts are clamped to it). A borrowed query issued
  // within one mailbox hop of `duration` then times out on its donor at
  // the drain horizon itself, and its outcome re-homes after it; the
  // starved project's rate puts several borrowed queries into that hop.
  // The runner must keep settling until they finalize at home.
  ScenarioConfig config = StarvedConfig(/*seed=*/5, /*shards=*/4, true);
  config.duration = 5.0;
  config.population.projects[1].arrival_rate = 400.0;
  config.query_deadline = 2.0;
  config.mediator.query_timeout = 2.0;
  config.fault_plan.drop_send_prob = 1.0;
  const RunResult result = RunScenario(config);

  const metrics::RunSummary& s = result.summary;
  EXPECT_GT(s.queries_delegated, 0);
  EXPECT_EQ(s.queries_timed_out, s.queries_submitted);
  ExpectChainStatsConsistent(s);
}

TEST(FederationShardedTest, ChainStatsSurviveChurnAndStaleDirectories) {
  // Loop-prevention fuzz: churn keeps invalidating the barrier-stale
  // directory, so chains keep landing on shards that went dry after the
  // snapshot and must relay or terminate. The full budget (kMaxHopBudget)
  // maximizes the chance of walking into dead ends; the invariants must
  // hold anyway and the whole thing must reproduce.
  auto churn_config = [] {
    ScenarioConfig config = StarvedConfig(/*seed=*/33, /*shards=*/4, true);
    config.churn.enabled = true;
    config.churn.mean_online = 60;
    config.churn.mean_offline = 30;
    return WithFederation(std::move(config), federation::TopologyKind::kRing,
                          federation::kMaxHopBudget);
  };

  ShardTraces first;
  const RunResult a = RunScenario(first.Attach(churn_config()));
  ExpectChainStatsConsistent(a.summary);
  EXPECT_GT(a.summary.queries_delegated, 0);

  ShardTraces second;
  RunScenario(second.Attach(churn_config()));
  EXPECT_EQ(first.hashes(), second.hashes());
}

TEST(FederationShardedTest, ChainsTerminateWhenEveryShardIsDry) {
  // Restrict EVERY provider to class 0: classes 1 and 2 have no capacity
  // anywhere, so no chain can start (the directory reports no donor) and
  // every starved query must finalize unallocated at home — terminal
  // completeness with zero routing.
  ScenarioConfig config = StarvedConfig(/*seed=*/9, /*shards=*/4, true);
  config.population_hook = [](core::Registry* registry,
                              const boinc::BuiltPopulation& population,
                              util::Rng*) {
    for (model::ProviderId v : population.volunteers) {
      registry->provider(v).RestrictClasses({model::QueryClassId{0}});
    }
  };
  const RunResult result = RunScenario(WithFederation(
      std::move(config), federation::TopologyKind::kRing, /*hop_budget=*/4));

  const metrics::RunSummary& s = result.summary;
  EXPECT_EQ(s.queries_submitted, s.queries_finalized);
  EXPECT_GT(s.queries_unallocated, 0);
  EXPECT_EQ(s.queries_delegated, 0);
  EXPECT_EQ(s.queries_forwarded, 0);
  EXPECT_EQ(s.queries_borrowed, 0);
  ExpectChainStatsConsistent(s);
}

TEST(FederationShardedTest, MediatorGroupsPerShardCompleteAndReproduce) {
  // The un-gated configuration: two mediators per shard on four shards,
  // with the federation routing through each shard's gateway.
  auto group_config = [] {
    ScenarioConfig config = StarvedConfig(/*seed=*/17, /*shards=*/4, true);
    config.mediator_count = 2;
    return WithFederation(std::move(config), federation::TopologyKind::kRing,
                          /*hop_budget=*/4);
  };

  ShardTraces first;
  const RunResult a = RunScenario(first.Attach(group_config()));
  EXPECT_EQ(a.summary.queries_submitted, a.summary.queries_finalized);
  EXPECT_GT(a.summary.queries_delegated, 0);
  ExpectChainStatsConsistent(a.summary);

  ShardTraces second;
  const RunResult b = RunScenario(second.Attach(group_config()));
  EXPECT_EQ(first.hashes(), second.hashes());
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);

  ShardTraces serial;
  auto serial_config = group_config();
  serial_config.sim.shard_use_threads = false;
  RunScenario(serial.Attach(serial_config));
  EXPECT_EQ(first.hashes(), serial.hashes());

  // Groups on the default config keep working too (one-hop mesh chains
  // from every group member, tickets from the gateway's pool).
  ScenarioConfig plain = StarvedConfig(/*seed=*/17, /*shards=*/2, true);
  plain.mediator_count = 3;
  const RunResult c = RunScenario(plain);
  EXPECT_EQ(c.summary.queries_submitted, c.summary.queries_finalized);
}

}  // namespace
}  // namespace sbqa::experiments
