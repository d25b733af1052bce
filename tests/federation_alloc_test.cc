// Allocation regression test for the federation forward path: once the
// pools are warm, a steady state in which a dry shard forwards every one
// of its queries through a multi-hop borrow chain (relay through a dry
// intermediate, mediate on the donor shard, re-home the outcome to the
// origin) performs ZERO heap allocations per query — the RouteState
// rides a provisioned StableSlotPool slot, the forward closure fits the
// EventFn inline buffer by static_assert, and the re-homing outcome uses
// the pooled slab protocol.
//
// Lives in its own test binary because it replaces the global operator
// new/delete (via util/counting_alloc.h; counting only).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "core/shard_directory.h"
#include "federation/federation.h"
#include "model/reputation.h"
#include "sim/shard_set.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::federation {
namespace {

/// Hand-built 4-shard ring stack. Shards 0, 1 and 3 carry providers
/// restricted to class 0, shard 2 carries generalists: consumer 0's
/// class-1 queries always chain 0 -> 1 -> 2 (dry origin, dry relay,
/// donor), while consumers 1..3 mediate class 0 locally. Serial shard
/// execution for exact allocation accounting.
struct FederationHarness {
  static constexpr uint32_t kShards = 4;
  static constexpr size_t kProviders = 60;

  sim::SimulationConfig sim_config;
  std::unique_ptr<sim::ShardSet> shards;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;
  core::ShardDirectory directory;
  Federation federation;

  FederationHarness() {
    sim_config.seed = 99;
    sim_config.shard_count = kShards;
    sim_config.shard_use_threads = false;
    shards = std::make_unique<sim::ShardSet>(sim_config);

    util::Rng setup(5);
    core::ConsumerParams consumer_params;
    consumer_params.n_results = 3;
    for (uint32_t s = 0; s < kShards; ++s) {
      registry.AddConsumer(consumer_params);
    }
    for (size_t i = 0; i < kProviders; ++i) {
      core::ProviderParams params;
      params.capacity = setup.Uniform(0.5, 2.0);
      const model::ProviderId id = registry.AddProvider(params);
      for (uint32_t c = 0; c < kShards; ++c) {
        registry.provider(id).preferences().Set(static_cast<int32_t>(c),
                                                setup.Uniform(-1, 1));
        registry.consumer(static_cast<model::ConsumerId>(c))
            .preferences()
            .Set(id, setup.Uniform(-1, 1));
      }
    }
    registry.SetShardCount(kShards);
    // Contiguous blocks of 15: dry out every shard but 2 for class 1.
    for (model::ProviderId p = 0; p < kProviders; ++p) {
      if (registry.ProviderShard(p) != 2) {
        registry.provider(p).RestrictClasses({model::QueryClassId{0}});
      }
    }

    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    core::SbqaParams sbqa_params;
    sbqa_params.knbest = core::KnBestParams{20, 8};
    for (uint32_t s = 0; s < kShards; ++s) {
      mediators.push_back(std::make_unique<core::Mediator>(
          &shards->shard(s).runtime(), &registry, reputation.get(),
          std::make_unique<core::SbqaMethod>(sbqa_params),
          core::MediatorConfig{}));
      mediator_ptrs.push_back(mediators.back().get());
    }
    directory.Refresh(registry);

    FederationConfig fed_config;
    fed_config.enabled = true;
    fed_config.topology = TopologyKind::kRing;
    fed_config.hop_budget = 4;
    federation.Build(fed_config, kShards, &directory);

    for (uint32_t s = 0; s < kShards; ++s) {
      mediators[s]->ConfigureSharding(shards.get(), s, &federation,
                                      mediator_ptrs);
      mediators[s]->ProvisionInflight(256);
    }
    shards->AddBarrierHook(
        [this](double) { directory.RefreshIfChanged(registry); });
  }
};

TEST(FederationAllocTest, SteadyStateForwardAndRehomeAreAllocationFree) {
  FederationHarness harness;
  model::QueryId next_id = 0;
  double horizon = 0;

  // Each round submits one multi-hop query (consumer 0, class 1 — always
  // forwarded 0 -> 1 -> 2 and re-homed) and one local query per other
  // shard, then advances far enough that completions interleave with new
  // arrivals.
  const auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (uint32_t s = 0; s < FederationHarness::kShards; ++s) {
        model::Query query;
        query.id = ++next_id;
        query.consumer = static_cast<model::ConsumerId>(s);
        query.query_class = s == 0 ? 1 : 0;
        query.n_results = 3;
        query.cost = 0.4;
        harness.mediator_ptrs[s]->SubmitQuery(query);
      }
      // 0.2s cadence keeps shard 2 (which serves its own class-0 stream
      // PLUS every chain's class-1 stream on 15 providers) under ~65%
      // utilization — an overloaded donor would grow its backlog and
      // pools forever and the steady state could never be allocation-free.
      horizon += 0.2;
      harness.shards->RunUntil(horizon);
    }
    horizon += 700.0;  // drain: results, timeout sweeps, outcome re-homing
    harness.shards->RunUntil(horizon);
  };

  // Burst pre-warm: 200 simultaneous queries per shard push every pool —
  // in-flight slots, route tickets, the outbound outcome slab, the
  // timeout ring, the scheduler's event pool — far past any concurrency
  // the paced steady phase can reach, so later growth can only mean a
  // leak, not a late high-water discovery.
  for (int burst = 0; burst < 200; ++burst) {
    for (uint32_t s = 0; s < FederationHarness::kShards; ++s) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = static_cast<model::ConsumerId>(s);
      query.query_class = s == 0 ? 1 : 0;
      query.n_results = 3;
      query.cost = 0.4;
      harness.mediator_ptrs[s]->SubmitQuery(query);
    }
  }
  horizon += 700.0;
  harness.shards->RunUntil(horizon);

  pump(300);  // warm-up: every pool reaches its high-water mark

  // The chains actually happened: origin counted them delegated, the
  // relay forwarded, the donor borrowed, and every ticket went home.
  const core::MediatorStats& origin = harness.mediator_ptrs[0]->stats();
  EXPECT_GT(origin.queries_delegated, 0);
  EXPECT_GT(harness.mediator_ptrs[1]->stats().queries_forwarded, 0);
  EXPECT_GT(harness.mediator_ptrs[2]->stats().queries_borrowed, 0);
  EXPECT_EQ(harness.mediator_ptrs[0]->route_live_count(), 0u);
  const size_t warm_route_slots =
      harness.mediator_ptrs[0]->route_slot_capacity();

  const uint64_t steady_allocs = util::AllocationCount();
  pump(150);
  const double per_query =
      static_cast<double>(util::AllocationCount() - steady_allocs) /
      (150.0 * FederationHarness::kShards);
  EXPECT_EQ(per_query, 0.0)
      << "forward + re-home chains must stay allocation-free in steady state";

  // Ticket audit: no route slot leaked (live count drains to zero and the
  // pool never grew past its warm-up size).
  EXPECT_EQ(harness.mediator_ptrs[0]->route_live_count(), 0u);
  EXPECT_EQ(harness.mediator_ptrs[0]->route_slot_capacity(),
            warm_route_slots);
  for (core::Mediator* m : harness.mediator_ptrs) {
    EXPECT_EQ(m->inflight_count(), 0u);
  }

  // Chain accounting stayed consistent through the steady phase:
  // delegated == borrowed across the fabric, and the origin's hop
  // histogram shows the two-hop chains.
  int64_t delegated = 0, borrowed = 0, forwarded = 0, finalized = 0;
  int64_t histogram_total = 0;
  for (core::Mediator* m : harness.mediator_ptrs) {
    delegated += m->stats().queries_delegated;
    borrowed += m->stats().queries_borrowed;
    forwarded += m->stats().queries_forwarded;
    finalized += m->stats().queries_finalized;
    for (int64_t bucket : m->stats().borrow_hops) histogram_total += bucket;
  }
  EXPECT_EQ(delegated, borrowed);
  EXPECT_EQ(histogram_total, finalized);
  EXPECT_GT(origin.borrow_hops[2], 0);  // 0 -> 1 -> 2 chains
  EXPECT_EQ(forwarded, origin.borrow_hops[2] + 2 * origin.borrow_hops[3] +
                           3 * origin.borrow_hops[4]);
}

}  // namespace
}  // namespace sbqa::federation
