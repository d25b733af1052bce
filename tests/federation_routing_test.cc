// Unit tests for the federation routing planes: PeerSet topologies and
// the BFS next-hop table, the RouteState loop-prevention ticket, and the
// RouteScorer — including the requirement that scoring over a full mesh
// picks the least-loaded donor in wrap order from the origin, checked
// target-for-target against a brute-force oracle of that rule.

#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/shard_directory.h"
#include "federation/peer_set.h"
#include "federation/route_scorer.h"
#include "federation/route_state.h"

namespace sbqa::federation {
namespace {

TEST(PeerSetTest, MeshPeersAreEveryOtherShardInForwardWrapOrder) {
  PeerSet peers;
  peers.Build(TopologyKind::kFullMesh, 4, /*degree=*/4);
  EXPECT_EQ(peers.PeersOf(0), (std::vector<uint32_t>{1, 2, 3}));
  // Wrap order starts after the owning shard, not at zero.
  EXPECT_EQ(peers.PeersOf(2), (std::vector<uint32_t>{3, 0, 1}));
  // Every destination is adjacent: the next hop IS the destination.
  for (uint32_t from = 0; from < 4; ++from) {
    for (uint32_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      EXPECT_EQ(peers.NextHopToward(from, to), to);
    }
  }
}

TEST(PeerSetTest, RingPeersAreTheTwoNeighbors) {
  PeerSet peers;
  peers.Build(TopologyKind::kRing, 6, /*degree=*/2);
  // Forward wrap order: successor first, predecessor (step n-1) last.
  EXPECT_EQ(peers.PeersOf(0), (std::vector<uint32_t>{1, 5}));
  EXPECT_EQ(peers.PeersOf(4), (std::vector<uint32_t>{5, 3}));
  // A two-shard ring has one neighbor, not a duplicated pair.
  PeerSet pair;
  pair.Build(TopologyKind::kRing, 2, /*degree=*/2);
  EXPECT_EQ(pair.PeersOf(0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(pair.PeersOf(1), (std::vector<uint32_t>{0}));
}

TEST(PeerSetTest, RingNextHopFollowsShortestPathWithForwardTieBreak) {
  PeerSet peers;
  peers.Build(TopologyKind::kRing, 6, /*degree=*/2);
  // Strictly nearer one way round: go that way.
  EXPECT_EQ(peers.NextHopToward(0, 2), 1u);
  EXPECT_EQ(peers.NextHopToward(0, 4), 5u);
  // Diametrically opposite (3 hops either way): BFS expands the peer
  // list in order, and the successor is listed first.
  EXPECT_EQ(peers.NextHopToward(0, 3), 1u);
  EXPECT_EQ(peers.NextHopToward(2, 5), 3u);
  // No route to self.
  EXPECT_EQ(peers.NextHopToward(3, 3), PeerSet::kNoShard);
}

TEST(PeerSetTest, KRegularTakesNearestOffsetsAndRoutesThroughThem) {
  PeerSet peers;
  peers.Build(TopologyKind::kKRegular, 8, /*degree=*/4);
  // Degree 4: offsets +1, +2 forward and -2, -1 back (as steps 6, 7).
  EXPECT_EQ(peers.PeersOf(0), (std::vector<uint32_t>{1, 2, 6, 7}));
  EXPECT_EQ(peers.PeersOf(5), (std::vector<uint32_t>{6, 7, 3, 4}));
  // Shard 4 is two +2 strides from 0; the first stride is the next hop.
  EXPECT_EQ(peers.NextHopToward(0, 4), 2u);
  EXPECT_EQ(peers.NextHopToward(0, 3), 1u);  // via +1 then +2
}

TEST(PeerSetTest, KRegularCollapsesToMeshWhenDegreeCoversTheRing) {
  PeerSet peers;
  peers.Build(TopologyKind::kKRegular, 4, /*degree=*/4);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(peers.PeersOf(s).size(), 3u);
    for (uint32_t peer : peers.PeersOf(s)) {
      EXPECT_EQ(peers.NextHopToward(s, peer), peer);
    }
  }
}

TEST(RouteStateTest, VisitedBitmapMakesChainsLoopFree) {
  RouteState route;
  route.Begin(/*origin=*/3, /*budget=*/4);
  EXPECT_TRUE(route.Visited(3));
  EXPECT_FALSE(route.Visited(0));
  EXPECT_EQ(route.hops, 0);
  EXPECT_EQ(route.path[0], 3u);

  EXPECT_EQ(route.AdvanceTo(1), 1);
  EXPECT_EQ(route.AdvanceTo(0), 2);
  EXPECT_TRUE(route.Visited(1));
  EXPECT_TRUE(route.Visited(0));
  EXPECT_EQ(route.path[1], 1u);
  EXPECT_EQ(route.path[2], 0u);

  // Re-arming clears the previous chain's visited set and path.
  route.Begin(/*origin=*/2, /*budget=*/1);
  EXPECT_FALSE(route.Visited(1));
  EXPECT_TRUE(route.Visited(2));
  EXPECT_EQ(route.hops, 0);
}

/// Registry fixture shared by the scorer tests: `providers` generalists
/// and `consumers` round-robined over `shards` partitions.
void PopulateRegistry(core::Registry* registry, size_t providers,
                      size_t consumers, uint32_t shards) {
  for (size_t i = 0; i < providers; ++i) {
    core::ProviderParams params;
    params.capacity = 1.0;
    registry->AddProvider(params);
  }
  for (size_t i = 0; i < consumers; ++i) {
    registry->AddConsumer(core::ConsumerParams{});
  }
  registry->SetShardCount(shards);
}

/// Brute-force donor oracle: among shards other than `from` that report
/// candidates for `query_class`, the one minimizing active consumers per
/// candidate (exact cross-multiplication); ties go to the first shard in
/// wrap-around order after `from`. kNoShard when nobody has candidates.
uint32_t LeastLoadedDonor(const core::ShardDirectory& directory,
                          model::QueryClassId query_class, uint32_t from) {
  const uint32_t n = directory.shard_count();
  uint32_t best = RouteScorer::kNoShard;
  uint64_t best_consumers = 0;
  uint64_t best_candidates = 0;
  for (uint32_t step = 1; step < n; ++step) {
    const uint32_t shard = (from + step) % n;
    const uint64_t candidates = directory.CountFor(shard, query_class);
    if (candidates == 0) continue;
    const uint64_t consumers = directory.ConsumersOn(shard);
    if (best == RouteScorer::kNoShard ||
        consumers * best_candidates < best_consumers * candidates) {
      best = shard;
      best_consumers = consumers;
      best_candidates = candidates;
    }
  }
  return best;
}

TEST(RouteScorerTest, MeshPicksTheLeastLoadedDonor) {
  // For every (origin, class) the scorer over a full mesh must pick
  // exactly the oracle's shard — same load arithmetic, same scan order,
  // same tie-break.
  core::Registry registry;
  PopulateRegistry(&registry, 12, 5, 4);
  // Skew the load: shard 0 keeps generalists; starve shard 1 of class 2;
  // kill one provider on shard 3.
  for (model::ProviderId p = 3; p < 6; ++p) {
    registry.provider(p).RestrictClasses({model::QueryClassId{0}});
  }
  registry.provider(11).set_alive(false);
  core::ShardDirectory directory;
  directory.Refresh(registry);

  PeerSet peers;
  peers.Build(TopologyKind::kFullMesh, 4, /*degree=*/4);
  RouteScorer scorer;
  scorer.Configure(&peers, &directory);

  for (uint32_t from = 0; from < 4; ++from) {
    for (model::QueryClassId cls = 0; cls < 4; ++cls) {
      const uint64_t visited = uint64_t{1} << from;
      EXPECT_EQ(scorer.PickNext(from, cls, visited),
                LeastLoadedDonor(directory, cls, from))
          << "from shard " << from << ", class " << cls;
    }
  }
}

TEST(RouteScorerTest, VisitedShardsAreOffLimits) {
  core::Registry registry;
  PopulateRegistry(&registry, 9, 3, 3);
  core::ShardDirectory directory;
  directory.Refresh(registry);
  PeerSet peers;
  peers.Build(TopologyKind::kFullMesh, 3, /*degree=*/2);
  RouteScorer scorer;
  scorer.Configure(&peers, &directory);

  const uint32_t first = scorer.PickNext(0, 0, uint64_t{1} << 0);
  ASSERT_NE(first, RouteScorer::kNoShard);
  // Mark the winner visited: the runner-up takes over.
  const uint64_t visited = (uint64_t{1} << 0) | (uint64_t{1} << first);
  const uint32_t second = scorer.PickNext(0, 0, visited);
  ASSERT_NE(second, RouteScorer::kNoShard);
  EXPECT_NE(second, first);
  // Everything visited: the chain is stuck.
  EXPECT_EQ(scorer.PickNext(0, 0, visited | (uint64_t{1} << second)),
            RouteScorer::kNoShard);
}

TEST(RouteScorerTest, RingRoutesThroughDryIntermediateTowardRemoteDonor) {
  // Ring of 4: shard 0's peers are 1 and 3. Both are dry for class 5;
  // only shard 2 (not adjacent) has candidates. The gradient fallback
  // must emit the first hop toward shard 2 — shard 1 by peer order —
  // even though shard 1 itself has nothing.
  core::Registry registry;
  PopulateRegistry(&registry, 8, 0, 4);
  for (model::ProviderId p = 0; p < 8; ++p) {
    if (registry.ProviderShard(p) != 2) {
      registry.provider(p).RestrictClasses({model::QueryClassId{0}});
    }
  }
  core::ShardDirectory directory;
  directory.Refresh(registry);
  PeerSet peers;
  peers.Build(TopologyKind::kRing, 4, /*degree=*/2);
  RouteScorer scorer;
  scorer.Configure(&peers, &directory);

  EXPECT_EQ(scorer.PickNext(0, 5, uint64_t{1} << 0), 1u);
  // The chain lands on shard 1 (dry) and relays: shard 2 is adjacent now.
  EXPECT_EQ(scorer.PickNext(1, 5, (uint64_t{1} << 0) | (uint64_t{1} << 1)),
            2u);
  // Loop prevention binds transit hops too: from shard 0 with shard 1
  // already visited, the shortest-path intermediate toward the donor is
  // off-limits and the chain reports stuck instead of looping.
  EXPECT_EQ(scorer.PickNext(0, 5, (uint64_t{1} << 0) | (uint64_t{1} << 1)),
            RouteScorer::kNoShard);
  // And once the only donor is visited there is nowhere to go at all.
  const uint64_t all_but_3 =
      (uint64_t{1} << 0) | (uint64_t{1} << 1) | (uint64_t{1} << 2);
  EXPECT_EQ(scorer.PickNext(0, 5, all_but_3), RouteScorer::kNoShard);
}

}  // namespace
}  // namespace sbqa::federation
