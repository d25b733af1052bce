#ifndef SBQA_FEDERATION_FEDERATION_H_
#define SBQA_FEDERATION_FEDERATION_H_

/// \file
/// The federation aggregate: config plus the shared routing planes
/// (topology PeerSet, RouteScorer over the barrier-refreshed
/// core::ShardDirectory). It is the only cross-shard path of the sharded
/// engine: one Federation instance is built per sharded run (shards > 1)
/// and shared read-only by every shard's mediator during barrier windows.
/// The default config — full mesh, hop_budget 1 — borrows one hop from
/// the least-loaded donor.

#include <cstdint>

#include "federation/peer_set.h"
#include "federation/route_scorer.h"
#include "federation/route_state.h"
#include "model/types.h"

namespace sbqa::core {
class ShardDirectory;
}

namespace sbqa::federation {

struct FederationConfig {
  /// Whether the fields below apply. When false the federation still
  /// routes borrows, with the default full mesh and hop_budget 1.
  bool enabled = false;
  TopologyKind topology = TopologyKind::kFullMesh;
  /// Peer count per shard under kKRegular (clamped to [2, shards - 1]).
  uint32_t degree = 4;
  /// Max forwards per borrow chain (clamped to [1, kMaxHopBudget]).
  uint32_t hop_budget = 1;
};

class Federation {
 public:
  static constexpr uint32_t kNoShard = PeerSet::kNoShard;

  /// Builds the topology and wires the scorer. `directory` must outlive
  /// the federation and be barrier-refreshed as usual.
  void Build(const FederationConfig& config, uint32_t shard_count,
             const core::ShardDirectory* directory) {
    config_ = config.enabled ? config : FederationConfig{};
    if (config_.hop_budget < 1) config_.hop_budget = 1;
    if (config_.hop_budget > kMaxHopBudget) config_.hop_budget = kMaxHopBudget;
    peers_.Build(config_.topology, shard_count, config_.degree);
    scorer_.Configure(&peers_, directory);
  }

  const FederationConfig& config() const { return config_; }
  uint16_t hop_budget() const {
    return static_cast<uint16_t>(config_.hop_budget);
  }
  const PeerSet& peers() const { return peers_; }

  /// Next hop for a chain at `from` (see RouteScorer::PickNext).
  uint32_t PickNextHop(uint32_t from, model::QueryClassId query_class,
                       uint64_t visited) const {
    return scorer_.PickNext(from, query_class, visited);
  }

 private:
  FederationConfig config_;
  PeerSet peers_;
  RouteScorer scorer_;
};

}  // namespace sbqa::federation

#endif  // SBQA_FEDERATION_FEDERATION_H_
