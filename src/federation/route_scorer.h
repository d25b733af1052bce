#ifndef SBQA_FEDERATION_ROUTE_SCORER_H_
#define SBQA_FEDERATION_ROUTE_SCORER_H_

/// \file
/// RouteScorer: picks the next hop for a borrow chain. The only input is
/// the barrier-published core::ShardDirectory snapshot (candidate counts
/// + consumer load), so every shard scores identically within a window
/// and routing is bit-reproducible.
///
/// Score: among the candidate shards, minimize active consumers per
/// candidate, compared by exact integer cross-multiplication with a
/// strict < so the first shard in scan order keeps ties. On the full mesh
/// that picks the least-loaded donor, ties going to the first shard in
/// wrap order after the origin.
///
/// Selection is two-tier:
///  1. Direct peers of `from` (peer-list order) that are unvisited and
///     reported candidates for the class: best-scoring one wins.
///  2. Gradient fallback: when no adjacent shard qualifies but some
///     unvisited shard elsewhere reported candidates (ring/k-regular),
///     score those remote donors the same way, then forward to
///     `PeerSet::NextHopToward` the winner — an intermediate hop through
///     a dry shard. The intermediate must itself be unvisited (loop
///     prevention binds transit hops too); otherwise no hop is taken.

#include <cstddef>
#include <cstdint>

#include "federation/peer_set.h"
#include "model/types.h"

namespace sbqa::core {
class ShardDirectory;
}

namespace sbqa::federation {

class RouteScorer {
 public:
  static constexpr uint32_t kNoShard = PeerSet::kNoShard;

  void Configure(const PeerSet* peers, const core::ShardDirectory* directory) {
    peers_ = peers;
    directory_ = directory;
  }

  /// Next hop for a chain at `from` looking for `query_class` capacity,
  /// with `visited` shards off-limits. kNoShard when the chain is stuck.
  uint32_t PickNext(uint32_t from, model::QueryClassId query_class,
                    uint64_t visited) const;

 private:
  /// Best unvisited shard with candidates among `scan[0..n)` (already in
  /// deterministic preference order); see the score above.
  uint32_t BestCandidateShard(model::QueryClassId query_class,
                              uint64_t visited, const uint32_t* scan,
                              size_t n) const;

  const PeerSet* peers_ = nullptr;
  const core::ShardDirectory* directory_ = nullptr;
};

}  // namespace sbqa::federation

#endif  // SBQA_FEDERATION_ROUTE_SCORER_H_
