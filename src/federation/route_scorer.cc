#include "federation/route_scorer.h"

#include "core/shard_directory.h"
#include "federation/route_state.h"

namespace sbqa::federation {

uint32_t RouteScorer::BestCandidateShard(model::QueryClassId query_class,
                                         uint64_t visited,
                                         const uint32_t* scan,
                                         size_t n) const {
  // Min consumers/candidates by exact integer cross-multiplication; the
  // strict < keeps the first shard in scan order on ties.
  uint32_t best = kNoShard;
  uint64_t best_consumers = 0;
  uint64_t best_candidates = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t shard = scan[i];
    if ((visited >> shard) & uint64_t{1}) continue;
    const uint64_t candidates =
        static_cast<uint64_t>(directory_->CountFor(shard, query_class));
    if (candidates == 0) continue;
    const uint64_t consumers =
        static_cast<uint64_t>(directory_->ConsumersOn(shard));
    if (best == kNoShard ||
        consumers * best_candidates < best_consumers * candidates) {
      best = shard;
      best_consumers = consumers;
      best_candidates = candidates;
    }
  }
  return best;
}

uint32_t RouteScorer::PickNext(uint32_t from, model::QueryClassId query_class,
                               uint64_t visited) const {
  const std::vector<uint32_t>& peers = peers_->PeersOf(from);
  const uint32_t adjacent =
      BestCandidateShard(query_class, visited, peers.data(), peers.size());
  if (adjacent != kNoShard) return adjacent;

  // Gradient fallback: some unvisited shard beyond the peer list may have
  // capacity (ring / k-regular). Score all remote donors in wrap order
  // from `from`, then take the first hop toward the winner — which must
  // itself be unvisited, or the chain is stuck.
  const uint32_t n = peers_->shard_count();
  if (peers.size() + 1 >= n) return kNoShard;  // mesh: nothing beyond peers
  uint32_t scan[kMaxFederationShards];
  size_t count = 0;
  for (uint32_t step = 1; step < n; ++step) {
    scan[count++] = (from + step) % n;
  }
  const uint32_t donor =
      BestCandidateShard(query_class, visited, scan, count);
  if (donor == kNoShard) return kNoShard;
  const uint32_t hop = peers_->NextHopToward(from, donor);
  if (hop == kNoShard || ((visited >> hop) & uint64_t{1})) return kNoShard;
  return hop;
}

}  // namespace sbqa::federation
