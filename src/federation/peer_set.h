#ifndef SBQA_FEDERATION_PEER_SET_H_
#define SBQA_FEDERATION_PEER_SET_H_

/// \file
/// PeerSet: the federation's topology layer. Each shard gets a fixed,
/// deterministic peer list (who it may forward to directly) computed once
/// at Start from (topology kind, shard count, degree) — no RNG, no
/// runtime mutation, so routing is bit-reproducible per (seed,
/// shard_count) by construction.
///
/// Three topologies:
///  - kFullMesh: every shard peers with every other shard. Forwarding
///    degenerates to "pick the best shard directly" — with hop_budget=1
///    this is a one-hop borrow from the least-loaded donor (the default).
///  - kRing: shard s peers with s-1 and s+1 (mod n). The stress topology:
///    reaching a distant donor requires real multi-hop chains.
///  - kKRegular: circulant graph — shard s peers with s +/- 1, s +/- 2,
///    ... up to `degree` peers (offsets 1, 2, ...), the middle ground.
///
/// Peer lists are materialized in *forward wrap order from the owning
/// shard* (s+1, s+2, ... mod n), so the first-qualifying-shard tie-break
/// spreads different origins' borrows over different equally-loaded
/// donors.
///
/// For routing through dry intermediates the set also precomputes a
/// next-hop table (`NextHopToward`): BFS over the peer graph from every
/// source, expanding neighbors in peer-list order so shortest-path ties
/// break deterministically. A mediator that knows capacity exists at
/// shard d but is not adjacent to d forwards along the gradient.

#include <cstdint>
#include <vector>

namespace sbqa::federation {

enum class TopologyKind : uint8_t {
  kFullMesh = 0,
  kRing = 1,
  kKRegular = 2,
};

const char* TopologyName(TopologyKind kind);

/// Parses "mesh" / "ring" / "kregular" (the TopologyName spellings);
/// returns false and leaves `out` untouched on anything else.
bool TopologyFromName(const char* name, TopologyKind* out);

class PeerSet {
 public:
  static constexpr uint32_t kNoShard = UINT32_MAX;

  PeerSet() = default;

  /// Computes peer lists + the next-hop table for `shard_count` shards.
  /// `degree` only applies to kKRegular (clamped to [2, shard_count - 1]).
  void Build(TopologyKind kind, uint32_t shard_count, uint32_t degree);

  TopologyKind kind() const { return kind_; }
  uint32_t shard_count() const { return shard_count_; }

  /// `shard`'s direct peers, forward wrap-ordered (s+1, s+2, ... mod n).
  const std::vector<uint32_t>& PeersOf(uint32_t shard) const {
    return peers_[shard];
  }

  /// First hop on a shortest path from `from` toward `to` through the
  /// peer graph (kNoShard when unreachable or from == to). Ties break by
  /// peer-list order, so the table is deterministic.
  uint32_t NextHopToward(uint32_t from, uint32_t to) const {
    return next_hop_[from * shard_count_ + to];
  }

 private:
  TopologyKind kind_ = TopologyKind::kFullMesh;
  uint32_t shard_count_ = 0;
  std::vector<std::vector<uint32_t>> peers_;
  /// Row-major [from][to] first-hop table; n^2 uint32 — tiny at <= 64
  /// shards and read-only after Build.
  std::vector<uint32_t> next_hop_;
};

}  // namespace sbqa::federation

#endif  // SBQA_FEDERATION_PEER_SET_H_
