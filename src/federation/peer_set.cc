#include "federation/peer_set.h"

#include <algorithm>
#include <cstring>

#include "federation/route_state.h"
#include "util/check.h"

namespace sbqa::federation {

bool TopologyFromName(const char* name, TopologyKind* out) {
  if (std::strcmp(name, "mesh") == 0) {
    *out = TopologyKind::kFullMesh;
  } else if (std::strcmp(name, "ring") == 0) {
    *out = TopologyKind::kRing;
  } else if (std::strcmp(name, "kregular") == 0) {
    *out = TopologyKind::kKRegular;
  } else {
    return false;
  }
  return true;
}

const char* TopologyName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFullMesh:
      return "mesh";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kKRegular:
      return "kregular";
  }
  return "?";
}

void PeerSet::Build(TopologyKind kind, uint32_t shard_count, uint32_t degree) {
  SBQA_CHECK(shard_count >= 1);
  SBQA_CHECK_LE(shard_count, kMaxFederationShards);
  kind_ = kind;
  shard_count_ = shard_count;
  peers_.assign(shard_count, {});
  next_hop_.assign(static_cast<size_t>(shard_count) * shard_count, kNoShard);
  if (shard_count == 1) return;

  // All three topologies are circulants: shard s peers with s + step for a
  // fixed step set. Mesh = every step; ring = {1, n-1}; k-regular = the
  // `degree` offsets nearest the shard (ceil(d/2) forward, floor(d/2)
  // back). Peer lists are emitted in forward wrap order (steps 1..n-1
  // ascending), which the tie-break (first qualifying shard wins)
  // inherits.
  const uint32_t n = shard_count;
  uint32_t fwd_span = n - 1;  // steps 1..fwd_span are peers
  uint32_t back_span = 0;     // steps n-back_span..n-1 are peers
  if (kind == TopologyKind::kRing) {
    fwd_span = 1;
    back_span = n > 2 ? 1 : 0;
  } else if (kind == TopologyKind::kKRegular) {
    const uint32_t d = std::min(std::max(degree, 2u), n - 1);
    fwd_span = (d + 1) / 2;
    back_span = d / 2;
    // Overlap when the spans meet in a small ring collapses to mesh.
    if (fwd_span + back_span >= n - 1) {
      fwd_span = n - 1;
      back_span = 0;
    }
  }

  for (uint32_t s = 0; s < n; ++s) {
    std::vector<uint32_t>& list = peers_[s];
    list.reserve(fwd_span + back_span);
    for (uint32_t step = 1; step < n; ++step) {
      if (step <= fwd_span || step >= n - back_span) {
        list.push_back((s + step) % n);
      }
    }
  }

  // Next-hop table: BFS from each source, visiting neighbors in peer-list
  // order so equal-length paths resolve the same way on every run.
  std::vector<uint32_t> queue;
  std::vector<uint32_t> first_hop(n);
  for (uint32_t src = 0; src < n; ++src) {
    queue.clear();
    std::fill(first_hop.begin(), first_hop.end(), kNoShard);
    for (uint32_t peer : peers_[src]) {
      if (first_hop[peer] == kNoShard) {
        first_hop[peer] = peer;
        queue.push_back(peer);
      }
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint32_t node = queue[head];
      for (uint32_t peer : peers_[node]) {
        if (peer != src && first_hop[peer] == kNoShard) {
          first_hop[peer] = first_hop[node];
          queue.push_back(peer);
        }
      }
    }
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (dst != src) {
        next_hop_[static_cast<size_t>(src) * n + dst] = first_hop[dst];
      }
    }
  }
}

}  // namespace sbqa::federation
