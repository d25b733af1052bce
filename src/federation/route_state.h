#ifndef SBQA_FEDERATION_ROUTE_STATE_H_
#define SBQA_FEDERATION_ROUTE_STATE_H_

/// \file
/// RouteState: the pooled per-query routing ticket that rides a multi-hop
/// borrow chain. When a shard's candidate pool is dry for a query's class,
/// the origin mediator acquires one of these from its `util::StableSlotPool<RouteState>` (provisioned at
/// Start — the forward path performs zero heap allocations) and forwards
/// the query with a raw RouteState* in the cross-shard closure. Each hop
/// marks itself in the visited bitmap, appends itself to the recorded
/// path, and either mediates the query (pool non-dry), forwards it again
/// (budget left, unvisited peer available), or finalizes it unallocated
/// (budget exhausted / nowhere left to go).
///
/// Ownership is sequential, never shared: exactly one shard — the one
/// currently holding the query — touches the RouteState at any moment,
/// and the barrier-windowed mailbox drain provides the happens-before
/// edge between hops. The slot is acquired and released only on the
/// origin shard's context: the terminal shard re-homes the outcome to the
/// origin (PR 8 pooled re-homing protocol), which releases the route slot
/// while finalizing. StableSlotPool (deque-backed) guarantees the pointer
/// stays valid even while the origin grows the pool for other queries.

#include <cstdint>

#include "util/check.h"

namespace sbqa::federation {

/// Loop prevention is a 64-bit visited bitmap — one bit per shard.
inline constexpr uint32_t kMaxFederationShards = 64;

/// Hop budgets are capped so the recorded path (and the mediator's hops
/// histogram) stays a small fixed array. 8 hops crosses a 64-shard ring's
/// diameter when routed greedily through the gradient table; budgets
/// beyond that add latency, not reachability.
inline constexpr uint32_t kMaxHopBudget = 8;

struct RouteState {
  /// Shard that owns the query (and this slot); outcomes re-home here.
  uint32_t origin_shard = 0;
  /// This state's slot in the origin's route pool — carried so the
  /// terminal shard's re-homing closure can hand it back for release
  /// without a handle lookup.
  uint32_t slot = 0;
  /// Forwards taken so far. 0 while the query is still at its origin;
  /// the terminal outcome reports this as QueryOutcome::hops.
  uint16_t hops = 0;
  /// Maximum forwards allowed (>= 1; 1 is a one-hop borrow).
  uint16_t hop_budget = 1;
  /// Shards this chain has visited (origin included) — each forward
  /// targets a peer whose bit is clear, so chains are loop-free by
  /// construction.
  uint64_t visited = 0;
  /// Equation 2's delta_s(c) input for the query's consumer (satisfaction,
  /// and whether any of their queries completed yet), snapshotted at the
  /// origin when the chain starts: the shard that mediates the query
  /// scores with it instead of reading consumer state that the origin
  /// shard keeps writing.
  double consumer_satisfaction = 0;
  bool consumer_has_samples = false;

  /// path[0] is the origin; path[i] the shard after hop i.
  uint32_t path[kMaxHopBudget + 1] = {};

  /// Arms the ticket for a fresh chain starting at `origin`.
  void Begin(uint32_t origin, uint16_t budget) {
    SBQA_CHECK(origin < kMaxFederationShards);
    origin_shard = origin;
    hops = 0;
    hop_budget = budget;
    visited = uint64_t{1} << origin;
    path[0] = origin;
  }

  bool Visited(uint32_t shard) const {
    return (visited >> shard) & uint64_t{1};
  }

  /// Records a forward to `target`; returns the new hop count.
  uint16_t AdvanceTo(uint32_t target) {
    SBQA_CHECK(target < kMaxFederationShards);
    SBQA_CHECK(hops < hop_budget);
    visited |= uint64_t{1} << target;
    ++hops;
    path[hops] = target;
    return hops;
  }
};

}  // namespace sbqa::federation

#endif  // SBQA_FEDERATION_ROUTE_STATE_H_
