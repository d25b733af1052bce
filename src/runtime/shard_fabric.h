#ifndef SBQA_RUNTIME_SHARD_FABRIC_H_
#define SBQA_RUNTIME_SHARD_FABRIC_H_

/// \file
/// ShardFabric: the cross-shard transport seam. Everything the mediation
/// pipeline needs from a sharded execution substrate is one primitive —
/// post a task into another shard's executor with single-writer ordering —
/// so the identical borrow-chain protocol runs over the simulation's
/// barrier mailboxes (sim::ShardSet, bit-reproducible virtual time) and
/// over live thread-per-shard serving (rt::WallClockShardSet, wall-clock
/// barrier windows). core::Mediator holds a ShardFabric*, never a concrete
/// shard set, which keeps core/ free of sim/ the same way rt::Runtime
/// keeps it free of the scheduler.

#include <cstdint>

#include "runtime/runtime.h"

namespace sbqa::rt {

/// Abstract cross-shard mailbox transport. Implementations own one
/// executor per shard and guarantee: (a) PostTo(src, dst, ...) may only be
/// called from shard `src`'s execution context — each (src, dst) channel
/// has a single writer, so no locks on the hot path; (b) messages on one
/// channel are delivered FIFO; (c) delivery happens at `deliver_at` or the
/// implementation's next exchange point (the barrier), whichever is later,
/// on shard `dst`'s executor.
class ShardFabric {
 public:
  virtual ~ShardFabric() = default;

  /// Number of shards in the fabric.
  virtual uint32_t shard_count() const = 0;

  /// Posts `fn` into shard `dst`'s executor from shard `src`'s context, to
  /// run at `deliver_at` (clamped forward to the next exchange point).
  virtual void PostTo(uint32_t src, uint32_t dst, Time deliver_at,
                      TaskFn fn) = 0;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_SHARD_FABRIC_H_
