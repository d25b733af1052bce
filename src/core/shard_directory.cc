#include "core/shard_directory.h"

#include "core/registry.h"

namespace sbqa::core {

void ShardDirectory::Refresh(const Registry& registry) {
  const uint32_t n = registry.shard_count();
  entries_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    const CandidateIndex& index = registry.shard_index(s);
    Entry& entry = entries_[s];
    entry.generalists = index.alive_generalist_count();
    entry.active_consumers = registry.active_consumer_count(s);
    index.CollectClassCounts(&scratch_);
    // Sorted so CountFor can binary-search and so the snapshot's layout
    // does not depend on hash-map iteration order.
    std::sort(scratch_.begin(), scratch_.end());
    entry.class_counts.assign(scratch_.begin(), scratch_.end());
  }
  epoch_ = registry.membership_epoch();
  snapshot_valid_ = true;
}

bool ShardDirectory::RefreshIfChanged(const Registry& registry) {
  const uint32_t n = registry.shard_count();
  if (snapshot_valid_ && entries_.size() == n &&
      epoch_ == registry.membership_epoch()) {
    bool consumers_unchanged = true;
    for (uint32_t s = 0; s < n; ++s) {
      if (entries_[s].active_consumers != registry.active_consumer_count(s)) {
        consumers_unchanged = false;
        break;
      }
    }
    if (consumers_unchanged) return false;
  }
  Refresh(registry);
  return true;
}

size_t ShardDirectory::CountFor(uint32_t shard,
                                model::QueryClassId query_class) const {
  const Entry& entry = entries_[shard];
  const auto it = std::lower_bound(
      entry.class_counts.begin(), entry.class_counts.end(), query_class,
      [](const std::pair<model::QueryClassId, size_t>& e,
         model::QueryClassId c) { return e.first < c; });
  const size_t restricted =
      (it != entry.class_counts.end() && it->first == query_class)
          ? it->second
          : 0;
  return entry.generalists + restricted;
}

}  // namespace sbqa::core
