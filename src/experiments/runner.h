#ifndef SBQA_EXPERIMENTS_RUNNER_H_
#define SBQA_EXPERIMENTS_RUNNER_H_

/// \file
/// Builds a full simulated system from a ScenarioConfig, runs it, and
/// returns the aggregated results. This is the single entry point used by
/// the bench binaries, the examples and the integration tests.

#include <string>
#include <vector>

#include "core/score_kernel.h"
#include "experiments/scenario.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"

namespace sbqa::experiments {

/// Everything a run produces.
struct RunResult {
  metrics::RunSummary summary;
  metrics::RunSeries series;
  std::vector<metrics::ParticipantSnapshot> consumers;
  std::vector<metrics::ParticipantSnapshot> providers;
  /// Elastic-membership telemetry (zero at shard_count = 1, where
  /// membership applies immediately): applied epochs / ops and the driver
  /// wall-clock seconds spent applying them — the epoch-apply cost the
  /// bench regression gate bounds.
  uint64_t membership_epochs = 0;
  uint64_t membership_ops = 0;
  double membership_apply_seconds = 0;
  /// Decision-path telemetry: which scoring kernel ran ("exact"/"batched";
  /// empty when the method is not SbQA-based) and the accumulated per-phase
  /// nanoseconds (all zero unless sim.decision_timing was on; `decisions`
  /// counts regardless). Aggregated across every shard's mediators.
  std::string scoring_kernel;
  core::ScoreKernelPhases decision_phases;
};

/// Runs one scenario to completion (synchronously) and aggregates. Every
/// shard count runs through the ShardSet barrier engine (see
/// sim/shard_set.h): per-shard schedulers, a partitioned registry and the
/// deterministic cross-shard mailbox; one shard is one Simulation with no
/// worker thread. Supports the full dynamic-population feature set:
/// availability churn and runtime volunteer joins become barrier-applied
/// epoch ops of the registry's membership log at shard_count > 1, and
/// shared observers are replayed through the collector's deterministic
/// cross-shard mux. mediator_count > 1 runs a mediator GROUP per shard
/// (the first member is the shard's cross-shard gateway), and
/// config.federation shapes the borrow chains between shards (see
/// src/federation/README.md).
RunResult RunScenario(const ScenarioConfig& config);

/// Runs the same scenario once per method, holding everything else equal
/// (including the seed, so populations are identical across techniques).
std::vector<RunResult> CompareMethods(const ScenarioConfig& base,
                                      const std::vector<MethodSpec>& methods);

}  // namespace sbqa::experiments

#endif  // SBQA_EXPERIMENTS_RUNNER_H_
