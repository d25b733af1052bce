#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The benchmark's three workloads. Each drives the library only through
/// its public entry points — sbqa::Engine for serving and
/// experiments::RunScenario for simulation — and times every layer from
/// outside: spans around those calls, the decision-phase counters the
/// library exposes, and its public stats structs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments/scenario.h"
#include "metrics/summary.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Wall seconds the measured part of the run should last.
  double seconds = 20;
  /// Traced run: per-layer metrics and the tracing overhead instead of
  /// the end-to-end figures.
  bool trace = false;
};

/// What one workload run reports. `metrics` maps a metric name to its
/// value; the units live in the metric table of bench_main.cc.
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines (sample counts, check failures, fault notes).
  std::vector<std::string> notes;
};

WorkloadResult RunServeReplay(const RunOptions& options);
WorkloadResult RunSimPaper(const RunOptions& options);
WorkloadResult RunSimShardedFaults(const RunOptions& options);

// --- Workload definitions, shared with the self-test ------------------------

/// Largest provider capacity of the serving population (capacities are
/// drawn from U[0.5, kServeCapacityMax]).
constexpr double kServeCapacityMax = 2.0;
/// Work of one serve-replay query.
constexpr double kReplayCost = 0.01;
/// No serve-replay query can finish sooner than its work served at the
/// largest capacity: the latency floor its output check enforces.
constexpr double kReplayServiceFloor = kReplayCost / kServeCapacityMax;

/// The deterministic part of a simulation summary, printed exactly (hex
/// floats): two runs on one seed must give equal strings.
std::string SummaryFingerprint(const sbqa::metrics::RunSummary& summary);

/// sim-paper: the paper's captive Scenario 3 (SbQA, k = 20, kn = 8) on the
/// BOINC demo population at `volunteers` volunteers, one shard.
sbqa::experiments::ScenarioConfig SimPaperConfig(uint64_t seed,
                                                 size_t volunteers,
                                                 double duration);

/// Share of the demo's per-project arrival rate in sim-sharded-faults.
constexpr double kFaultLoad = 0.75;

/// sim-sharded-faults, with the benchmark's own record of which providers
/// it restricted away from the scarce class.
struct ShardedFaultsScenario {
  sbqa::experiments::ScenarioConfig config;
  sbqa::model::QueryClassId scarce_class = 0;
  /// restricted[p]: provider p may not serve the scarce class. Filled by
  /// the population hook when the scenario runs.
  std::shared_ptr<std::vector<bool>> restricted;
};
/// `load` scales every project's arrival rate (kFaultLoad in the
/// workload).
ShardedFaultsScenario ShardedFaultsConfig(uint64_t seed, size_t volunteers,
                                          double duration, bool threaded,
                                          double load = kFaultLoad);

/// The retry-gate probe: a fixed replicated workload under dispatch drops,
/// on inputs that do not depend on the run seed. `incomplete` counts the
/// queries that ended without all their results; `partial_timeouts` those
/// of them that lost one replica, still had retry budget, and waited out
/// their deadline with a partial result instead of being re-mediated.
struct RetryGateProbe {
  int64_t queries = 0;
  int64_t incomplete = 0;
  int64_t partial_timeouts = 0;
};
RetryGateProbe RunRetryGateProbe();

/// Wall seconds of a fixed single-thread compute loop: the host speed
/// figure printed with every run, to compare results across hosts.
double CalibrationSeconds();

/// Open-loop serving at a fixed rate on a given shard count, printing
/// completions and shed queries per second with max_pending 4096 (the
/// overload-collapse reproduction of the README).
void RunOverloadProbe(uint64_t seed, double rate, double seconds);

/// sim-sharded-faults with attempts as long as the 15 s deadline (the
/// drain-horizon reproduction of the README). Returns whether a query was
/// issued but never finalized.
bool RunDrainHorizonProbe(uint64_t seed);

/// Wall seconds of sim-sharded-faults run serially and threaded on one
/// seed (the threaded-rendezvous reproduction of the README).
void RunThreadedSimProbe(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
