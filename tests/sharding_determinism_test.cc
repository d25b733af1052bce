// Cross-shard determinism tests — the acceptance gate of the sharded
// engine:
//
//   1. shard_count = 1 reproduces the golden allocation trace and
//      counters recorded from the single-Simulation runner it replaced,
//      on a demo-scenario seed;
//   2. a fixed (seed, shard_count) reproduces identical allocation traces
//      run after run, with worker threads on;
//   3. threaded and serial execution produce identical traces;
//   4. the cross-shard borrow path activates when a shard's candidate
//      pool for a class runs dry, stays deterministic, and completes the
//      starved consumer's queries on a peer shard's providers.
//
// Traces are FNV-folded per shard from the mediation observer stream:
// every allocation decision (query id, selected providers) and every
// outcome (query id, results, satisfaction bits). Two runs whose traces
// collide per-shard executed the same allocations in the same order.

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"

namespace sbqa::experiments {
namespace {

class TraceRecorder : public core::MediationObserver {
 public:
  void OnMediation(const model::Query& query,
                   const core::AllocationDecision& decision,
                   double now) override {
    Mix(0x11);
    Mix(static_cast<uint64_t>(query.id));
    Mix(std::bit_cast<uint64_t>(now));
    for (model::ProviderId p : decision.selected) {
      Mix(static_cast<uint64_t>(static_cast<uint32_t>(p)));
    }
    ++mediations_;
  }

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    Mix(0x22);
    Mix(static_cast<uint64_t>(outcome.query.id));
    Mix(static_cast<uint64_t>(outcome.results_received));
    Mix(std::bit_cast<uint64_t>(outcome.satisfaction));
    Mix(std::bit_cast<uint64_t>(outcome.response_time));
    ++outcomes_;
  }

  void OnProviderDeparted(model::ProviderId provider, double now) override {
    Mix(0x33);
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(provider)));
    Mix(std::bit_cast<uint64_t>(now));
  }

  uint64_t hash() const { return hash_; }
  int64_t mediations() const { return mediations_; }
  int64_t outcomes() const { return outcomes_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }

  uint64_t hash_ = 14695981039346656037ull;
  int64_t mediations_ = 0;
  int64_t outcomes_ = 0;
};

/// Recorders for one run: one per shard, owned here, handed to the runner
/// through the per-shard observer factory.
struct ShardTraces {
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  ScenarioConfig Attach(ScenarioConfig config) {
    const uint32_t shards = config.sim.shard_count;
    recorders.clear();
    for (uint32_t s = 0; s < shards; ++s) {
      recorders.push_back(std::make_unique<TraceRecorder>());
    }
    config.shard_observer_factory = [this](uint32_t s) {
      return recorders[s].get();
    };
    return config;
  }

  std::vector<uint64_t> hashes() const {
    std::vector<uint64_t> out;
    for (const auto& r : recorders) out.push_back(r->hash());
    return out;
  }
};

ScenarioConfig SmallConfig(uint64_t seed, uint32_t shards, bool threads) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/120,
                                         /*duration=*/90.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  return config;
}

TEST(ShardingDeterminismTest, ShardCountOneIsBitIdenticalToClassicEngine) {
  // Golden values recorded from the single-Simulation runner that one
  // shard replaced: the barrier engine at shard_count = 1 reproduces its
  // allocation trace and summary bit for bit, seen from a shared observer
  // and from the per-shard observer alike.
  TraceRecorder shared;
  ShardTraces traces;
  ScenarioConfig config =
      traces.Attach(SmallConfig(/*seed=*/42, /*shards=*/1, false));
  config.observers.push_back(&shared);
  const RunResult result = RunScenario(config);

  EXPECT_EQ(shared.hash(), traces.recorders[0]->hash());
  EXPECT_EQ(shared.hash(), 0xa2c5ec3c30a69b9cull);
  EXPECT_EQ(shared.mediations(), 462);
  EXPECT_EQ(shared.outcomes(), 462);
  EXPECT_EQ(traces.recorders[0]->mediations(), 462);
  EXPECT_EQ(traces.recorders[0]->outcomes(), 462);

  const metrics::RunSummary& s = result.summary;
  EXPECT_EQ(s.queries_submitted, 462);
  EXPECT_EQ(s.queries_finalized, 462);
  EXPECT_EQ(s.queries_fully_served, 462);
  EXPECT_EQ(s.queries_timed_out, 0);
  EXPECT_EQ(s.messages_sent, 3234);
  // Bit-identical accumulation, not just statistical agreement.
  EXPECT_EQ(std::bit_cast<uint64_t>(s.consumer_satisfaction),
            0x3fe4a31013b86ee4ull);
  EXPECT_EQ(std::bit_cast<uint64_t>(s.provider_satisfaction),
            0x3fdfeef263d15e66ull);
  EXPECT_EQ(std::bit_cast<uint64_t>(s.mean_response_time),
            0x4016d51d0e7091ecull);
  EXPECT_EQ(s.queries_delegated, 0);
  EXPECT_EQ(s.queries_borrowed, 0);
}

TEST(ShardingDeterminismTest, FixedSeedAndShardCountReproducesThreaded) {
  ShardTraces first_traces;
  const RunResult first = RunScenario(
      first_traces.Attach(SmallConfig(/*seed=*/7, /*shards=*/4, true)));
  ShardTraces second_traces;
  const RunResult second = RunScenario(
      second_traces.Attach(SmallConfig(/*seed=*/7, /*shards=*/4, true)));

  EXPECT_EQ(first_traces.hashes(), second_traces.hashes());
  EXPECT_EQ(first.summary.queries_finalized, second.summary.queries_finalized);
  EXPECT_EQ(std::bit_cast<uint64_t>(first.summary.consumer_satisfaction),
            std::bit_cast<uint64_t>(second.summary.consumer_satisfaction));
  // The run did real work.
  EXPECT_GT(first.summary.queries_finalized, 100);
}

TEST(ShardingDeterminismTest, ThreadedAndSerialTracesMatch) {
  ShardTraces threaded_traces;
  const RunResult threaded = RunScenario(
      threaded_traces.Attach(SmallConfig(/*seed=*/11, /*shards=*/3, true)));
  ShardTraces serial_traces;
  const RunResult serial = RunScenario(
      serial_traces.Attach(SmallConfig(/*seed=*/11, /*shards=*/3, false)));

  EXPECT_EQ(threaded_traces.hashes(), serial_traces.hashes());
  EXPECT_EQ(threaded.summary.queries_finalized,
            serial.summary.queries_finalized);
  EXPECT_EQ(std::bit_cast<uint64_t>(threaded.summary.provider_satisfaction),
            std::bit_cast<uint64_t>(serial.summary.provider_satisfaction));
}

TEST(ShardingDeterminismTest, EveryShardMediatesWork) {
  ShardTraces traces;
  const RunResult result = RunScenario(
      traces.Attach(SmallConfig(/*seed=*/5, /*shards=*/3, true)));
  // Three projects round-robin onto three shards: every shard has a
  // consumer and its own provider block, so every shard mediates.
  for (const auto& recorder : traces.recorders) {
    EXPECT_GT(recorder->mediations(), 0);
  }
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
}

TEST(ShardingDeterminismTest, BorrowPathServesStarvedShardDeterministically) {
  auto starved_config = [](bool threads) {
    ScenarioConfig config = SmallConfig(/*seed=*/21, /*shards=*/4, threads);
    // Starve shard 1: restrict its whole provider block (contiguous ids
    // [block, 2*block)) to class 0. Project 1 (query class 1) lives on
    // shard 1 and must borrow candidates from its peers for every query.
    config.population_hook = [](core::Registry* registry,
                                const boinc::BuiltPopulation& population,
                                util::Rng*) {
      const size_t count = population.volunteers.size();
      const size_t block = (count + 3) / 4;
      for (size_t i = block; i < std::min(count, 2 * block); ++i) {
        registry->provider(population.volunteers[i])
            .RestrictClasses({model::QueryClassId{0}});
      }
    };
    return config;
  };

  ShardTraces traces;
  const RunResult result =
      RunScenario(traces.Attach(starved_config(true)));

  // Shard 1's pool for class 1 is dry -> its queries went over the
  // mailbox and were mediated (borrowed) elsewhere, and still completed.
  EXPECT_GT(result.summary.queries_delegated, 0);
  EXPECT_EQ(result.summary.queries_delegated, result.summary.queries_borrowed);
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
  // The starved project's queries were not simply dropped: unallocated
  // stays a small minority of the delegated stream (a few can still land
  // in churn-empty moments).
  EXPECT_LT(result.summary.queries_unallocated,
            result.summary.queries_delegated / 4 + 1);

  // And the borrow protocol is deterministic, threaded or serial.
  ShardTraces repeat_traces;
  RunScenario(repeat_traces.Attach(starved_config(true)));
  EXPECT_EQ(traces.hashes(), repeat_traces.hashes());
  ShardTraces serial_traces;
  RunScenario(serial_traces.Attach(starved_config(false)));
  EXPECT_EQ(traces.hashes(), serial_traces.hashes());
}

}  // namespace
}  // namespace sbqa::experiments
