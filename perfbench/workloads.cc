#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "boinc/population.h"
#include "checks.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "runtime/fault.h"
#include "util/rng.h"

namespace perfbench {

namespace experiments = sbqa::experiments;
using sbqa::Engine;
using sbqa::EngineOptions;
using sbqa::QueryRequest;
using sbqa::QueryResult;

namespace {

// --- Measurement helpers -----------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Hands the memory freed by a finished round back to the system, so that
/// the process's peak resident set is that of one round, not an artefact
/// of heap fragmentation growing with the number of rounds.
void ReleaseFreedMemory() { malloc_trim(0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Longest measured part of a run, whatever --seconds asks: every run must
/// end within three minutes.
constexpr double kMaxMeasureSeconds = 120;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Note(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Note(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

void AddPhases(const sbqa::core::ScoreKernelPhases& phases,
               WorkloadResult* out) {
  const double n =
      phases.decisions > 0 ? static_cast<double>(phases.decisions) : 1.0;
  out->metrics["core.sample_ns"] = phases.sample_ns / n;
  out->metrics["core.gather_ns"] = phases.gather_ns / n;
  out->metrics["core.intentions_ns"] = phases.intentions_ns / n;
  out->metrics["core.score_ns"] = phases.score_ns / n;
  out->metrics["core.rank_ns"] = phases.rank_ns / n;
}

/// Per-layer figures both serving workloads read from the engine's public
/// counters.
void AddEngineCounters(const sbqa::EngineStats& stats,
                       const std::vector<sbqa::EngineShardStats>& shards,
                       WorkloadResult* out) {
  const double finalized =
      static_cast<double>(std::max<int64_t>(stats.queries_finalized, 1));
  int64_t tasks = 0;
  for (const auto& shard : shards) tasks += shard.tasks_executed;
  out->metrics["engine.shed"] = static_cast<double>(stats.queries_shed);
  out->metrics["runtime.tasks_per_query"] =
      static_cast<double>(tasks) / finalized;
  out->metrics["core.retries_per_query"] =
      static_cast<double>(stats.retry_attempts) / finalized;
  out->metrics["core.timed_out"] = static_cast<double>(stats.queries_timed_out);
  out->metrics["core.instances_useful_ratio"] =
      static_cast<double>(stats.instances_completed) /
      static_cast<double>(std::max<int64_t>(stats.instances_dispatched, 1));
  out->metrics["federation.delegated"] =
      static_cast<double>(stats.queries_delegated);
  out->metrics["federation.forwarded"] =
      static_cast<double>(stats.queries_forwarded);
}

// --- Serving -----------------------------------------------------------------

constexpr uint32_t kServeShards = 2;
constexpr int kServeProviders = 1000;
constexpr int kServeConsumers = 64;
constexpr int kServeResults = 2;
constexpr double kCapacityMin = 0.5;
/// 0.5-2 us of modelled provider work in the overload probe: small next to
/// the engine's own per-query cost, so the engine is what it stresses.
constexpr double kOverloadCost = 1e-6;
constexpr int64_t kOverloadMaxPending = 4096;
constexpr int kSetupRepeats = 3;

struct ServeEngine {
  std::unique_ptr<Engine> engine;
  double population_s = 0;
  double start_s = 0;
};

/// The serving population: kServeProviders providers and kServeConsumers
/// consumers with seeded random mutual preferences. `replay` builds the
/// engine on the manual clock (no worker threads; RunFor drives lock-step
/// barrier windows).
ServeEngine BuildServeEngine(uint64_t seed, bool traced, int64_t max_pending,
                             bool replay) {
  ServeEngine built;
  const double t0 = Now();
  EngineOptions options;
  options.mode = sbqa::EngineMode::kWallClock;
  options.seed = seed;
  options.shards = kServeShards;
  options.decision_timing = traced;
  options.max_pending = max_pending;
  options.wallclock.manual_clock = replay;
  built.engine = std::make_unique<Engine>(std::move(options));
  Engine& engine = *built.engine;
  sbqa::util::Rng rng(seed);
  std::vector<model::ProviderId> providers;
  for (int i = 0; i < kServeProviders; ++i) {
    sbqa::ProviderOptions provider;
    provider.capacity = rng.Uniform(kCapacityMin, kServeCapacityMax);
    providers.push_back(engine.AddProvider(provider));
  }
  for (int c = 0; c < kServeConsumers; ++c) {
    sbqa::ConsumerOptions consumer;
    consumer.n_results = kServeResults;
    const model::ConsumerId id = engine.AddConsumer(consumer);
    for (model::ProviderId p : providers) {
      engine.SetConsumerPreference(id, p, rng.Uniform(-1, 1));
      engine.SetProviderPreference(p, id, rng.Uniform(-1, 1));
    }
  }
  const double t1 = Now();
  engine.Start();
  const double t2 = Now();
  built.population_s = t1 - t0;
  built.start_s = t2 - t1;
  return built;
}

/// Outcome bookkeeping shared by every callback of one replay engine: the
/// serving output checks and each consumer's Definition-1 history. The
/// manual-clock engine runs every callback on the thread that drives it.
/// `min_service_s` is the latency floor of the engine's queries: their
/// cost served at the largest provider capacity.
class ServeState {
 public:
  ServeState(size_t memory_k, double min_service_s)
      : memory_k_(memory_k),
        min_service_s_(min_service_s),
        history_(kServeConsumers) {}

  /// Called once per delivered outcome.
  void Record(const QueryResult& result, model::ConsumerId consumer,
              int callbacks, double wall_latency) {
    const std::string violation = CheckServeOutcome(
        callbacks, result.shed, result.results_received, result.response_time,
        wall_latency, min_service_s_);
    if (!violation.empty()) Fail(violation);
    if (result.shed || callbacks != 1) return;
    std::vector<double>& h = history_[static_cast<size_t>(consumer)];
    h.push_back(result.satisfaction);
    if (h.size() > 2 * memory_k_) {
      h.erase(h.begin(), h.begin() + static_cast<long>(memory_k_));
    }
  }

  /// A failed operation the callbacks cannot see (a lost outcome).
  void Fail(const std::string& violation) {
    ++failed_;
    log_.Expect(violation);
  }

  /// End-of-run checks: Definition 1 per consumer against the engine's
  /// snapshot, and the engine's own accounting.
  void Finish(const sbqa::EngineSnapshot& snapshot,
              const sbqa::EngineStats& stats, int64_t accepted,
              int64_t delivered) {
    for (const sbqa::ConsumerSnapshot& c : snapshot.consumers) {
      log_.Expect(CheckDefinition1(c.id, history_[static_cast<size_t>(c.id)],
                                   memory_k_, c.satisfaction));
    }
    sbqa::metrics::RunSummary summary;
    summary.queries_submitted = stats.queries_submitted;
    summary.queries_finalized = stats.queries_finalized;
    summary.queries_satisfied = stats.queries_satisfied;
    summary.queries_recovered = stats.queries_recovered;
    summary.queries_failed = stats.queries_failed;
    summary.queries_unallocated = stats.queries_unallocated;
    summary.queries_timed_out = stats.queries_timed_out;
    summary.queries_delegated = stats.queries_delegated;
    summary.queries_borrowed = stats.queries_borrowed;
    log_.Expect(CheckAccounting(summary, delivered));
    if (stats.queries_submitted != accepted) {
      log_.Expect(Note("engine counted %" PRId64 " submissions, bench %" PRId64,
                       stats.queries_submitted, accepted));
    }
  }

  int64_t failed() const { return failed_; }
  const CheckLog& log() const { return log_; }

 private:
  size_t memory_k_;
  double min_service_s_;
  std::vector<std::vector<double>> history_;  ///< per consumer
  int64_t failed_ = 0;
  CheckLog log_;
};

model::ConsumerId PickConsumer(uint64_t seed, uint64_t stream,
                               uint64_t index) {
  return static_cast<model::ConsumerId>(
      Mix(seed ^ Mix(stream * 0x1000003ull + index)) % kServeConsumers);
}

/// Open loop for the overload probe: one generator thread submits at a
/// fixed rate; latency runs from each query's due time to its callback.
struct OpenLoopResult {
  std::vector<double> due_latency;  ///< s, per delivered query
  int64_t submitted = 0;
  int64_t lost = 0;  ///< queries never delivered
  std::vector<int64_t> completed_per_s;
  std::vector<int64_t> shed_per_s;
};

OpenLoopResult RunOpenLoop(Engine* engine, uint64_t seed, double rate,
                           double seconds) {
  const auto n = static_cast<size_t>(rate * seconds);
  const size_t buckets = static_cast<size_t>(std::ceil(seconds)) + 64;
  struct Shared {
    std::vector<double> due_latency;
    std::unique_ptr<std::atomic<uint8_t>[]> delivered;
    std::unique_ptr<std::atomic<int64_t>[]> completed_per_s, shed_per_s;
    double t0 = 0;
    double rate = 0;
    size_t buckets = 0;
  } shared;
  shared.due_latency.assign(n, -1.0);
  shared.delivered = std::make_unique<std::atomic<uint8_t>[]>(n);
  shared.completed_per_s = std::make_unique<std::atomic<int64_t>[]>(buckets);
  shared.shed_per_s = std::make_unique<std::atomic<int64_t>[]>(buckets);
  shared.rate = rate;
  shared.buckets = buckets;

  shared.t0 = Now() + 0.01;
  std::thread generator([&] {
    Shared* s = &shared;
    for (size_t i = 0; i < n; ++i) {
      const double due = s->t0 + static_cast<double>(i) / s->rate;
      while (Now() < due) {
      }
      QueryRequest request;
      request.consumer = PickConsumer(seed, 0xC0FFEE, i);
      request.n_results = kServeResults;
      request.cost = kOverloadCost;
      engine->Submit(request, [s, i](const QueryResult& result) {
        const double now = Now();
        if (s->delivered[i].fetch_add(1) == 0) {
          s->due_latency[i] = now - (s->t0 + static_cast<double>(i) / s->rate);
        }
        const size_t bucket = std::min(
            static_cast<size_t>(std::max(0.0, now - s->t0)), s->buckets - 1);
        (result.shed ? s->shed_per_s : s->completed_per_s)[bucket]
            .fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  generator.join();
  engine->WaitIdle(30.0);
  OpenLoopResult out;
  out.submitted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    if (shared.delivered[i].load() == 0) {
      ++out.lost;
    } else {
      out.due_latency.push_back(shared.due_latency[i]);
    }
  }
  for (size_t b = 0; b < buckets; ++b) {
    out.completed_per_s.push_back(shared.completed_per_s[b].load());
    out.shed_per_s.push_back(shared.shed_per_s[b].load());
  }
  return out;
}

double MeanConsumerSatisfaction(const sbqa::EngineSnapshot& snapshot) {
  double sum = 0;
  int n = 0;
  for (const auto& c : snapshot.consumers) {
    if (c.queries_issued == 0) continue;
    sum += c.satisfaction;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

double MeanProviderSatisfaction(const sbqa::EngineSnapshot& snapshot) {
  double sum = 0;
  int n = 0;
  for (const auto& p : snapshot.providers) {
    if (!p.alive) continue;
    sum += p.satisfaction;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

// --- Simulations -------------------------------------------------------------

/// Per-shard observer stamping the first mediation on the wall clock and,
/// in traced runs, counting instances selected and results received.
class ShardProbe final : public sbqa::core::MediationObserver {
 public:
  explicit ShardProbe(bool count) : count_(count) {}
  void OnMediation(const model::Query&,
                   const sbqa::core::AllocationDecision& decision,
                   double) override {
    if (first_mediation_ == 0) first_mediation_ = Now();
    if (count_) selected_ += static_cast<int64_t>(decision.selected.size());
  }
  void OnQueryCompleted(const sbqa::core::QueryOutcome& outcome) override {
    if (count_) results_ += outcome.results_received;
  }
  double first_mediation() const { return first_mediation_; }
  int64_t selected() const { return selected_; }
  int64_t results() const { return results_; }

 private:
  bool count_;
  double first_mediation_ = 0;
  int64_t selected_ = 0;
  int64_t results_ = 0;
};

struct SimRep {
  experiments::RunResult result;
  double setup_s = 0;   ///< RunScenario entry -> first mediation
  double run_s = 0;     ///< first mediation -> RunScenario return
  double qps = 0;       ///< finalized queries per wall second after set-up
  int64_t selected = 0;
  int64_t results = 0;
};

SimRep RunSim(experiments::ScenarioConfig config, bool traced,
              CheckingObserver* checker) {
  config.sim.decision_timing = traced;
  const uint32_t shards = std::max<uint32_t>(config.sim.shard_count, 1);
  std::vector<std::unique_ptr<ShardProbe>> probes;
  for (uint32_t s = 0; s < shards; ++s) {
    probes.push_back(std::make_unique<ShardProbe>(traced));
  }
  if (shards == 1) {
    config.observers.push_back(probes[0].get());
  } else {
    config.shard_observer_factory = [&probes](uint32_t s) {
      return probes[s].get();
    };
  }
  if (checker != nullptr) config.observers.push_back(checker);
  SimRep rep;
  const double t0 = Now();
  rep.result = experiments::RunScenario(config);
  const double t1 = Now();
  double first = t1;
  for (const auto& probe : probes) {
    if (probe->first_mediation() > 0) {
      first = std::min(first, probe->first_mediation());
    }
    rep.selected += probe->selected();
    rep.results += probe->results();
  }
  rep.setup_s = first - t0;
  rep.run_s = t1 - first;
  rep.qps = static_cast<double>(rep.result.summary.queries_finalized) /
            std::max(rep.run_s, 1e-9);
  return rep;
}

std::vector<double> ConsumerSatisfactions(const experiments::RunResult& r) {
  std::vector<double> out(r.consumers.size(), 0.0);
  for (const auto& c : r.consumers) {
    out[static_cast<size_t>(c.id)] = c.satisfaction;
  }
  return out;
}

/// What a simulation workload plugs into RunSimWorkload.
struct SimWorkload {
  std::function<experiments::ScenarioConfig()> make_config;
  size_t memory_k = 50;
  model::QueryClassId scarce_class = -1;
  const std::vector<bool>* restricted = nullptr;
  /// Each simulated query is an operation; one that ends failed,
  /// unallocated or timed out is a failed one. Off where that count
  /// depends on the seed (the failed share must be the same in every run).
  bool queries_are_operations = true;
  /// Runs once per round next to the scenario; returns its operations.
  std::function<RetryGateProbe()> probe;
};

/// Runs either simulation. Round 0 runs with the checking
/// observer and is not timed; the measured rounds repeat the same seed
/// until `seconds` have passed and must reproduce round 0 bit for bit.
/// Traced runs alternate untraced and traced rounds: end-to-end figures
/// never come from a traced round.
WorkloadResult RunSimWorkload(const RunOptions& options,
                              const SimWorkload& workload) {
  WorkloadResult out;
  CheckLog log;
  const auto round = [&](bool traced, CheckingObserver* checker) {
    SimRep rep = RunSim(workload.make_config(), traced, checker);
    ReleaseFreedMemory();
    if (workload.queries_are_operations) {
      const sbqa::metrics::RunSummary& s = rep.result.summary;
      out.attempted += s.queries_submitted;
      out.failed += s.queries_failed + s.queries_unallocated +
                    s.queries_timed_out;
    }
    if (workload.probe) {
      const RetryGateProbe probe = workload.probe();
      out.attempted += probe.queries;
      out.failed += probe.incomplete;
    }
    return rep;
  };

  CheckingObserver checker(&log, workload.memory_k, workload.scarce_class,
                           workload.restricted);
  const SimRep reference = round(false, &checker);
  checker.Finish(reference.result.summary,
                 ConsumerSatisfactions(reference.result));
  const std::string fingerprint = SummaryFingerprint(reference.result.summary);

  std::vector<double> setup, qps, traced_qps, residual, membership_s;
  sbqa::core::ScoreKernelPhases phases;
  int64_t selected = 0, results = 0;
  const double start = Now();
  for (int i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const SimRep rep = round(traced, nullptr);
    if (SummaryFingerprint(rep.result.summary) != fingerprint) {
      log.Expect(Note("round %d did not reproduce round 0 on the same seed",
                      i + 1));
    }
    if (traced) {
      traced_qps.push_back(rep.qps);
      phases.Accumulate(rep.result.decision_phases);
      selected += rep.selected;
      results += rep.results;
      const double decision_s = rep.result.decision_phases.total_ns() * 1e-9;
      residual.push_back(
          (rep.run_s - decision_s - rep.result.membership_apply_seconds) /
          static_cast<double>(rep.result.summary.queries_finalized) * 1e9);
      membership_s.push_back(rep.result.membership_apply_seconds);
    } else {
      setup.push_back(rep.setup_s);
      qps.push_back(rep.qps);
    }
    const double elapsed = Now() - start;
    const bool have_both = !options.trace || !traced_qps.empty();
    if (have_both && qps.size() >= 2 &&
        elapsed >= std::min(options.seconds, kMaxMeasureSeconds)) {
      break;
    }
  }

  const sbqa::metrics::RunSummary& s = reference.result.summary;
  const double finalized = static_cast<double>(s.queries_finalized);
  out.notes.push_back(Note(
      "rounds: %zu untraced + %zu traced after the checked round 0; "
      "%" PRId64 " queries finalized per round; %" PRId64
      " mediations checked",
      qps.size(), traced_qps.size(), s.queries_finalized,
      checker.mediations()));
  std::string consumers;
  for (const auto& c : reference.result.consumers) {
    consumers += Note(" %.4f", c.satisfaction);
  }
  out.notes.push_back("consumer satisfaction (Definition 1):" + consumers);
  std::string rounds;
  for (double q : qps) rounds += Note(" %.0f", q);
  out.notes.push_back("untraced round q/s:" + rounds);
  out.notes.push_back(Note(
      "response (virtual time, %" PRId64 " queries): p50 %.4f s, p95 %.4f "
      "s, p99 %.4f s",
      s.queries_finalized, s.p50_response_time, s.p95_response_time,
      s.p99_response_time));
  out.notes.push_back(Note(
      "taxonomy: satisfied %" PRId64 ", recovered %" PRId64 ", failed %" PRId64
      ", unallocated %" PRId64 ", timed out %" PRId64 "; delegated %" PRId64
      ", forwarded %" PRId64 ", drops %" PRId64 ", retries %" PRId64,
      s.queries_satisfied, s.queries_recovered, s.queries_failed,
      s.queries_unallocated, s.queries_timed_out, s.queries_delegated,
      s.queries_forwarded, s.fault_sends_dropped, s.retry_attempts));

  if (!options.trace) {
    out.metrics["setup_s"] = Median(setup);
    out.metrics["qps"] = Median(qps);
    out.metrics["response_p50_ms"] = s.p50_response_time * 1e3;
    out.metrics["response_p99_ms"] = s.p99_response_time * 1e3;
    out.metrics["consumer_satisfaction"] = s.consumer_satisfaction;
    out.metrics["provider_satisfaction"] = s.provider_satisfaction;
    out.metrics["fully_served_share"] = s.fully_served_fraction;
  } else {
    AddPhases(phases, &out);
    out.metrics["sim.messages_per_query"] =
        static_cast<double>(s.messages_sent) / finalized;
    out.metrics["sim.residual_ns_per_query"] = Median(residual);
    out.metrics["sim.membership_apply_s"] = Median(membership_s);
    out.metrics["sim.membership_ops"] =
        static_cast<double>(reference.result.membership_ops);
    out.metrics["core.retries_per_query"] =
        static_cast<double>(s.retry_attempts) / finalized;
    out.metrics["core.timed_out"] = static_cast<double>(s.queries_timed_out);
    out.metrics["core.instances_useful_ratio"] =
        selected > 0 ? static_cast<double>(results) / selected : 0;
    out.metrics["federation.delegated"] =
        static_cast<double>(s.queries_delegated);
    out.metrics["federation.forwarded"] =
        static_cast<double>(s.queries_forwarded);
    out.metrics["federation.mean_hops"] = s.mean_borrow_hops;
    // Population build alone, on the same spec and seed.
    const experiments::ScenarioConfig config = workload.make_config();
    std::vector<double> population;
    for (int i = 0; i < kSetupRepeats; ++i) {
      sbqa::core::Registry registry;
      sbqa::util::Rng rng(config.seed);
      const double t0 = Now();
      sbqa::boinc::BuildPopulation(config.population, &registry, &rng);
      population.push_back(Now() - t0);
    }
    out.metrics["setup.population_s"] = Median(population);
    out.metrics["setup.start_s"] =
        std::max(0.0, Median(setup) - Median(population));
    out.metrics["trace.overhead_pct"] =
        (Median(qps) - Median(traced_qps)) / Median(qps) * 100.0;
  }
  out.metrics["peak_rss_mb"] = PeakRssMb();
  out.correct = log.ok();
  for (const std::string& m : log.messages()) out.notes.push_back("CHECK " + m);
  return out;
}

}  // namespace

std::string SummaryFingerprint(const sbqa::metrics::RunSummary& s) {
  return Note("%" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
              " %" PRId64 " %" PRId64 " %" PRIu64 " %a %a %a %a %a",
              s.queries_finalized, s.queries_timed_out, s.retry_attempts,
              s.queries_delegated, s.queries_forwarded, s.provider_joins,
              s.fault_sends_dropped, s.messages_sent, s.consumer_satisfaction,
              s.provider_satisfaction, s.p50_response_time,
              s.p99_response_time, s.mean_borrow_hops);
}

// --- serve-replay ------------------------------------------------------------

/// Engine-time Poisson arrival rate and span of one replay round: 40k q/s
/// for 10 s with kReplayCost (10 ms of work at capacity 1) keeps the
/// providers about 64% busy, so queueing and the allocation shape latency.
constexpr double kReplayRate = 40000;
constexpr double kReplaySpan = 10;

namespace {

/// One replay round: a fresh manual-clock engine (set-up timed) replays a
/// seeded open-loop Poisson trace, one barrier window per RunFor step;
/// every query due inside a window is submitted before the window runs.
struct ReplayRound {
  double population_s = 0;
  double start_s = 0;
  double replay_s = 0;  ///< wall seconds driving the trace
  double qps = 0;       ///< queries per wall second of replay
  size_t samples = 0;  ///< queries replayed
  double p50 = 0;      ///< engine s, due -> completion
  double p95 = 0;
  double p99 = 0;
  double consumer_satisfaction = 0;
  double provider_satisfaction = 0;
  double fully_served_share = 0;  ///< queries with all n results
  double submit_ns = 0;
  sbqa::EngineStats stats;
  std::vector<sbqa::EngineShardStats> shards;
  sbqa::core::ScoreKernelPhases phases;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::string fingerprint;  ///< deterministic outputs, exact
};

/// Per-query arrays of a round, allocated once and reused by every round
/// so that the harness's memory does not grow with the number of rounds.
struct ReplayBuffers {
  std::vector<double> due;
  std::vector<double> latency;
  std::vector<uint8_t> delivered;
};

ReplayRound RunReplayRound(uint64_t seed, bool traced, ReplayBuffers* buffers) {
  ReplayRound round;
  ServeEngine serve =
      BuildServeEngine(seed, traced, /*max_pending=*/0, /*replay=*/true);
  round.population_s = serve.population_s;
  round.start_s = serve.start_s;
  Engine& engine = *serve.engine;
  ServeState state(sbqa::ConsumerOptions{}.memory_k, kReplayServiceFloor);
  std::vector<double>& due = buffers->due;
  due.clear();
  sbqa::util::Rng arrivals(Mix(seed ^ 0xA11A));
  for (double t = arrivals.Exponential(kReplayRate); t < kReplaySpan;
       t += arrivals.Exponential(kReplayRate)) {
    due.push_back(t);
  }
  const size_t n = due.size();
  std::vector<double>& latency = buffers->latency;
  std::vector<uint8_t>& delivered = buffers->delivered;
  latency.assign(n, -1.0);
  delivered.assign(n, 0);
  const double tick = EngineOptions{}.shard_barrier_tick;
  double submit_ns = 0;
  int64_t fully_served = 0;

  const double t0 = Now();
  size_t next = 0;
  for (int64_t w = 1; next < n; ++w) {
    const double window_end = static_cast<double>(w) * tick;
    for (; next < n && due[next] < window_end; ++next) {
      QueryRequest request;
      request.consumer = PickConsumer(seed, 0xC0FFEE, next);
      request.n_results = kServeResults;
      request.cost = kReplayCost;
      const size_t i = next;
      const model::ConsumerId consumer = request.consumer;
      const double before = traced ? Now() : 0;
      engine.Submit(request, [&latency, &delivered, &state, &due,
                              &fully_served, i,
                              consumer](const QueryResult& result) {
        const int callbacks = ++delivered[i];
        if (callbacks == 1) {
          latency[i] = result.completed_at - due[i];
          if (result.results_received >= result.results_required) {
            ++fully_served;
          }
        }
        // Engine time is the only clock of a replay.
        state.Record(result, consumer, callbacks, result.response_time);
      });
      if (traced) submit_ns += (Now() - before) * 1e9;
    }
    engine.RunFor(tick);
  }
  if (!engine.WaitIdle(60.0)) state.Fail("replay did not drain");
  round.replay_s = Now() - t0;
  round.qps = static_cast<double>(n) / round.replay_s;
  round.submit_ns = traced ? submit_ns / static_cast<double>(n) : 0;

  round.stats = engine.Stats();
  round.shards = engine.ShardStats();
  const sbqa::EngineSnapshot snapshot = engine.Snapshot();
  engine.Stop();
  round.phases = engine.DecisionPhases();
  int64_t received = 0;
  for (size_t i = 0; i < n; ++i) {
    if (delivered[i] == 0) {
      state.Fail(Note("replayed query %zu never delivered", i));
    } else {
      ++received;
    }
  }
  state.Finish(snapshot, round.stats, static_cast<int64_t>(n), received);
  round.attempted = static_cast<int64_t>(n);
  round.failed = state.failed();
  round.violations = state.log().messages();
  round.consumer_satisfaction = MeanConsumerSatisfaction(snapshot);
  round.provider_satisfaction = MeanProviderSatisfaction(snapshot);
  round.fully_served_share =
      static_cast<double>(fully_served) / static_cast<double>(n);
  double latency_sum = 0;
  for (double l : latency) latency_sum += l;
  round.samples = n;
  round.fingerprint = Note(
      "%" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %a %a %a",
      round.stats.queries_finalized, round.stats.queries_delegated,
      round.stats.instances_completed, fully_served, latency_sum,
      round.consumer_satisfaction, round.provider_satisfaction);
  return round;
}

}  // namespace

WorkloadResult RunServeReplay(const RunOptions& options) {
  WorkloadResult out;
  // Round 0 warms the process up; every round is checked and must
  // reproduce round 0's outputs exactly (the replay is deterministic).
  // Traced runs alternate untraced and traced rounds.
  std::vector<ReplayRound> plain, traced;
  ReplayBuffers buffers;
  std::string fingerprint;
  const double start = Now();
  for (int i = 0;; ++i) {
    const bool trace = options.trace && i % 2 == 0;
    ReplayRound round = RunReplayRound(options.seed, trace, &buffers);
    ReleaseFreedMemory();
    out.attempted += round.attempted;
    out.failed += round.failed;
    for (const std::string& v : round.violations) {
      out.correct = false;
      out.notes.push_back("CHECK " + v);
    }
    if (i == 0) fingerprint = round.fingerprint;
    if (round.fingerprint != fingerprint) {
      out.correct = false;
      out.notes.push_back(
          Note("CHECK round %d did not reproduce round 0 on the same seed", i));
    }
    if (i == 0) {
      // Round 0 is the latency source (all rounds are equal) and untimed.
      round.p50 = Quantile(buffers.latency, 0.5);
      round.p95 = Quantile(buffers.latency, 0.95);
      round.p99 = Quantile(buffers.latency, 0.99);
      plain.push_back(std::move(round));
      continue;
    }
    (trace ? traced : plain).push_back(std::move(round));
    const double elapsed = Now() - start;
    const bool have_both = !options.trace || !traced.empty();
    if (have_both && plain.size() >= 3 &&
        elapsed >= std::min(options.seconds, kMaxMeasureSeconds)) {
      break;
    }
  }
  const ReplayRound& reference = plain.front();
  const std::vector<ReplayRound> timed(plain.begin() + 1, plain.end());
  const auto median_of = [](const std::vector<ReplayRound>& rounds,
                            double ReplayRound::*field) {
    std::vector<double> values;
    for (const ReplayRound& r : rounds) values.push_back(r.*field);
    return Median(values);
  };
  out.notes.push_back(Note(
      "%zu untraced + %zu traced rounds after round 0, each replaying "
      "%.0f s of Poisson arrivals at %.0f q/s of engine time over %u shards; "
      "latency samples %zu: p50 %.4f ms, p95 %.4f ms, p99 %.4f ms (engine "
      "time)",
      timed.size(), traced.size(), kReplaySpan, kReplayRate,
      kServeShards, reference.samples, reference.p50 * 1e3,
      reference.p95 * 1e3, reference.p99 * 1e3));
  out.notes.push_back(Note(
      "delegated %" PRId64 ", barriers %" PRId64 " per round, shed %" PRId64,
      reference.stats.queries_delegated, reference.stats.shard_barriers,
      reference.stats.queries_shed));
  if (!options.trace) {
    std::vector<double> setup;
    for (const ReplayRound& r : timed) {
      setup.push_back(r.population_s + r.start_s);
    }
    out.metrics["setup_s"] = Median(setup);
    out.metrics["qps"] = median_of(timed, &ReplayRound::qps);
    out.metrics["response_p50_ms"] = reference.p50 * 1e3;
    out.metrics["response_p99_ms"] = reference.p99 * 1e3;
    out.metrics["consumer_satisfaction"] = reference.consumer_satisfaction;
    out.metrics["provider_satisfaction"] = reference.provider_satisfaction;
    out.metrics["fully_served_share"] = reference.fully_served_share;
  } else {
    sbqa::core::ScoreKernelPhases phases;
    for (const ReplayRound& r : traced) phases.Accumulate(r.phases);
    AddPhases(phases, &out);
    const ReplayRound& r = traced.back();
    AddEngineCounters(r.stats, r.shards, &out);
    out.metrics["engine.submit_ns"] =
        median_of(traced, &ReplayRound::submit_ns);
    out.metrics["runtime.barriers_per_s"] =
        static_cast<double>(r.stats.shard_barriers) / r.replay_s;
    const double decision_ns =
        phases.decisions > 0
            ? phases.total_ns() / static_cast<double>(phases.decisions)
            : 0;
    const double finalized =
        static_cast<double>(std::max<int64_t>(r.stats.queries_finalized, 1));
    out.metrics["runtime.residual_us"] =
        (r.replay_s / finalized * 1e9 - r.submit_ns - decision_ns) * 1e-3;
    out.metrics["setup.population_s"] =
        median_of(traced, &ReplayRound::population_s);
    out.metrics["setup.start_s"] = median_of(traced, &ReplayRound::start_s);
    const double plain_qps = median_of(timed, &ReplayRound::qps);
    out.metrics["trace.overhead_pct"] =
        (plain_qps - median_of(traced, &ReplayRound::qps)) / plain_qps * 100.0;
  }
  out.metrics["peak_rss_mb"] = PeakRssMb();
  return out;
}

// --- sim-paper ---------------------------------------------------------------

constexpr size_t kPaperVolunteers = 20000;
constexpr double kPaperDuration = 300;

experiments::ScenarioConfig SimPaperConfig(uint64_t seed, size_t volunteers,
                                           double duration) {
  // Scenario 3 at the demo's 200 volunteers, scaled: BaseDemoConfig grows
  // the per-project arrival rate with the population.
  return experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(seed, volunteers, duration));
}

WorkloadResult RunSimPaper(const RunOptions& options) {
  SimWorkload workload;
  workload.make_config = [&options] {
    return SimPaperConfig(options.seed, kPaperVolunteers, kPaperDuration);
  };
  workload.memory_k = SimPaperConfig(1, 1, 1).population.consumer_memory_k;
  return RunSimWorkload(options, workload);
}

// --- sim-sharded-faults ------------------------------------------------------

constexpr uint32_t kFaultShards = 4;
/// The donor block sits two ring hops from the scarce consumer's shard.
constexpr uint32_t kDonorShard = 1;
constexpr size_t kFaultVolunteers = 8000;
constexpr double kFaultDuration = 300;
/// Scarce-class arrival rate relative to one demo project's.
constexpr double kScarceShare = 0.1;
constexpr size_t kFaultConsumerMemory = 1000;
constexpr double kFaultDeadline = 15;
constexpr double kFaultRetryBackoff = 1;

ShardedFaultsScenario ShardedFaultsConfig(uint64_t seed, size_t volunteers,
                                          double duration, bool threaded,
                                          double load) {
  ShardedFaultsScenario scenario;
  experiments::ScenarioConfig& config = scenario.config;
  config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(seed, volunteers, duration));
  // Each project's consumer lives on one shard, so a quarter of the
  // providers carries a third of the demo's load; churn takes a sixth of
  // them offline. Scaled down, the busiest shard stays clear of
  // saturation, which otherwise tips some seeds into a timeout cascade.
  for (sbqa::boinc::ProjectSpec& project : config.population.projects) {
    project.arrival_rate *= load;
  }
  // One scarce project: its consumer id (and so its query class) is the
  // project count, and it hashes to shard id % kFaultShards.
  sbqa::boinc::ProjectSpec scarce = config.population.projects[1];
  scarce.name = "scarce";
  scarce.arrival_rate *= kScarceShare;
  scenario.scarce_class =
      static_cast<model::QueryClassId>(config.population.projects.size());
  config.population.projects.push_back(scarce);

  // The faults make per-query satisfaction bimodal (a timed-out query
  // keeps only its partial results), so Definition 1 remembers more than
  // the demo's 50 queries (0.4 s of a project's traffic here).
  config.population.consumer_memory_k = kFaultConsumerMemory;

  config.sim.shard_count = kFaultShards;
  config.sim.shard_use_threads = threaded;
  // Churn but no runtime joins: joiners are drawn from the population
  // spec, may serve the scarce class, and one or two of them on the scarce
  // consumer's shard keep that class from borrowing (README, faults).
  config.churn.enabled = true;
  sbqa::rt::FaultProfileByName("drops", &config.fault_plan);
  config.fault_plan.seed = sbqa::util::Rng::StreamSeed(seed, 0xFA);
  config.mediator.max_retries = 2;
  config.mediator.failure_threshold = 3;
  // Attempts time out a second inside the deadline, and the first retry
  // backoff is that second: a timed-out attempt still ends its query, as
  // it would at the deadline, but clear of the drain horizon, where the
  // runner loses borrowed outcomes (RunDrainHorizonProbe).
  config.mediator.query_timeout = kFaultDeadline - kFaultRetryBackoff;
  config.mediator.retry_backoff_base = kFaultRetryBackoff;
  config.query_deadline = kFaultDeadline;
  config.federation.enabled = true;
  config.federation.topology = sbqa::federation::TopologyKind::kRing;
  config.federation.hop_budget = 2;

  scenario.restricted = std::make_shared<std::vector<bool>>();
  const model::QueryClassId scarce_class = scenario.scarce_class;
  std::shared_ptr<std::vector<bool>> restricted = scenario.restricted;
  config.population_hook = [restricted, scarce_class](
                               sbqa::core::Registry* registry,
                               const sbqa::boinc::BuiltPopulation& population,
                               sbqa::util::Rng*) {
    // The initial population is partitioned in contiguous blocks; every
    // block but the donor's loses the scarce class.
    std::unordered_set<model::QueryClassId> common;
    for (model::QueryClassId c = 0; c < scarce_class; ++c) common.insert(c);
    const size_t count = population.volunteers.size();
    const size_t block = (count + kFaultShards - 1) / kFaultShards;
    restricted->assign(registry->provider_count(), false);
    for (size_t i = 0; i < count; ++i) {
      if (i / block == kDonorShard) continue;
      const model::ProviderId p = population.volunteers[i];
      registry->provider(p).RestrictClasses(common);
      (*restricted)[static_cast<size_t>(p)] = true;
    }
  };
  return scenario;
}

RetryGateProbe RunRetryGateProbe() {
  EngineOptions options;
  options.mode = sbqa::EngineMode::kSimulated;
  options.seed = 7;
  options.max_retries = 2;
  options.default_deadline = 15;
  options.fault_plan.seed = 11;
  options.fault_plan.drop_send_prob = 0.5;
  Engine engine(std::move(options));
  std::vector<model::ProviderId> providers;
  for (int i = 0; i < 16; ++i) {
    sbqa::ProviderOptions provider;
    provider.capacity = 1.0;
    providers.push_back(engine.AddProvider(provider));
  }
  sbqa::ConsumerOptions consumer_options;
  consumer_options.n_results = 2;
  const model::ConsumerId consumer = engine.AddConsumer(consumer_options);
  for (model::ProviderId p : providers) {
    engine.SetConsumerPreference(consumer, p, 0.5);
    engine.SetProviderPreference(p, consumer, 0.5);
  }
  engine.Start();
  RetryGateProbe probe;
  for (int i = 0; i < 64; ++i) {
    QueryRequest request;
    request.consumer = consumer;
    request.n_results = 2;
    request.cost = 1.0;
    engine.Submit(request, [&probe](const QueryResult& result) {
      ++probe.queries;
      if (result.results_received < result.results_required) {
        ++probe.incomplete;
      }
      if (result.timed_out && result.results_received > 0 &&
          result.results_received < result.results_required &&
          result.attempts == 1) {
        ++probe.partial_timeouts;
      }
    });
    engine.RunFor(1.0);
  }
  engine.WaitIdle(100.0);
  return probe;
}

WorkloadResult RunSimShardedFaults(const RunOptions& options) {
  const ShardedFaultsScenario scenario =
      ShardedFaultsConfig(options.seed, kFaultVolunteers, kFaultDuration,
                          /*threaded=*/false);
  SimWorkload workload;
  workload.make_config = [&scenario] { return scenario.config; };
  workload.memory_k = scenario.config.population.consumer_memory_k;
  workload.scarce_class = scenario.scarce_class;
  workload.restricted = scenario.restricted.get();
  // How many of the scenario's queries time out depends on the seed, so
  // they are reported by fully_served_share and core.timed_out instead.
  // The operations are the retry-gate probe's queries: fixed inputs on
  // which the named fault fails the same queries in every round.
  workload.queries_are_operations = false;
  workload.probe = RunRetryGateProbe;
  WorkloadResult out = RunSimWorkload(options, workload);
  const RetryGateProbe probe = RunRetryGateProbe();
  out.notes.push_back(Note(
      "retry-gate probe (the operations of this workload): %" PRId64
      " of %" PRId64 " replicated queries ended without all their results, "
      "%" PRId64 " of them after losing one replica and waiting out their "
      "deadline without re-mediation",
      probe.incomplete, probe.queries, probe.partial_timeouts));
  return out;
}

double CalibrationSeconds() {
  // Fixed single-thread work: a xorshift chain feeding a dependent
  // floating-point sum, 100M steps.
  const double t0 = Now();
  uint64_t x = 88172645463325252ull;
  double sum = 0;
  for (int i = 0; i < 100000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += static_cast<double>(x & 0xFFFF) * 1e-6;
  }
  const double elapsed = Now() - t0;
  // Keep the loop: its result decides a branch the compiler cannot see.
  if (sum < 0) std::printf("%f\n", sum);
  return elapsed;
}

// --- Fault reproductions -----------------------------------------------------

void RunOverloadProbe(uint64_t seed, double rate, double seconds) {
  ServeEngine serve = BuildServeEngine(seed, /*traced=*/false,
                                       kOverloadMaxPending, /*replay=*/false);
  const OpenLoopResult open =
      RunOpenLoop(serve.engine.get(), seed, rate, seconds);
  serve.engine->Stop();
  int64_t shed = 0;
  for (size_t s = 0; s < open.completed_per_s.size() && s < seconds + 2;
       ++s) {
    std::printf("second %2zu: completed %8" PRId64 "  shed %8" PRId64 "\n", s,
                open.completed_per_s[s], open.shed_per_s[s]);
    shed += open.shed_per_s[s];
  }
  std::printf(
      "%u shard(s), %.0f q/s offered, max_pending %" PRId64
      ": %" PRId64 " submitted, %.1f%% shed, %" PRId64
      " never delivered, p50 %.4f ms, p99 %.4f ms\n",
      kServeShards, rate, kOverloadMaxPending, open.submitted,
      100.0 * static_cast<double>(shed) / static_cast<double>(open.submitted),
      open.lost, Quantile(open.due_latency, 0.5) * 1e3,
      Quantile(open.due_latency, 0.99) * 1e3);
}

bool RunDrainHorizonProbe(uint64_t seed) {
  // The demo's full arrival rate, and attempts as long as the deadline: a
  // borrowed query issued in the last barrier windows times out at the
  // drain horizon itself.
  ShardedFaultsScenario scenario = ShardedFaultsConfig(
      seed, kFaultVolunteers, kFaultDuration, false, /*load=*/1.0);
  scenario.config.mediator.query_timeout = kFaultDeadline;
  const sbqa::metrics::RunSummary s =
      experiments::RunScenario(scenario.config).summary;
  std::printf("issued %" PRId64 ", finalized %" PRId64 ", timed out %" PRId64
              ", terminal taxonomy %" PRId64 "\n",
              s.queries_submitted, s.queries_finalized, s.queries_timed_out,
              s.queries_satisfied + s.queries_recovered + s.queries_failed +
                  s.queries_unallocated + s.queries_timed_out);
  return s.queries_finalized != s.queries_submitted;
}

void RunThreadedSimProbe(uint64_t seed) {
  for (const bool threaded : {false, true}) {
    const ShardedFaultsScenario scenario =
        ShardedFaultsConfig(seed, kFaultVolunteers, kFaultDuration, threaded);
    const double t0 = Now();
    const experiments::RunResult result =
        experiments::RunScenario(scenario.config);
    std::printf("%-8s %.3f s wall, %" PRId64 " queries, fingerprint %s\n",
                threaded ? "threaded" : "serial", Now() - t0,
                result.summary.queries_finalized,
                SummaryFingerprint(result.summary).c_str());
  }
}

}  // namespace perfbench
