// The SbQA benchmark: runs one workload and prints every metric by name
// and unit, then one JSON line with the operations attempted and failed,
// whether the output checks passed, and the metrics.
//
//   sbqa_perfbench --workload serve-replay|sim-paper|sim-sharded-faults
//                  --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and the tracing overhead. Fault reproductions (see README.md):
//
//   sbqa_perfbench --probe retry-gate
//   sbqa_perfbench --probe overload [--rate 200000] [--seconds 3]
//   sbqa_perfbench --probe threaded-sim [--seed N]
//   sbqa_perfbench --probe drain-horizon [--seed 16]
//   sbqa_perfbench --probe calibrate

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric. A layer a workload does not cross
// reads 0 (see README.md, "Per-layer metrics").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"qps", "q/s"},
    {"response_p50_ms", "ms"},
    {"response_p99_ms", "ms"},
    {"consumer_satisfaction", "score"},
    {"provider_satisfaction", "score"},
    {"fully_served_share", "share"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.submit_ns", "ns"},
    {"engine.shed", "count"},
    {"core.sample_ns", "ns"},
    {"core.gather_ns", "ns"},
    {"core.intentions_ns", "ns"},
    {"core.score_ns", "ns"},
    {"core.rank_ns", "ns"},
    {"runtime.tasks_per_query", "tasks/q"},
    {"runtime.barriers_per_s", "1/s"},
    {"runtime.residual_us", "us"},
    {"sim.messages_per_query", "msg/q"},
    {"sim.residual_ns_per_query", "ns"},
    {"sim.membership_apply_s", "s"},
    {"sim.membership_ops", "count"},
    {"core.retries_per_query", "retries/q"},
    {"core.timed_out", "count"},
    {"core.instances_useful_ratio", "ratio"},
    {"federation.delegated", "count"},
    {"federation.forwarded", "count"},
    {"federation.mean_hops", "hops"},
    {"setup.population_s", "s"},
    {"setup.start_s", "s"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: sbqa_perfbench --workload serve-replay|sim-paper|"
               "sim-sharded-faults --seed N --seconds S "
               "--trace 0|1\n"
               "       sbqa_perfbench --probe retry-gate|overload|"
               "threaded-sim|drain-horizon|calibrate [--seed N] [--rate R] "
               "[--seconds S]\n");
  return 2;
}

int RunProbe(const std::string& probe, uint64_t seed, double rate,
             double seconds) {
  if (probe == "retry-gate") {
    const perfbench::RetryGateProbe r = perfbench::RunRetryGateProbe();
    std::printf("%" PRId64 " of %" PRId64
                " replicated queries lost one replica to a dropped dispatch "
                "and waited out their 15 s deadline with attempts == 1 and "
                "retry budget left\n",
                r.partial_timeouts, r.queries);
    return r.partial_timeouts > 0 ? 1 : 0;
  }
  if (probe == "overload") {
    perfbench::RunOverloadProbe(seed, rate, seconds);
    return 0;
  }
  if (probe == "calibrate") {
    std::printf("calibration loop: %.4f s on %u hardware threads\n",
                perfbench::CalibrationSeconds(),
                std::thread::hardware_concurrency());
    return 0;
  }
  if (probe == "drain-horizon") {
    return perfbench::RunDrainHorizonProbe(seed) ? 1 : 0;
  }
  if (probe == "threaded-sim") {
    perfbench::RunThreadedSimProbe(seed);
    return 0;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, probe;
  perfbench::RunOptions options;
  double rate = 200000;
  bool seconds_given = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--probe") {
      probe = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      seconds_given = true;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--rate") {
      rate = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  if (!probe.empty()) {
    return RunProbe(probe, options.seed, rate,
                    seconds_given ? options.seconds : 3.0);
  }
  if (options.seconds <= 0) return Usage();

  const double calibration = perfbench::CalibrationSeconds();
  perfbench::WorkloadResult result;
  if (workload == "serve-replay") {
    result = perfbench::RunServeReplay(options);
  } else if (workload == "sim-paper") {
    result = perfbench::RunSimPaper(options);
  } else if (workload == "sim-sharded-faults") {
    result = perfbench::RunSimShardedFaults(options);
  } else {
    return Usage();
  }

  std::printf("# workload %s, seed %" PRIu64 ", %.0f s, %s; host: %u "
              "hardware threads, calibration loop %.4f s\n",
              workload.c_str(), options.seed, options.seconds,
              options.trace ? "traced" : "untraced",
              std::thread::hardware_concurrency(), calibration);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    const double value = it != result.metrics.end() ? it->second : 0.0;
    std::printf("%-30s %20.6f %s\n", spec.name, value, spec.unit);
    char entry[160];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, value, spec.unit);
    json += entry;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, json.c_str());
  return 0;
}
