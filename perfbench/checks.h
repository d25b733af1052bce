#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

/// \file
/// Output checks of the benchmark, computed apart from the library: every
/// formula here is re-derived from the paper's definitions (Equation 1,
/// Definitions 1 and 3) or from the engine's documented accounting, never
/// read back from the code under test. Each check is a pure function that
/// returns an empty string when the output is correct and a description of
/// the violation otherwise, so the self-test can feed it corrupted outputs.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/allocation_method.h"
#include "core/mediation.h"
#include "metrics/summary.h"
#include "model/query.h"
#include "model/types.h"

namespace perfbench {

namespace model = sbqa::model;

/// Collects check failures; a run is correct when none was recorded.
class CheckLog {
 public:
  /// Records `violation` unless it is empty. Keeps the first few messages.
  void Expect(const std::string& violation);
  bool ok() const { return failures_ == 0; }
  int64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Equation 1: (1/n) * sum over performers of (CI + 1) / 2, intentions
/// clamped to [-1, 1]; more performers than n average over the performers.
double Equation1(const std::vector<double>& performer_intentions, int n);

/// Definition 1: the mean of the last `k` per-query satisfactions of one
/// consumer (`history` in completion order); 0 without any.
double Definition1(const std::vector<double>& history, size_t k);

/// selected is a subset of consulted, has no duplicates and holds at most
/// q.n providers; the intention vectors are parallel to consulted.
std::string CheckDecisionStructure(const model::Query& query,
                                   const sbqa::core::AllocationDecision& d);

/// Definition 3 ordering, valid for any omega (including Equation 2's
/// per-pair omega). In either branch the score is monotone in a weighted
/// geometric mean of the two intentions, so it lies between the scores of
/// min(PI, CI) and max(PI, CI) taken alone. A consulted provider whose
/// smaller intention exceeds both intentions of a selected provider
/// therefore outscores it whatever the omegas are, and must have been
/// selected unless it is `excluded` (it already failed this query in an
/// earlier attempt). `margin` absorbs the batched kernel's last-ulp
/// rounding.
std::string CheckDefinition3Order(
    const sbqa::core::AllocationDecision& d,
    const std::vector<model::ProviderId>& excluded, double margin = 1e-9);

/// Equation 1 recomputed from the consumer intentions recorded at
/// mediation against the satisfaction the library reported.
std::string CheckEquation1(const std::vector<double>& performer_intentions,
                           int n, double reported);

/// Definition 1 recomputed from a consumer's per-query history against the
/// end-of-run snapshot.
std::string CheckDefinition1(model::ConsumerId consumer,
                             const std::vector<double>& history, size_t k,
                             double reported);

/// Every performer of a scarce-class query is a provider the benchmark did
/// not restrict away from that class.
std::string CheckScarcePerformers(const sbqa::core::QueryOutcome& outcome,
                                  model::QueryClassId scarce_class,
                                  const std::vector<bool>& restricted);

/// Terminal taxonomy sums to finalized, finalized equals issued, every
/// delegation was borrowed, and the observer saw every finalization.
std::string CheckAccounting(const sbqa::metrics::RunSummary& summary,
                            int64_t observed_completions);

/// One served outcome: delivered once, not shed, at least one result,
/// and no faster than the fastest provider could have served it.
std::string CheckServeOutcome(int callbacks, bool shed, int results_received,
                              double engine_latency_s, double wall_latency_s,
                              double min_service_s);

/// Streams mediation events through the checks above while a simulation
/// runs, keeping only in-flight queries. Attach through
/// ScenarioConfig::observers (sharded runs replay events in a fixed order
/// through the collector, so one instance sees every shard).
class CheckingObserver final : public sbqa::core::MediationObserver {
 public:
  /// `(*restricted)[p]` marks providers the benchmark restricted away
  /// from `scarce_class` (null: no scarce class); it may be filled while
  /// the run builds its population. `memory_k` is the consumers'
  /// Definition-1 window.
  CheckingObserver(CheckLog* log, size_t memory_k,
                   model::QueryClassId scarce_class = -1,
                   const std::vector<bool>* restricted = nullptr);

  void OnMediation(const model::Query& query,
                   const sbqa::core::AllocationDecision& decision,
                   double now) override;
  void OnQueryCompleted(const sbqa::core::QueryOutcome& outcome) override;

  /// End-of-run checks against the run's aggregates and snapshots.
  void Finish(const sbqa::metrics::RunSummary& summary,
              const std::vector<double>& consumer_satisfaction);

  int64_t completions() const { return completions_; }
  int64_t mediations() const { return mediations_; }

 private:
  struct InFlight {
    /// Every provider selected in any attempt, with the CI it was scored
    /// with; later attempts never reselect a provider (retry exclusion).
    std::vector<model::ProviderId> selected;
    std::vector<double> selected_ci;
  };

  CheckLog* log_;
  size_t memory_k_;
  model::QueryClassId scarce_class_;
  const std::vector<bool>* restricted_;
  std::unordered_map<model::QueryId, InFlight> inflight_;
  std::vector<std::vector<double>> history_;  ///< per consumer, last k
  int64_t completions_ = 0;
  int64_t mediations_ = 0;
  std::vector<double> scratch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
