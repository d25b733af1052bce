// Self-test of the benchmark: every output check must reject a corrupted
// output, simulations and the serving replay must be bit-identical when
// run twice on one seed, and sim-sharded-faults must give the same results
// serial and threaded.
// Runs at short lengths; prints one line per test and exits non-zero on
// any failure.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "experiments/runner.h"
#include "workloads.h"

namespace {

using perfbench::CheckLog;
using sbqa::core::AllocationDecision;
using sbqa::core::QueryOutcome;
namespace model = sbqa::model;

int failures = 0;

void Expect(bool condition, const char* test) {
  std::printf("%s  %s\n", condition ? "PASS" : "FAIL", test);
  if (!condition) ++failures;
}

bool Fires(const std::string& violation) { return !violation.empty(); }

AllocationDecision Decision() {
  AllocationDecision d;
  d.consulted = {10, 11, 12, 13};
  d.provider_intentions = {0.9, 0.4, 0.2, -0.5};
  d.consumer_intentions = {0.8, 0.5, 0.1, 0.3};
  d.selected = {10, 11};
  return d;
}

model::Query Query(int n) {
  model::Query q;
  q.id = 7;
  q.n_results = n;
  return q;
}

void TestPureChecks() {
  const AllocationDecision good = Decision();
  Expect(!Fires(perfbench::CheckDecisionStructure(Query(2), good)),
         "structure: a well-formed decision passes");
  AllocationDecision bad = good;
  bad.selected = {10, 99};
  Expect(Fires(perfbench::CheckDecisionStructure(Query(2), bad)),
         "structure: a selected provider outside consulted is rejected");
  Expect(Fires(perfbench::CheckDecisionStructure(Query(1), good)),
         "structure: more than n selected is rejected");
  bad = good;
  bad.selected = {10, 10};
  Expect(Fires(perfbench::CheckDecisionStructure(Query(2), bad)),
         "structure: a provider selected twice is rejected");

  Expect(!Fires(perfbench::CheckDefinition3Order(good, {})),
         "Definition 3: the best-ranked pair passes");
  bad = good;
  bad.selected = {10, 12};  // 12 (max 0.2) is outranked by 11 (min 0.4)
  Expect(Fires(perfbench::CheckDefinition3Order(bad, {})),
         "Definition 3: a provider beaten on both intentions is rejected");
  Expect(!Fires(perfbench::CheckDefinition3Order(bad, {11})),
         "Definition 3: a dominating provider that already failed is exempt");

  Expect(!Fires(perfbench::CheckEquation1({0.5, 1.0}, 2, 0.875)),
         "Equation 1: (0.75 + 1) / 2 passes");
  Expect(Fires(perfbench::CheckEquation1({0.5, 1.0}, 2, 0.88)),
         "Equation 1: a perturbed satisfaction is rejected");
  Expect(Fires(perfbench::CheckEquation1({0.5}, 2, 0.75)),
         "Equation 1: dividing by results received instead of n is rejected");

  std::vector<double> history;
  for (int i = 0; i < 60; ++i) history.push_back(i < 10 ? 0.0 : 1.0);
  Expect(!Fires(perfbench::CheckDefinition1(0, history, 50, 1.0)),
         "Definition 1: the mean of the last k passes");
  Expect(Fires(perfbench::CheckDefinition1(0, history, 50, 50.0 / 60.0)),
         "Definition 1: a mean over more than k queries is rejected");

  QueryOutcome outcome;
  outcome.query.query_class = 3;
  outcome.performers = {1, 4};
  const std::vector<bool> restricted = {false, false, false, false, true};
  Expect(Fires(perfbench::CheckScarcePerformers(outcome, 3, restricted)),
         "scarce class: a restricted performer is rejected");
  outcome.performers = {1, 2};
  Expect(!Fires(perfbench::CheckScarcePerformers(outcome, 3, restricted)),
         "scarce class: donor-block performers pass");

  sbqa::metrics::RunSummary s;
  s.queries_submitted = s.queries_finalized = 100;
  s.queries_satisfied = 90;
  s.queries_recovered = 4;
  s.queries_failed = 1;
  s.queries_unallocated = 2;
  s.queries_timed_out = 3;
  s.queries_delegated = s.queries_borrowed = 5;
  Expect(!Fires(perfbench::CheckAccounting(s, 100)),
         "accounting: a consistent summary passes");
  sbqa::metrics::RunSummary t = s;
  t.queries_timed_out = 4;
  Expect(Fires(perfbench::CheckAccounting(t, 100)),
         "accounting: a taxonomy that does not sum is rejected");
  t = s;
  t.queries_submitted = 101;
  Expect(Fires(perfbench::CheckAccounting(t, 100)),
         "accounting: an issued query never finalized is rejected");
  t = s;
  t.queries_borrowed = 4;
  Expect(Fires(perfbench::CheckAccounting(t, 100)),
         "accounting: delegated != borrowed is rejected");
  Expect(Fires(perfbench::CheckAccounting(s, 99)),
         "accounting: a finalization the observer missed is rejected");

  Expect(!Fires(perfbench::CheckServeOutcome(1, false, 2, 1e-4, 1e-4, 5e-7)),
         "serve: one timely callback with results passes");
  Expect(Fires(perfbench::CheckServeOutcome(2, false, 2, 1e-4, 1e-4, 5e-7)),
         "serve: a second callback is rejected");
  Expect(Fires(perfbench::CheckServeOutcome(1, true, 0, 0, 1e-4, 5e-7)),
         "serve: a shed query is rejected");
  Expect(Fires(perfbench::CheckServeOutcome(1, false, 0, 1e-4, 1e-4, 5e-7)),
         "serve: a query without results is rejected");
  Expect(Fires(perfbench::CheckServeOutcome(1, false, 2, 1e-7, 1e-4, 5e-7)),
         "serve: a latency below the service floor is rejected");
  // serve-replay's floor is its query cost at the largest capacity, 5 ms.
  const double floor = perfbench::kReplayServiceFloor;
  Expect(floor == 0.005 &&
             !Fires(perfbench::CheckServeOutcome(1, false, 2, 0.0051, 0.0051,
                                                 floor)),
         "serve-replay: an outcome after 5.1 ms passes its 5 ms floor");
  Expect(Fires(perfbench::CheckServeOutcome(1, false, 2, 0.0049, 0.0049,
                                            floor)),
         "serve-replay: an outcome finishing under 5 ms is rejected");
}

/// Forwards events to the checking observer after `corrupt` altered one
/// of them: the streaming checks must notice on a real event stream.
class Corrupting final : public sbqa::core::MediationObserver {
 public:
  Corrupting(sbqa::core::MediationObserver* inner,
             std::function<void(AllocationDecision*)> on_decision,
             std::function<void(QueryOutcome*)> on_outcome)
      : inner_(inner),
        on_decision_(std::move(on_decision)),
        on_outcome_(std::move(on_outcome)) {}
  void OnMediation(const model::Query& query,
                   const AllocationDecision& decision, double now) override {
    AllocationDecision copy = decision;
    if (++mediations_ == 1000 && on_decision_) on_decision_(&copy);
    inner_->OnMediation(query, copy, now);
  }
  void OnQueryCompleted(const QueryOutcome& outcome) override {
    QueryOutcome copy = outcome;
    if (++completions_ == 1000 && on_outcome_) on_outcome_(&copy);
    inner_->OnQueryCompleted(copy);
  }

 private:
  sbqa::core::MediationObserver* inner_;
  std::function<void(AllocationDecision*)> on_decision_;
  std::function<void(QueryOutcome*)> on_outcome_;
  int mediations_ = 0;
  int completions_ = 0;
};

/// Runs a short sim-paper with the checking observer behind `corrupting`
/// hooks; returns whether the checks passed.
bool CheckedPaperRun(std::function<void(AllocationDecision*)> on_decision,
                     std::function<void(QueryOutcome*)> on_outcome,
                     std::function<void(std::vector<double>*)> on_snapshot =
                         nullptr) {
  sbqa::experiments::ScenarioConfig config =
      perfbench::SimPaperConfig(3, 2000, 60);
  CheckLog log;
  perfbench::CheckingObserver checker(&log,
                                      config.population.consumer_memory_k);
  Corrupting corrupting(&checker, std::move(on_decision),
                        std::move(on_outcome));
  config.observers.push_back(&corrupting);
  const sbqa::experiments::RunResult result =
      sbqa::experiments::RunScenario(config);
  std::vector<double> satisfaction;
  for (const auto& c : result.consumers) satisfaction.push_back(c.satisfaction);
  if (on_snapshot) on_snapshot(&satisfaction);
  checker.Finish(result.summary, satisfaction);
  for (const std::string& m : log.messages()) {
    std::printf("      %s\n", m.c_str());
  }
  return log.ok();
}

void TestStreamingChecks() {
  Expect(CheckedPaperRun(nullptr, nullptr),
         "stream: an unaltered sim-paper run passes every check");
  Expect(!CheckedPaperRun(
             [](AllocationDecision* d) {
               // Swap the best-ranked selection for the worst consulted.
               d->selected.assign(1, d->consulted.back());
               d->provider_intentions.back() = -1;
               d->consumer_intentions.back() = -1;
               d->provider_intentions.front() = 1;
               d->consumer_intentions.front() = 1;
             },
             nullptr),
         "stream: a mis-ranked selection is rejected");
  Expect(!CheckedPaperRun(nullptr,
                          [](QueryOutcome* o) { o->satisfaction += 0.01; }),
         "stream: a wrong Equation-1 satisfaction is rejected");
  Expect(!CheckedPaperRun(nullptr,
                          [](QueryOutcome* o) {
                            o->performers.push_back(999999);
                          }),
         "stream: a performer that was never selected is rejected");
  Expect(!CheckedPaperRun(nullptr, nullptr,
                          [](std::vector<double>* s) { (*s)[0] += 1e-3; }),
         "stream: a wrong Definition-1 snapshot is rejected");
}

void TestReproducibility() {
  const sbqa::experiments::ScenarioConfig paper =
      perfbench::SimPaperConfig(5, 2000, 60);
  const auto fingerprint = [&paper] {
    return perfbench::SummaryFingerprint(
        sbqa::experiments::RunScenario(paper).summary);
  };
  const std::string a = fingerprint();
  const std::string b = fingerprint();
  Expect(a == b, "sim-paper is bit-identical when run twice on one seed");

  const auto serial = perfbench::ShardedFaultsConfig(5, 2000, 60, false);
  const auto threaded = perfbench::ShardedFaultsConfig(5, 2000, 60, true);
  const sbqa::experiments::RunResult r1 =
      sbqa::experiments::RunScenario(serial.config);
  const sbqa::experiments::RunResult r2 =
      sbqa::experiments::RunScenario(serial.config);
  const sbqa::experiments::RunResult r3 =
      sbqa::experiments::RunScenario(threaded.config);
  const std::string f1 = perfbench::SummaryFingerprint(r1.summary);
  Expect(f1 == perfbench::SummaryFingerprint(r2.summary),
         "sim-sharded-faults is bit-identical when run twice on one seed");
  Expect(f1 == perfbench::SummaryFingerprint(r3.summary),
         "sim-sharded-faults gives the same results serial and threaded");
  Expect(r1.summary.queries_forwarded > 0 && r1.summary.fault_sends_dropped > 0,
         "sim-sharded-faults exercises chains and dispatch drops");
}

void TestServeReplay() {
  perfbench::RunOptions options;
  options.seed = 5;
  options.seconds = 0;  // the minimum number of rounds
  const perfbench::WorkloadResult result = perfbench::RunServeReplay(options);
  for (const std::string& note : result.notes) {
    if (note.rfind("CHECK", 0) == 0) std::printf("      %s\n", note.c_str());
  }
  Expect(result.correct && result.failed == 0,
         "serve-replay passes its checks and reproduces round 0 bit for bit");
}

void TestRetryGateProbe() {
  const perfbench::RetryGateProbe a = perfbench::RunRetryGateProbe();
  const perfbench::RetryGateProbe b = perfbench::RunRetryGateProbe();
  Expect(a.queries == 64,
         "retry-gate probe delivers an outcome for each of its queries");
  Expect(a.incomplete == b.incomplete && a.incomplete >= a.partial_timeouts,
         "retry-gate probe fails the same queries every time");
}

}  // namespace

int main() {
  TestPureChecks();
  TestStreamingChecks();
  TestReproducibility();
  TestServeReplay();
  TestRetryGateProbe();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
