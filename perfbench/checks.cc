#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string Format(const char* format, double a, double b = 0, double c = 0,
                   double d = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, format, a, b, c, d);
  return buffer;
}

bool Contains(const std::vector<model::ProviderId>& ids,
              model::ProviderId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

double Clamp(double intention) {
  return std::min(1.0, std::max(-1.0, intention));
}

}  // namespace

void CheckLog::Expect(const std::string& violation) {
  if (violation.empty()) return;
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(violation);
}

double Equation1(const std::vector<double>& performer_intentions, int n) {
  double sum = 0;
  for (double ci : performer_intentions) sum += (Clamp(ci) + 1.0) / 2.0;
  const size_t divisor = std::max(static_cast<size_t>(std::max(n, 1)),
                                  performer_intentions.size());
  return sum / static_cast<double>(divisor);
}

double Definition1(const std::vector<double>& history, size_t k) {
  const size_t count = std::min(history.size(), k);
  if (count == 0) return 0;
  double sum = 0;
  for (size_t i = history.size() - count; i < history.size(); ++i) {
    sum += history[i];
  }
  return sum / static_cast<double>(count);
}

std::string CheckDecisionStructure(const model::Query& query,
                                   const sbqa::core::AllocationDecision& d) {
  if (d.selected.size() > static_cast<size_t>(std::max(query.n_results, 0))) {
    return Format("query %.0f: %.0f providers selected for n = %.0f",
                  static_cast<double>(query.id),
                  static_cast<double>(d.selected.size()), query.n_results);
  }
  if (d.provider_intentions.size() != d.consulted.size() ||
      d.consumer_intentions.size() != d.consulted.size()) {
    return Format("query %.0f: intention vectors do not match consulted",
                  static_cast<double>(query.id));
  }
  for (size_t i = 0; i < d.selected.size(); ++i) {
    if (!Contains(d.consulted, d.selected[i])) {
      return Format("query %.0f: selected provider %.0f was not consulted",
                    static_cast<double>(query.id), d.selected[i]);
    }
    for (size_t j = i + 1; j < d.selected.size(); ++j) {
      if (d.selected[i] == d.selected[j]) {
        return Format("query %.0f: provider %.0f selected twice",
                      static_cast<double>(query.id), d.selected[i]);
      }
    }
  }
  return {};
}

std::string CheckDefinition3Order(
    const sbqa::core::AllocationDecision& d,
    const std::vector<model::ProviderId>& excluded, double margin) {
  if (d.selected.empty()) return {};
  // The weakest selected provider's best intention: any unselected
  // provider whose worst intention beats it outranks a selected one.
  double weakest_selected_max = 2.0;
  for (model::ProviderId p : d.selected) {
    const size_t i = static_cast<size_t>(
        std::find(d.consulted.begin(), d.consulted.end(), p) -
        d.consulted.begin());
    if (i >= d.consulted.size()) continue;  // structure check reports it
    weakest_selected_max =
        std::min(weakest_selected_max,
                 std::max(d.provider_intentions[i], d.consumer_intentions[i]));
  }
  for (size_t i = 0; i < d.consulted.size(); ++i) {
    const model::ProviderId p = d.consulted[i];
    if (Contains(d.selected, p) || Contains(excluded, p)) continue;
    const double worst =
        std::min(d.provider_intentions[i], d.consumer_intentions[i]);
    if (worst > weakest_selected_max + margin) {
      return Format(
          "Definition 3: unselected provider %.0f (min intention %.6f) "
          "outranks a selected provider (max intention %.6f)",
          p, worst, weakest_selected_max);
    }
  }
  return {};
}

std::string CheckEquation1(const std::vector<double>& performer_intentions,
                           int n, double reported) {
  const double expected = Equation1(performer_intentions, n);
  if (std::fabs(expected - reported) > 1e-9) {
    return Format("Equation 1: recomputed %.12f, reported %.12f", expected,
                  reported);
  }
  return {};
}

std::string CheckDefinition1(model::ConsumerId consumer,
                             const std::vector<double>& history, size_t k,
                             double reported) {
  const double expected = Definition1(history, k);
  if (std::fabs(expected - reported) > 1e-9) {
    return Format("Definition 1: consumer %.0f recomputed %.12f, snapshot "
                  "%.12f",
                  consumer, expected, reported);
  }
  return {};
}

std::string CheckScarcePerformers(const sbqa::core::QueryOutcome& outcome,
                                  model::QueryClassId scarce_class,
                                  const std::vector<bool>& restricted) {
  if (outcome.query.query_class != scarce_class) return {};
  for (model::ProviderId p : outcome.performers) {
    if (static_cast<size_t>(p) < restricted.size() &&
        restricted[static_cast<size_t>(p)]) {
      return Format("scarce query %.0f performed by restricted provider %.0f",
                    static_cast<double>(outcome.query.id), p);
    }
  }
  return {};
}

std::string CheckAccounting(const sbqa::metrics::RunSummary& s,
                            int64_t observed_completions) {
  const int64_t terminal = s.queries_satisfied + s.queries_recovered +
                           s.queries_failed + s.queries_unallocated +
                           s.queries_timed_out;
  if (terminal != s.queries_finalized) {
    return Format("taxonomy sums to %.0f, finalized %.0f",
                  static_cast<double>(terminal),
                  static_cast<double>(s.queries_finalized));
  }
  if (s.queries_finalized != s.queries_submitted) {
    return Format("finalized %.0f of %.0f issued queries",
                  static_cast<double>(s.queries_finalized),
                  static_cast<double>(s.queries_submitted));
  }
  if (s.queries_delegated != s.queries_borrowed) {
    return Format("delegated %.0f != borrowed %.0f",
                  static_cast<double>(s.queries_delegated),
                  static_cast<double>(s.queries_borrowed));
  }
  if (observed_completions != s.queries_finalized) {
    return Format("observer saw %.0f finalizations, summary %.0f",
                  static_cast<double>(observed_completions),
                  static_cast<double>(s.queries_finalized));
  }
  return {};
}

std::string CheckServeOutcome(int callbacks, bool shed, int results_received,
                              double engine_latency_s, double wall_latency_s,
                              double min_service_s) {
  if (callbacks != 1) {
    return Format("query delivered %.0f callbacks", callbacks);
  }
  if (shed) return "query shed at admission";
  if (results_received < 1) return "query finished without a result";
  // The engine clock and the steady clock both must have let at least the
  // fastest provider's service time pass.
  const double floor = min_service_s * (1.0 - 1e-9);
  if (engine_latency_s < floor || wall_latency_s < floor) {
    return Format("latency %.9f s (engine) / %.9f s (wall) below the service "
                  "floor %.9f s",
                  engine_latency_s, wall_latency_s, min_service_s);
  }
  return {};
}

CheckingObserver::CheckingObserver(CheckLog* log, size_t memory_k,
                                   model::QueryClassId scarce_class,
                                   const std::vector<bool>* restricted)
    : log_(log),
      memory_k_(memory_k),
      scarce_class_(scarce_class),
      restricted_(restricted) {}

void CheckingObserver::OnMediation(
    const model::Query& query, const sbqa::core::AllocationDecision& decision,
    double) {
  ++mediations_;
  InFlight& f = inflight_[query.id];
  log_->Expect(CheckDecisionStructure(query, decision));
  log_->Expect(CheckDefinition3Order(decision, f.selected));
  for (model::ProviderId p : decision.selected) {
    const size_t i = static_cast<size_t>(
        std::find(decision.consulted.begin(), decision.consulted.end(), p) -
        decision.consulted.begin());
    if (i >= decision.consulted.size()) continue;
    if (restricted_ != nullptr && query.query_class == scarce_class_ &&
        static_cast<size_t>(p) < restricted_->size() &&
        (*restricted_)[static_cast<size_t>(p)]) {
      log_->Expect(Format("scarce query %.0f allocated to restricted %.0f",
                          static_cast<double>(query.id), p));
    }
    f.selected.push_back(p);
    f.selected_ci.push_back(decision.consumer_intentions[i]);
  }
}

void CheckingObserver::OnQueryCompleted(
    const sbqa::core::QueryOutcome& outcome) {
  ++completions_;
  const auto it = inflight_.find(outcome.query.id);
  scratch_.clear();
  for (model::ProviderId p : outcome.performers) {
    if (it == inflight_.end() || !Contains(it->second.selected, p)) {
      log_->Expect(Format("query %.0f performed by unselected provider %.0f",
                          static_cast<double>(outcome.query.id), p));
      continue;
    }
    const auto& sel = it->second.selected;
    scratch_.push_back(it->second.selected_ci[static_cast<size_t>(
        std::find(sel.begin(), sel.end(), p) - sel.begin())]);
  }
  if (it != inflight_.end()) inflight_.erase(it);
  if (scratch_.size() == outcome.performers.size()) {
    log_->Expect(CheckEquation1(scratch_, outcome.query.n_results,
                                outcome.satisfaction));
  }
  if (restricted_ != nullptr) {
    log_->Expect(CheckScarcePerformers(outcome, scarce_class_, *restricted_));
  }
  const auto consumer = static_cast<size_t>(outcome.query.consumer);
  if (history_.size() <= consumer) history_.resize(consumer + 1);
  std::vector<double>& history = history_[consumer];
  history.push_back(outcome.satisfaction);
  if (history.size() > 2 * memory_k_) {
    history.erase(history.begin(),
                  history.begin() + static_cast<long>(memory_k_));
  }
}

void CheckingObserver::Finish(
    const sbqa::metrics::RunSummary& summary,
    const std::vector<double>& consumer_satisfaction) {
  log_->Expect(CheckAccounting(summary, completions_));
  if (!inflight_.empty()) {
    log_->Expect(Format("%.0f mediated queries never finalized",
                        static_cast<double>(inflight_.size())));
  }
  for (size_t c = 0; c < consumer_satisfaction.size(); ++c) {
    const std::vector<double> none;
    const std::vector<double>& history = c < history_.size() ? history_[c]
                                                             : none;
    log_->Expect(CheckDefinition1(static_cast<model::ConsumerId>(c), history,
                                  memory_k_, consumer_satisfaction[c]));
  }
}

}  // namespace perfbench
