#include "core/sbqa.h"

#include <algorithm>

#include "core/mediator.h"
#include "util/check.h"

namespace sbqa::core {

SbqaParams SqlbParams(OmegaMode omega_mode, double fixed_omega) {
  SbqaParams params;
  params.knbest = KnBestParams{0, 0};  // consult all of Pq
  params.omega_mode = omega_mode;
  params.fixed_omega = fixed_omega;
  params.name = "SQLB";
  return params;
}

SbqaMethod::SbqaMethod(const SbqaParams& params)
    : params_(params),
      kernel_(params.scoring_kernel, params.decision_timing) {
  SBQA_CHECK_GT(params.epsilon, 0);
  SBQA_CHECK_GE(params.fixed_omega, 0);
  SBQA_CHECK_LE(params.fixed_omega, 1);
}

void SbqaMethod::Allocate(const AllocationContext& ctx,
                          AllocationDecision* decision) {
  SBQA_CHECK(ctx.query != nullptr);
  SBQA_CHECK(ctx.candidates != nullptr);
  SBQA_CHECK(ctx.mediator != nullptr);
  SBQA_CHECK(decision != nullptr);
  Mediator& mediator = *ctx.mediator;
  const model::Query& query = *ctx.query;

  // Phase 1 (KnBest): uniform K-sample straight off the candidate index,
  // keep the kn least utilized (Kn) — written directly into the pooled
  // consulted vector. O(k), independent of |Pq|.
  const int64_t sample_t0 = kernel_.TimingNow();
  SelectKnBestFrom(*ctx.candidates, mediator, params_.knbest,
                   &knbest_scratch_, &decision->consulted);
  kernel_.AddSampleNs(sample_t0);
  SBQA_CHECK(!decision->consulted.empty());

  // Phase 2 (SQLB): the scoring kernel gathers CI_q[p] from the consumer
  // and PI_q[p] from every p in Kn into the pooled intention vectors,
  // scores Kn with Definition 3 under the self-adaptive omega of Equation 2
  // (or a fixed application-chosen omega), and selects the min(q.n, kn)
  // best-scored providers.
  ScoreSpec spec;
  spec.omega_mode = params_.omega_mode;
  spec.fixed_omega = params_.fixed_omega;
  spec.epsilon = params_.epsilon;
  spec.cold_start_consumer_satisfaction =
      params_.cold_start_consumer_satisfaction;
  spec.consumer_standing = ctx.consumer_standing;
  kernel_.ScoreAndSelect(mediator, query, ctx.now, spec, decision);
  decision->used_intention_round = true;
}

}  // namespace sbqa::core
