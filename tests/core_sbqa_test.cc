// Unit tests for the SbqaMethod allocation pipeline and the Equation-2
// self-adaptation feedback loop.

#include "core/sbqa.h"

#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "model/reputation.h"
#include "sim/simulation.h"

namespace sbqa::core {
namespace {

/// Harness exposing Allocate() directly on crafted participant state.
struct SbqaHarness {
  explicit SbqaHarness(int providers, uint64_t seed = 3,
                       ProviderSatisfactionDenominator mode =
                           ProviderSatisfactionDenominator::kPerformedOnly) {
    sim::SimulationConfig config;
    config.seed = seed;
    simulation = std::make_unique<sim::Simulation>(config);
    ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < providers; ++i) {
      ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      params.satisfaction_mode = mode;
      registry.AddProvider(params);
      candidates.push_back(i);
    }
    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    mediator = std::make_unique<Mediator>(
        &simulation->runtime(), &registry, reputation.get(),
        std::make_unique<SbqaMethod>(SbqaParams{}));
  }

  AllocationDecision Allocate(SbqaMethod& method, int n_results = 1) {
    query.id = ++next_id;
    query.consumer = 0;
    query.n_results = n_results;
    query.cost = 1.0;
    AllocationContext ctx;
    ctx.query = &query;
    ctx.candidates = &candidate_set;
    ctx.mediator = mediator.get();
    ctx.now = simulation->now();
    AllocationDecision decision;
    method.Allocate(ctx, &decision);
    return decision;
  }

  std::unique_ptr<sim::Simulation> simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Mediator> mediator;
  std::vector<model::ProviderId> candidates;
  CandidateSet candidate_set{&candidates};
  model::Query query;
  model::QueryId next_id = 0;
};

TEST(SbqaMethodTest, SelectsBestMutualPairWhenConsultingEveryone) {
  SbqaHarness h(4);
  // Provider 2 is the only strongly mutual pairing.
  h.registry.consumer(0).preferences().Set(0, 0.2);
  h.registry.consumer(0).preferences().Set(1, -0.5);
  h.registry.consumer(0).preferences().Set(2, 0.9);
  h.registry.consumer(0).preferences().Set(3, 0.1);
  for (int i = 0; i < 4; ++i) {
    h.registry.provider(i).preferences().Set(0, i == 2 ? 0.9 : 0.1);
  }
  SbqaMethod method(SqlbParams());  // consult all, adaptive omega
  for (int round = 0; round < 20; ++round) {
    const AllocationDecision d = h.Allocate(method, 1);
    ASSERT_EQ(d.selected.size(), 1u);
    EXPECT_EQ(d.selected[0], 2);
  }
}

TEST(SbqaMethodTest, ConsultedIsKnAndCarriesIntentions) {
  SbqaHarness h(10);
  SbqaParams params;
  params.knbest = KnBestParams{8, 5};
  SbqaMethod method(params);
  const AllocationDecision d = h.Allocate(method, 2);
  EXPECT_EQ(d.consulted.size(), 5u);
  EXPECT_EQ(d.provider_intentions.size(), 5u);
  EXPECT_EQ(d.consumer_intentions.size(), 5u);
  EXPECT_EQ(d.selected.size(), 2u);
  EXPECT_TRUE(d.used_intention_round);
  const std::set<model::ProviderId> consulted(d.consulted.begin(),
                                              d.consulted.end());
  for (model::ProviderId p : d.selected) {
    EXPECT_TRUE(consulted.contains(p));
  }
}

TEST(SbqaMethodTest, SelectionCappedByKn) {
  SbqaHarness h(10);
  SbqaParams params;
  params.knbest = KnBestParams{10, 3};
  SbqaMethod method(params);
  // q.n = 5 > kn = 3: the mediator can only allocate min(n, kn) = 3.
  const AllocationDecision d = h.Allocate(method, 5);
  EXPECT_EQ(d.selected.size(), 3u);
}

// Within the positive branch, omega decides whose intention rules. (Note
// the branch condition of Definition 3 is omega-independent: a provider the
// consumer is hostile to lands on the negative branch even at omega = 1, so
// these tests keep all intentions positive.)
TEST(SbqaMethodTest, FixedOmegaZeroFollowsConsumerOnly) {
  SbqaHarness h(2);
  h.registry.consumer(0).preferences().Set(0, 0.9);
  h.registry.consumer(0).preferences().Set(1, 0.2);
  h.registry.provider(0).preferences().Set(0, 0.05);
  h.registry.provider(1).preferences().Set(0, 0.95);
  SbqaParams params = SqlbParams(OmegaMode::kFixed, /*fixed_omega=*/0.0);
  SbqaMethod method(params);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(h.Allocate(method, 1).selected[0], 0);  // consumer's favorite
  }
}

TEST(SbqaMethodTest, FixedOmegaOneFollowsProvidersOnly) {
  SbqaHarness h(2);
  h.registry.consumer(0).preferences().Set(0, 0.9);
  h.registry.consumer(0).preferences().Set(1, 0.2);
  h.registry.provider(0).preferences().Set(0, 0.05);
  h.registry.provider(1).preferences().Set(0, 0.95);
  SbqaParams params = SqlbParams(OmegaMode::kFixed, /*fixed_omega=*/1.0);
  SbqaMethod method(params);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(h.Allocate(method, 1).selected[0], 1);  // providers' favorite
  }
}

TEST(SbqaMethodTest, HostilePairStaysOnNegativeBranchEvenAtOmegaOne) {
  SbqaHarness h(2);
  // Provider 1 is extremely willing but the consumer is hostile to it:
  // Definition 3's branch condition vetoes the pairing regardless of omega.
  h.registry.consumer(0).preferences().Set(0, 0.3);
  h.registry.consumer(0).preferences().Set(1, -0.9);
  h.registry.provider(0).preferences().Set(0, 0.05);
  h.registry.provider(1).preferences().Set(0, 1.0);
  SbqaParams params = SqlbParams(OmegaMode::kFixed, /*fixed_omega=*/1.0);
  SbqaMethod method(params);
  EXPECT_EQ(h.Allocate(method, 1).selected[0], 0);
}

TEST(SbqaMethodTest, MutualPositivityBeatsOneSidedEnthusiasm) {
  SbqaHarness h(2);
  // Pair 0: both mildly positive. Pair 1: consumer hostile, provider eager.
  h.registry.consumer(0).preferences().Set(0, 0.3);
  h.registry.consumer(0).preferences().Set(1, -0.8);
  h.registry.provider(0).preferences().Set(0, 0.3);
  h.registry.provider(1).preferences().Set(0, 1.0);
  SbqaMethod method(SqlbParams());
  EXPECT_EQ(h.Allocate(method, 1).selected[0], 0);
}

TEST(SbqaMethodTest, ColdStartUsesConfiguredConsumerSatisfaction) {
  SbqaHarness h(2);
  SbqaParams params = SqlbParams();
  params.cold_start_consumer_satisfaction = 0.5;
  SbqaMethod method(params);
  // No crash, sane decision with empty satisfaction windows.
  const AllocationDecision d = h.Allocate(method, 1);
  EXPECT_EQ(d.selected.size(), 1u);
}

// --- The Equation-2 feedback loop ----------------------------------------------
//
// Omega only matters where the two intentions differ: with PI > CI > 0, a
// larger omega (dissatisfied provider) raises the score. These tests craft
// exactly that regime: providers want queries (PI = 0.8) more than the
// consumer cares who serves it (CI = 0.4).

void SetUpLoopHarness(SbqaHarness& h) {
  h.registry.consumer(0).preferences().Set(0, 0.4);
  h.registry.consumer(0).preferences().Set(1, 0.4);
  h.registry.provider(0).preferences().Set(0, 0.8);
  h.registry.provider(1).preferences().Set(0, 0.8);
  // Provider 0 is doing fine; provider 1 is starved.
  for (int i = 0; i < 10; ++i) {
    h.registry.provider(0).satisfaction_tracker().RecordProposal(0.8, true);
  }
  for (int i = 0; i < 50; ++i) {
    h.registry.provider(1).satisfaction_tracker().RecordProposal(0.8, false);
  }
  // Consumer history so delta_s(c) is meaningful (0.8).
  for (int i = 0; i < 50; ++i) {
    h.registry.consumer(0).satisfaction_tracker().RecordQuery(0.8, 0.8, 1.0);
  }
}

TEST(AdaptiveOmegaLoopTest, DissatisfiedProviderWinsTheNextMediation) {
  SbqaHarness h(2);
  SetUpLoopHarness(h);
  // Equation 2: omega(p0) = ((0.8 - 0.9) + 1)/2 = 0.45,
  //             omega(p1) = ((0.8 - 0.0) + 1)/2 = 0.9.
  // Scores: 0.8^0.45 * 0.4^0.55 = 0.546 vs 0.8^0.9 * 0.4^0.1 = 0.746.
  SbqaMethod adaptive(SqlbParams(OmegaMode::kAdaptive));
  const AllocationDecision d = h.Allocate(adaptive, 1);
  EXPECT_EQ(d.selected[0], 1);  // the starved provider gets the query
}

TEST(AdaptiveOmegaLoopTest, FixedOmegaHasNoSuchBoost) {
  SbqaHarness h(2);
  SetUpLoopHarness(h);
  // With a fixed omega the two providers score identically (same PI, CI);
  // the deterministic tie-break ignores the satisfaction deficit and the
  // starved provider stays starved.
  SbqaMethod fixed(SqlbParams(OmegaMode::kFixed, /*fixed_omega=*/0.5));
  const AllocationDecision d = h.Allocate(fixed, 1);
  EXPECT_EQ(d.selected[0], 0);
}

/// Under the paper's performed-only denominator a single win restores a
/// provider's satisfaction (quality of performed work, not win rate), so
/// the adaptive loop acts as a *periodic rescue*: whenever the starved
/// provider's window loses its last win, Equation 2 hands it the very next
/// mediation. Starvation can never persist.
TEST(AdaptiveOmegaLoopTest, PerformedOnlyLoopRescuesPeriodically) {
  SbqaHarness h(2);
  SetUpLoopHarness(h);
  SbqaMethod adaptive(SqlbParams(OmegaMode::kAdaptive));
  int consecutive_dissatisfied = 0;
  int max_consecutive_dissatisfied = 0;
  int wins_1 = 0;
  for (int round = 0; round < 150; ++round) {
    const AllocationDecision d = h.Allocate(adaptive, 1);
    if (d.selected[0] == 1) ++wins_1;
    for (size_t i = 0; i < d.consulted.size(); ++i) {
      h.registry.provider(d.consulted[i])
          .satisfaction_tracker()
          .RecordProposal(d.provider_intentions[i],
                          d.consulted[i] == d.selected[0]);
    }
    if (h.registry.provider(1).satisfaction() == 0.0) {
      ++consecutive_dissatisfied;
      max_consecutive_dissatisfied =
          std::max(max_consecutive_dissatisfied, consecutive_dissatisfied);
    } else {
      consecutive_dissatisfied = 0;
    }
  }
  EXPECT_GE(wins_1, 2);  // rescued once per window cycle (k = 50)
  EXPECT_LE(max_consecutive_dissatisfied, 2);
}

/// With the all-proposed denominator, satisfaction *is* a (quality-
/// weighted) win rate, and the same feedback loop converges to an even
/// split between equivalent providers.
TEST(AdaptiveOmegaLoopTest, WinRateSemanticsShareWorkEvenly) {
  SbqaHarness h(2, /*seed=*/3,
                ProviderSatisfactionDenominator::kAllProposed);
  SetUpLoopHarness(h);
  SbqaMethod adaptive(SqlbParams(OmegaMode::kAdaptive));
  int wins_1_late = 0;
  for (int round = 0; round < 300; ++round) {
    const AllocationDecision d = h.Allocate(adaptive, 1);
    if (round >= 100 && d.selected[0] == 1) ++wins_1_late;
    for (size_t i = 0; i < d.consulted.size(); ++i) {
      h.registry.provider(d.consulted[i])
          .satisfaction_tracker()
          .RecordProposal(d.provider_intentions[i],
                          d.consulted[i] == d.selected[0]);
    }
  }
  // Of the last 200 mediations, the formerly starved provider holds a fair
  // share, and the two satisfactions have met.
  EXPECT_GT(wins_1_late, 60);
  EXPECT_LT(wins_1_late, 140);
  EXPECT_NEAR(h.registry.provider(0).satisfaction(),
              h.registry.provider(1).satisfaction(), 0.1);
}

}  // namespace
}  // namespace sbqa::core
