// Tests for the experiment harness: method factory, scenario configs,
// runner determinism and the report builders.

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/report.h"
#include "experiments/runner.h"

namespace sbqa::experiments {
namespace {

TEST(MethodFactoryTest, NamesAreStable) {
  EXPECT_EQ(MethodName(MethodSpec::Random()), "Random");
  EXPECT_EQ(MethodName(MethodSpec::RoundRobin()), "RoundRobin");
  EXPECT_EQ(MethodName(MethodSpec::Capacity()), "Capacity");
  EXPECT_EQ(MethodName(MethodSpec::Qlb()), "QLB");
  EXPECT_EQ(MethodName(MethodSpec::Economic()), "Economic");
  EXPECT_EQ(MethodName(MethodSpec::KnBest()), "KnBest");
  EXPECT_EQ(MethodName(MethodSpec::InterestOnly()), "InterestOnly");
  EXPECT_EQ(MethodName(MethodSpec::Sqlb()), "SQLB");
  EXPECT_EQ(MethodName(MethodSpec::Sbqa()), "SbQA");
}

TEST(MethodFactoryTest, SqlbConsultsEveryone) {
  MethodSpec spec = MethodSpec::Sqlb();
  auto method = MakeMethod(spec);
  auto* sbqa = dynamic_cast<core::SbqaMethod*>(method.get());
  ASSERT_NE(sbqa, nullptr);
  EXPECT_EQ(sbqa->params().knbest.k_candidates, 0u);
  EXPECT_EQ(sbqa->params().knbest.kn_best, 0u);
}

TEST(ScenarioConfigTest, CaptiveVsAutonomous) {
  const ScenarioConfig s1 = Scenario1Config();
  EXPECT_FALSE(s1.departure.providers_can_leave);
  EXPECT_FALSE(s1.departure.consumers_can_leave);
  const ScenarioConfig s2 = Scenario2Config();
  EXPECT_TRUE(s2.departure.providers_can_leave);
  EXPECT_TRUE(s2.departure.consumers_can_leave);
  EXPECT_DOUBLE_EQ(s2.departure.provider_threshold, 0.35);  // paper values
  EXPECT_DOUBLE_EQ(s2.departure.consumer_threshold, 0.5);
}

TEST(ScenarioConfigTest, Scenario5SwapsPolicies) {
  const ScenarioConfig s5 = Scenario5Config();
  for (const auto& project : s5.population.projects) {
    EXPECT_EQ(project.policy, model::ConsumerPolicyKind::kResponseTimeOnly);
  }
  EXPECT_EQ(s5.population.volunteers.policy,
            model::ProviderPolicyKind::kLoadOnly);
}

TEST(ScenarioConfigTest, Scenario6GridComputing) {
  const ScenarioConfig s6 = Scenario6Config();
  EXPECT_TRUE(s6.departure.providers_can_leave);
  EXPECT_FALSE(s6.departure.consumers_can_leave);
}

TEST(ScenarioConfigTest, Scenario7HasGuestParticipants) {
  const ScenarioConfig s7 = Scenario7Config();
  EXPECT_EQ(s7.population.projects.size(), 4u);  // 3 demo + guest
  EXPECT_EQ(s7.population.projects.back().name, "guest-project");
  EXPECT_TRUE(static_cast<bool>(s7.population_hook));
}

TEST(ScenarioConfigTest, MethodListsWellFormed) {
  EXPECT_EQ(BaselineMethods().size(), 2u);
  EXPECT_EQ(HeadlineMethods().size(), 3u);
  EXPECT_GE(AllMethods().size(), 8u);
}

ScenarioConfig SmallConfig(uint64_t seed = 123) {
  // A fast config for unit testing: 40 volunteers, short run.
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/40,
                                         /*duration=*/60.0);
  config.sample_interval = 10.0;
  return config;
}

TEST(RunnerTest, ProducesPopulatedResult) {
  const RunResult result = RunScenario(SmallConfig());
  EXPECT_GT(result.summary.queries_finalized, 50);
  EXPECT_GT(result.summary.throughput, 0.0);
  EXPECT_EQ(result.consumers.size(), 3u);
  EXPECT_EQ(result.providers.size(), 40u);
  EXPECT_FALSE(result.series.consumer_satisfaction.empty());
  EXPECT_EQ(result.summary.method, "SbQA");
  // Everything bounded.
  EXPECT_GE(result.summary.consumer_satisfaction, 0.0);
  EXPECT_LE(result.summary.consumer_satisfaction, 1.0);
  EXPECT_GE(result.summary.provider_satisfaction, 0.0);
  EXPECT_LE(result.summary.provider_satisfaction, 1.0);
}

TEST(RunnerTest, DeterministicForFixedSeed) {
  const RunResult a = RunScenario(SmallConfig(77));
  const RunResult b = RunScenario(SmallConfig(77));
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
  EXPECT_DOUBLE_EQ(a.summary.consumer_satisfaction,
                   b.summary.consumer_satisfaction);
  EXPECT_DOUBLE_EQ(a.summary.provider_satisfaction,
                   b.summary.provider_satisfaction);
  EXPECT_DOUBLE_EQ(a.summary.mean_response_time, b.summary.mean_response_time);
}

TEST(RunnerTest, DifferentSeedsDiffer) {
  const RunResult a = RunScenario(SmallConfig(1));
  const RunResult b = RunScenario(SmallConfig(2));
  // Not bit-identical (astronomically unlikely under different seeds).
  EXPECT_NE(a.summary.mean_response_time, b.summary.mean_response_time);
}

TEST(RunnerTest, CompareMethodsHoldsPopulationFixed) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), {MethodSpec::Capacity(),
                                     MethodSpec::Random()});
  ASSERT_EQ(results.size(), 2u);
  // Same seed => identical workloads submitted.
  EXPECT_EQ(results[0].summary.queries_submitted,
            results[1].summary.queries_submitted);
  EXPECT_EQ(results[0].summary.method, "Capacity");
  EXPECT_EQ(results[1].summary.method, "Random");
}

TEST(RunnerTest, AllMethodsRunCleanly) {
  ScenarioConfig config = SmallConfig();
  config.duration = 30.0;
  for (const MethodSpec& spec : AllMethods()) {
    const RunResult result = RunScenario([&] {
      ScenarioConfig c = config;
      c.method = spec;
      return c;
    }());
    EXPECT_GT(result.summary.queries_finalized, 0)
        << result.summary.method;
    EXPECT_EQ(result.summary.queries_finalized,
              result.summary.queries_submitted)
        << result.summary.method << " left queries unfinalized";
  }
}

TEST(RunnerTest, QueriesTimingOutPastTheDrainHorizonAreFinalized) {
  // An attempt's timeout is armed at dispatch, after the mediator hop and
  // the intention round trip. With every dispatch dropped and no
  // per-query deadline, a query issued in the last round trip before
  // `duration` times out after duration + query_timeout; the runner must
  // keep settling until it is finalized.
  ScenarioConfig config = BaseDemoConfig(/*seed=*/5, /*volunteers=*/120,
                                         /*duration=*/5.0);
  config.population.projects[1].arrival_rate = 400;
  config.mediator.query_timeout = 2;
  config.fault_plan.drop_send_prob = 1.0;
  ASSERT_EQ(config.query_deadline, 0);
  ASSERT_EQ(config.sim.shard_count, 1u);
  const RunResult result = RunScenario(config);
  EXPECT_GT(result.summary.queries_submitted, 1000);
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
}

TEST(RunnerTest, MediatorGroupUnderDropsFinalizesEveryQuery) {
  // Every member of a mediator group sits behind its own fault injector,
  // which must exempt that member's inbox (submissions and result fan-in),
  // not only the first member's: a dropped consumer->mediator hop arms no
  // timeout, so the query would never be finalized.
  ScenarioConfig config = BaseDemoConfig(/*seed=*/42, /*volunteers=*/200,
                                         /*duration=*/60.0);
  config.mediator_count = 3;
  config.mediator.query_timeout = 5;
  ASSERT_TRUE(rt::FaultProfileByName("drops", &config.fault_plan));
  const RunResult result = RunScenario(config);
  EXPECT_GT(result.summary.fault_sends_dropped, 0);
  EXPECT_GT(result.summary.queries_submitted, 100);
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
}

TEST(ReportTest, TablesHaveOneRowPerResult) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), BaselineMethods());
  EXPECT_EQ(SatisfactionTable(results).row_count(), 2u);
  EXPECT_EQ(PerformanceTable(results).row_count(), 2u);
  EXPECT_EQ(RetentionTable(results).row_count(), 2u);
  EXPECT_EQ(LoadBalanceTable(results).row_count(), 2u);
  EXPECT_EQ(OverviewTable(results).row_count(), 2u);
}

TEST(ReportTest, TablesMentionMethodNames) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), {MethodSpec::Capacity()});
  const std::string table = OverviewTable(results).ToString();
  EXPECT_NE(table.find("Capacity"), std::string::npos);
}

TEST(ReportTest, SeriesChartRendersAllMethods) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), BaselineMethods());
  const std::string chart =
      SeriesChart(results, ProviderSatisfactionSeries, "test-title");
  EXPECT_NE(chart.find("test-title"), std::string::npos);
  EXPECT_NE(chart.find("Capacity"), std::string::npos);
  EXPECT_NE(chart.find("Economic"), std::string::npos);
}

}  // namespace
}  // namespace sbqa::experiments
