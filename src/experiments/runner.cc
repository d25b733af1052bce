#include "experiments/runner.h"

#include <algorithm>
#include <memory>

#include "core/sbqa.h"
#include "core/shard_directory.h"
#include "federation/federation.h"
#include "metrics/collector.h"
#include "model/reputation.h"
#include "runtime/fault.h"
#include "sim/shard_set.h"
#include "util/check.h"
#include "util/rng.h"

namespace sbqa::experiments {

namespace {

/// Upper bound on one query's lifetime after issue: attempts are clamped
/// to query_timeout each, retries add capped+jittered backoffs, and the
/// per-query deadline (when set) caps everything.
double QueryLifetimeBound(const ScenarioConfig& config) {
  const core::MediatorConfig& m = config.mediator;
  double lifetime = m.query_timeout;
  if (m.max_retries > 0) {
    lifetime = (m.max_retries + 1) * m.query_timeout +
               m.max_retries * m.retry_backoff_cap *
                   (1.0 + m.retry_backoff_jitter);
  }
  if (config.query_deadline > 0) {
    lifetime = std::min(lifetime, config.query_deadline);
  }
  return lifetime;
}

/// Stamps the run's one master scoring-kernel switch (sim.scoring_kernel /
/// sim.decision_timing) into the method spec: the same run config always
/// drives both the decision path and the mediator's normalization kernel.
MethodSpec StampedMethod(const ScenarioConfig& config) {
  MethodSpec spec = config.method;
  spec.sbqa.scoring_kernel = config.sim.scoring_kernel;
  spec.sbqa.decision_timing = config.sim.decision_timing;
  return spec;
}

/// The mediator half of the master switch (normalization path + dispatch
/// rescore).
core::MediatorConfig StampedMediator(const ScenarioConfig& config) {
  core::MediatorConfig mediator = config.mediator;
  mediator.scoring_kernel = config.sim.scoring_kernel;
  return mediator;
}

/// Harvests scoring-kernel telemetry from the mediators' methods into the
/// result (aggregating across shards / federation peers; non-SbQA methods
/// leave it empty).
void HarvestDecisionPhases(
    const std::vector<std::unique_ptr<core::Mediator>>& mediators,
    RunResult* result) {
  for (const auto& mediator : mediators) {
    auto* sbqa = dynamic_cast<core::SbqaMethod*>(&mediator->method());
    if (sbqa == nullptr) continue;
    result->scoring_kernel = core::ToString(sbqa->kernel().kind());
    result->decision_phases.Accumulate(sbqa->kernel().phases());
  }
}

/// Whether every query submitted to `mediators` reached its consumer-side
/// outcome (a borrowed query counts where it was submitted and where its
/// outcome re-homed — both on its origin shard).
bool AllFinalized(const std::vector<core::Mediator*>& mediators) {
  int64_t submitted = 0;
  int64_t finalized = 0;
  for (const core::Mediator* mediator : mediators) {
    submitted += mediator->stats().queries_submitted;
    finalized += mediator->stats().queries_finalized;
  }
  return submitted == finalized;
}

/// Sums injector telemetry into the run summary (no-op when unfaulted).
void AccumulateFaultStats(
    const std::vector<std::unique_ptr<rt::FaultInjector>>& injectors,
    metrics::RunSummary* summary) {
  for (const auto& injector : injectors) {
    const rt::FaultStats& f = injector->stats();
    summary->fault_sends_dropped += f.sends_dropped;
    summary->fault_sends_delayed += f.sends_delayed;
    summary->fault_sends_crashed += f.sends_crashed;
  }
}

/// Epoch applier of multi-shard runs: routes each membership op applied by
/// Registry::AdvanceEpoch to the owning shard's mediator, and wires
/// newly joined volunteers — reputation slot, availability churn process
/// on the owner shard's scheduler. Lives on the runner's stack for the
/// whole run; invoked only at barriers with every worker parked.
class RunnerMembership final : public core::MembershipApplier {
 public:
  /// `gateways` is the per-shard gateway list (membership ops route to the
  /// owning shard's gateway); `all_mediators` is every mediator including
  /// non-gateway group members, whose provider tables must also grow at
  /// the barrier.
  RunnerMembership(core::Registry* registry, sim::ShardSet* shards,
                   std::vector<core::Mediator*> gateways,
                   std::vector<core::Mediator*> all_mediators,
                   model::ReputationRegistry* reputation,
                   const workload::ChurnParams& churn)
      : registry_(registry),
        shards_(shards),
        mediators_(std::move(gateways)),
        all_mediators_(std::move(all_mediators)),
        reputation_(reputation),
        churn_(churn) {}

  void ApplyAvailability(model::ProviderId provider,
                         bool available) override {
    Owner(provider)->ApplyProviderAvailability(provider, available);
  }

  void ApplyDeparture(model::ProviderId provider) override {
    Owner(provider)->ApplyProviderDeparture(provider);
  }

  void OnProviderJoined(model::ProviderId provider) override {
    reputation_->GrowTo(registry_->provider_count());
    // Table growth happens here at the barrier, never on first contact
    // mid-query — keeps the per-query steady state allocation-free.
    for (core::Mediator* mediator : all_mediators_) {
      mediator->ReserveProviderTables(provider);
    }
    if (churn_.enabled) {
      // The newcomer's availability process lives on its owner shard; its
      // first toggle (possibly "start offline") queues into the NEXT
      // epoch, like every other membership op.
      const uint32_t owner = registry_->ProviderShard(provider);
      join_churn_.push_back(std::make_unique<workload::ChurnProcess>(
          &shards_->shard(owner).runtime(), mediators_[owner], provider,
          churn_));
      join_churn_.back()->Start();
    }
  }

 private:
  core::Mediator* Owner(model::ProviderId provider) {
    return mediators_[registry_->ProviderShard(provider)];
  }

  core::Registry* registry_;
  sim::ShardSet* shards_;
  std::vector<core::Mediator*> mediators_;
  std::vector<core::Mediator*> all_mediators_;
  model::ReputationRegistry* reputation_;
  workload::ChurnParams churn_;
  std::vector<std::unique_ptr<workload::ChurnProcess>> join_churn_;
};

}  // namespace

/// Builds one scheduler/network/RNG stream, registry partition, mediator
/// group, workload slice and churn slice per shard and advances them by
/// the ShardSet barrier protocol. At one shard that is one Simulation
/// stepped in barrier windows on the driver thread, with membership ops
/// applied immediately instead of at epoch barriers.
RunResult RunScenario(const ScenarioConfig& config) {
  SBQA_CHECK_GT(config.duration, 0);
  // Per-shard mediator group size: the first member of each group is the
  // shard's gateway for cross-shard traffic.
  const size_t group = std::max<size_t>(config.mediator_count, 1);

  sim::SimulationConfig sim_config = config.sim;
  sim_config.seed = config.seed;
  sim::ShardSet shards(sim_config);
  const uint32_t shard_count = shards.shard_count();

  // Population: one shared registry, built from shard 0's stream (the
  // population is therefore identical across shard counts and methods: it
  // is split off before any method-dependent randomness), then
  // partitioned.
  core::Registry registry;
  util::Rng population_rng = shards.shard(0).NewRng();
  const boinc::BuiltPopulation population =
      boinc::BuildPopulation(config.population, &registry, &population_rng);
  if (config.population_hook) {
    config.population_hook(&registry, population, &population_rng);
  }
  registry.SetShardCount(shard_count);

  model::ReputationRegistry reputation(registry.provider_count());

  // A mediator group per shard (usually group == 1), each mediator with
  // its own method instance (per-method state like round-robin cursors
  // stays local) and optionally behind its own fault injector. Injector
  // streams derive from (fault_plan.seed, s * group + m): bit-reproducible
  // per (seed, plan, shard_count, group), and stream 0 IS the root plan
  // seed. Injectors are declared before (so destroyed after) the
  // mediators they back. Construction is shard-major.
  std::vector<std::unique_ptr<rt::FaultInjector>> injectors;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;  // all, shard-major
  std::vector<core::Mediator*> gateways;       // first of each group
  core::ShardDirectory directory;
  federation::Federation federation;
  mediators.reserve(shard_count * group);
  for (uint32_t s = 0; s < shard_count; ++s) {
    for (size_t m = 0; m < group; ++m) {
      rt::Runtime* runtime = &shards.shard(s).runtime();
      if (config.fault_plan.enabled()) {
        rt::FaultPlan plan = config.fault_plan;
        plan.seed =
            util::Rng::StreamSeed(config.fault_plan.seed, s * group + m);
        injectors.push_back(
            std::make_unique<rt::FaultInjector>(runtime, plan));
        runtime = injectors.back().get();
      }
      mediators.push_back(std::make_unique<core::Mediator>(
          runtime, &registry, &reputation, MakeMethod(StampedMethod(config)),
          StampedMediator(config)));
      mediator_ptrs.push_back(mediators.back().get());
      if (m == 0) gateways.push_back(mediators.back().get());
    }
  }
  directory.Refresh(registry);
  if (shard_count > 1) {
    // The federation is the one cross-shard path: a dry pool starts a
    // borrow chain (the default config borrows one hop over the full
    // mesh). Every group member can start chains, with tickets from its
    // gateway's pool; incoming traffic and re-homed outcomes land on the
    // gateway (the list entry for each shard).
    federation.Build(config.federation, shard_count, &directory);
    for (uint32_t s = 0; s < shard_count; ++s) {
      for (size_t m = 0; m < group; ++m) {
        mediator_ptrs[s * group + m]->ConfigureSharding(&shards, s,
                                                        &federation, gateways);
      }
    }
  }
  if (group > 1) {
    // In-shard peer propagation: provider failures reach every group
    // member's in-flight instances.
    for (uint32_t s = 0; s < shard_count; ++s) {
      std::vector<core::Mediator*> in_shard(
          mediator_ptrs.begin() + static_cast<long>(s * group),
          mediator_ptrs.begin() + static_cast<long>((s + 1) * group));
      for (core::Mediator* mediator : in_shard) {
        mediator->SetPeers(in_shard);
      }
    }
  }
  if (config.departure.providers_can_leave ||
      config.departure.consumers_can_leave) {
    for (size_t i = 0; i < mediator_ptrs.size(); ++i) {
      // The gateway sweeps its shard's partition (one sweeper per shard);
      // other group members check only on their own mediation events.
      mediator_ptrs[i]->SetDepartureModel(config.departure,
                                          /*run_sweep=*/i % group == 0);
    }
  }

  // Metrics: one collector with a per-shard observer stream each. Shared
  // observers attach directly to every mediator at shard_count = 1 (no
  // cross-shard ordering to fix) and through the collector's
  // barrier-replayed cross-shard mux otherwise.
  std::vector<sim::Simulation*> sims;
  for (uint32_t s = 0; s < shard_count; ++s) sims.push_back(&shards.shard(s));
  metrics::Collector collector(sims, &registry, mediator_ptrs,
                               config.sample_interval);
  for (core::MediationObserver* observer : config.observers) {
    if (shard_count == 1) {
      for (core::Mediator* mediator : mediator_ptrs) {
        mediator->AddObserver(observer);
      }
    } else {
      collector.AttachSharedObserver(observer);
    }
  }
  if (config.shard_observer_factory) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      if (core::MediationObserver* observer =
              config.shard_observer_factory(s)) {
        gateways[s]->AddObserver(observer);
      }
    }
  }

  // Workload: one generator per project, each living on its consumer's
  // owning shard with that shard's strided query-id stream. A shard's
  // projects round-robin over its group members.
  std::vector<std::unique_ptr<workload::QueryIdSource>> ids;
  for (uint32_t s = 0; s < shard_count; ++s) {
    ids.push_back(std::make_unique<workload::QueryIdSource>(
        static_cast<model::QueryId>(s) + 1,
        static_cast<model::QueryId>(shard_count)));
  }
  std::vector<std::unique_ptr<workload::QueryGenerator>> generators;
  SBQA_CHECK_EQ(population.projects.size(), config.population.projects.size());
  std::vector<size_t> group_cursor(shard_count, 0);
  for (size_t i = 0; i < population.projects.size(); ++i) {
    const boinc::ProjectSpec& project = config.population.projects[i];
    const uint32_t shard = registry.ConsumerShard(population.projects[i]);
    workload::ArrivalParams arrivals;
    arrivals.rate = project.arrival_rate;
    arrivals.end_time = config.duration;
    arrivals.deadline = config.query_deadline;
    core::Mediator* mediator =
        mediator_ptrs[shard * group + group_cursor[shard]++ % group];
    generators.push_back(std::make_unique<workload::QueryGenerator>(
        &shards.shard(shard), mediator, ids[shard].get(),
        population.projects[i], arrivals, project.cost));
    generators.back()->Start();
  }

  // Churn: each volunteer's availability process lives on its owning
  // shard, driven through the shard's gateway (population order within a
  // shard). At shard_count > 1 the toggles become epoch ops of the
  // membership log; at one shard they apply immediately.
  std::vector<std::vector<model::ProviderId>> churn_slices(shard_count);
  for (model::ProviderId volunteer : population.volunteers) {
    churn_slices[registry.ProviderShard(volunteer)].push_back(volunteer);
  }
  std::vector<std::vector<std::unique_ptr<workload::ChurnProcess>>> churn;
  for (uint32_t s = 0; s < shard_count; ++s) {
    churn.push_back(workload::StartChurn(&shards.shard(s).runtime(),
                                         gateways[s], churn_slices[s],
                                         config.churn));
  }

  // Open-system joins. One shard: a single process applying joins
  // immediately. Several shards: one process per shard carrying a strided
  // slice of the configured arrival stream (rate / n each; max_joins split
  // by stride), whose arrivals enqueue QueueJoin epoch ops.
  std::vector<std::unique_ptr<boinc::VolunteerJoinProcess>> joins;
  if (config.joins.enabled) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      boinc::VolunteerJoinParams join_params = config.joins;
      if (shard_count > 1) {
        join_params.rate = config.joins.rate / shard_count;
        join_params.max_joins =
            config.joins.max_joins > s
                ? (config.joins.max_joins - s + shard_count - 1) / shard_count
                : 0;
      }
      joins.push_back(std::make_unique<boinc::VolunteerJoinProcess>(
          &shards.shard(s).runtime(), gateways[s], &reputation,
          config.population,
          population.projects, join_params, config.churn));
      joins.back()->Start();
    }
  }

  // One shard applies membership immediately, and its metrics snapshots
  // are ordinary events of its scheduler, taken in FIFO order with
  // whatever else happens at a sample instant. Several shards run the
  // barrier sequence (drain mailboxes -> apply membership log -> refresh
  // directory -> resume): the driver applies every queued op through the
  // owning shard's mediator while all workers are parked, then barrier
  // hooks refresh the borrow directory when membership or load changed,
  // flush buffered events to the shared observers and sample metrics when
  // a sample point has been reached. Hook order matters only for
  // determinism, not correctness — all of them read quiescent state.
  RunnerMembership membership(&registry, &shards, gateways, mediator_ptrs,
                              &reputation, config.churn);
  double next_sample = config.sample_interval;
  if (shard_count == 1) {
    collector.Start(config.duration);
  } else {
    shards.SetMembershipHook([&registry, &membership](double) {
      registry.AdvanceEpoch(&membership);
    });
    // Initial ops (churn's "start offline" draws) apply right here, so
    // the t = 0 population state matches one shard's.
    if (registry.HasPendingMembershipOps()) {
      registry.AdvanceEpoch(&membership);
    }
    directory.Refresh(registry);
    shards.AddBarrierHook([&directory, &registry](double) {
      directory.RefreshIfChanged(registry);
    });
    if (collector.has_shared_observers()) {
      shards.AddBarrierHook(
          [&collector](double) { collector.FlushSharedObservers(); });
    }
    collector.Snapshot();  // t = 0 baseline, like Collector::Start()
    shards.AddBarrierHook([&collector, &next_sample, &config](double now) {
      while (next_sample <= now + 1e-9 &&
             next_sample <= config.duration + 1e-9) {
        collector.Snapshot();
        next_sample += config.sample_interval;
      }
    });
  }

  shards.RunUntil(config.duration);
  // Drain in-flight queries (and cross-shard mailboxes) so satisfaction /
  // response accounting is complete (no new queries are generated past
  // `duration`). The horizon covers the full retry budget when
  // re-mediation is on.
  const double lifetime = QueryLifetimeBound(config);
  const double drain_horizon = config.duration + lifetime;
  shards.RunUntil(drain_horizon);
  // Attempt timeouts are armed at dispatch, after the mediator hop and the
  // intention round trip, so a query issued just before `duration` can
  // time out past the horizon; a borrowed query whose attempt ends on its
  // donor shard at the horizon re-homes its outcome one mailbox hop later.
  // Keep advancing barrier windows until every query finalized, capped at
  // one more query lifetime (a no-op when everything already has).
  const double settle_cap = drain_horizon + lifetime;
  while (!AllFinalized(mediator_ptrs) && shards.now() < settle_cap) {
    shards.RunUntil(
        std::min(settle_cap, shards.now() + config.sim.shard_barrier_tick));
  }
  collector.FlushSharedObservers();  // settlement-window stragglers

  RunResult result;
  result.summary = collector.Summarize(config.duration);
  AccumulateFaultStats(injectors, &result.summary);
  result.series = collector.series();
  result.consumers = collector.ConsumerSnapshots();
  result.providers = collector.ProviderSnapshots();
  result.membership_epochs = registry.membership_epoch();
  result.membership_ops = registry.membership_ops_applied();
  result.membership_apply_seconds = shards.membership_apply_seconds();
  HarvestDecisionPhases(mediators, &result);
  return result;
}

std::vector<RunResult> CompareMethods(const ScenarioConfig& base,
                                      const std::vector<MethodSpec>& methods) {
  std::vector<RunResult> results;
  results.reserve(methods.size());
  for (const MethodSpec& method : methods) {
    ScenarioConfig config = base;
    config.method = method;
    results.push_back(RunScenario(config));
  }
  return results;
}

}  // namespace sbqa::experiments
