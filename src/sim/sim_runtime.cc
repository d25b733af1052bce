#include "sim/sim_runtime.h"

#include <utility>

#include "sim/network.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace sbqa::sim {

SimRuntime::SimRuntime(Simulation* sim) : sim_(sim) {
  SBQA_CHECK(sim_ != nullptr);
}

rt::Time SimRuntime::now() const { return sim_->now(); }

rt::TaskId SimRuntime::Schedule(rt::Time delay, rt::TaskFn fn) {
  return sim_->scheduler().Schedule(delay, std::move(fn));
}

rt::TaskId SimRuntime::ScheduleAt(rt::Time when, rt::TaskFn fn) {
  // The seam contract clamps past deadlines to now (the simulator's own
  // ScheduleAt CHECK-aborts on them); trace-identical for in-contract
  // callers, and keeps both runtimes interchangeable at the edge.
  const rt::Time now = sim_->now();
  if (when < now) when = now;
  return sim_->scheduler().ScheduleAt(when, std::move(fn));
}

bool SimRuntime::Cancel(rt::TaskId id) { return sim_->scheduler().Cancel(id); }

void SimRuntime::Post(rt::TaskFn fn) {
  sim_->scheduler().Schedule(0, std::move(fn));
}

rt::Destination SimRuntime::RegisterDestination() {
  return sim_->network().RegisterDestination();
}

void SimRuntime::SendTo(rt::Destination destination, rt::TaskFn fn) {
  sim_->network().SendTo(destination, std::move(fn));
}

double SimRuntime::SampleLatency() { return sim_->network().SampleLatency(); }

util::Rng SimRuntime::SplitRng() { return sim_->NewRng(); }

}  // namespace sbqa::sim
