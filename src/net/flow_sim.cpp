#include "net/flow_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::net {

FlowEngine::FlowEngine(WavelengthFabric& fabric, sim::TimePs piggyback_interval,
                       std::uint64_t router_seed)
    : fabric_(&fabric),
      view_(fabric, piggyback_interval),
      router_(fabric, view_, router_seed) {}

void FlowEngine::attach_obs(const obs::Obs& obs) {
  obs_ = obs;
  if (obs_.profiler) {
    sc_open_ = obs_.profiler->scope("net.flow_open");
    sc_refresh_ = obs_.profiler->scope("net.view_refresh");
  }
}

void FlowEngine::refresh_view(sim::TimePs now) {
  obs::ScopedTimer timer(obs_.profiler, sc_refresh_);
  if (view_.maybe_refresh(now) && obs_.trace)
    obs_.trace->instant(obs::Track::kSim, "view_refresh", now);
}

std::uint64_t FlowEngine::open(const FlowSpec& spec, sim::TimePs now) {
  obs::ScopedTimer timer(obs_.profiler, sc_open_);
  if (free_slots_.empty()) {
    slots_.emplace_back();
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
  // The slot leaves the free list only once routing succeeded.
  const std::uint32_t index = free_slots_.back();
  Slot& slot = slots_[index];
  router_.route(spec.src, spec.dst, spec.gbps, slot.result);
  free_slots_.pop_back();
  slot.live = true;
  slot.opened_at = now;
  slot.src = spec.src;
  slot.dst = spec.dst;
  const RouteResult& result = slot.result;
  ++tally_.flows;
  if (result.fully_satisfied()) ++tally_.fully_satisfied;
  tally_.offered.add(spec.gbps);
  tally_.intermediates.add(result.intermediates_used);
  tally_.requested += spec.gbps;
  tally_.satisfied += result.satisfied();
  tally_.direct += result.direct_gbps;
  tally_.indirect += result.indirect_gbps;
  tally_.peak_utilization = std::max(tally_.peak_utilization, fabric_->utilization());
  return std::uint64_t{slot.generation} << 32 | index;
}

std::uint32_t FlowEngine::live_slot(std::uint64_t flow_id, const char* what) const {
  const auto index = static_cast<std::uint32_t>(flow_id);
  if (index >= slots_.size() || !slots_[index].live ||
      slots_[index].generation != flow_id >> 32)
    throw std::out_of_range(what + std::to_string(flow_id));
  return index;
}

const RouteResult& FlowEngine::result(std::uint64_t flow_id) const {
  return slots_[live_slot(flow_id, "FlowEngine: no live flow with id ")].result;
}

void FlowEngine::close(std::uint64_t flow_id, sim::TimePs now) {
  const std::uint32_t index = live_slot(flow_id, "FlowEngine: closing unknown flow id ");
  Slot& slot = slots_[index];
  router_.release(slot.result);
  slot.live = false;
  if (++slot.generation == 0) slot.generation = 1;  // 0 is never a live handle
  free_slots_.push_back(index);
  if (obs_.trace) {
    const double gbps = slot.result.requested;
    obs_.trace->complete(obs::Track::kFlows, "flow", slot.opened_at, now,
                         {{"src", static_cast<double>(slot.src)},
                          {"dst", static_cast<double>(slot.dst)},
                          {"gbps", gbps},
                          {"satisfied", gbps > 0.0 ? slot.result.satisfied() / gbps : 1.0}});
  }
}

FlowTally FlowEngine::tally() const {
  FlowTally out = tally_;
  out.stale_mispicks = router_.total_mispicks();
  out.second_hops = router_.total_second_hops();
  return out;
}

void FlowTally::merge(const FlowTally& other) {
  flows += other.flows;
  fully_satisfied += other.fully_satisfied;
  stale_mispicks += other.stale_mispicks;
  second_hops += other.second_hops;
  requested += other.requested;
  satisfied += other.satisfied;
  direct += other.direct;
  indirect += other.indirect;
  peak_utilization = std::max(peak_utilization, other.peak_utilization);
  offered.merge(other.offered);
  intermediates.merge(other.intermediates);
}

FlowSimReport FlowTally::report() const {
  FlowSimReport report;
  report.flows = flows;
  report.fully_satisfied = fully_satisfied;
  report.offered_gbps_mean = offered.mean();
  report.satisfied_fraction = requested > 0 ? satisfied / requested : 1.0;
  report.direct_fraction = satisfied > 0 ? direct / satisfied : 0.0;
  report.indirect_fraction = satisfied > 0 ? indirect / satisfied : 0.0;
  report.stale_mispicks = stale_mispicks;
  report.second_hops = second_hops;
  report.mean_intermediates = intermediates.mean();
  report.peak_utilization = peak_utilization;
  return report;
}

FlowSimulator::FlowSimulator(WavelengthFabric& fabric, FlowGenerator generator,
                             FlowSimConfig cfg)
    : generator_(std::move(generator)),
      cfg_(cfg),
      // Child-stream layout predates the FlowEngine split (router = the
      // first draw of child(1)); keep it so seeded runs reproduce.
      engine_(fabric, cfg.piggyback_interval, sim::Rng(cfg.seed).child(1)()),
      arrival_rng_(sim::Rng(cfg.seed).child(2)),
      flow_rng_(sim::Rng(cfg.seed).child(3)) {
  schedule_next_arrival();
}

void FlowSimulator::schedule_next_arrival() {
  const double mean_interarrival_ps =
      static_cast<double>(sim::kPsPerUs) / cfg_.arrivals_per_us;
  const auto gap =
      static_cast<sim::TimePs>(arrival_rng_.exponential(mean_interarrival_ps));
  if (queue_.now() + gap >= cfg_.sim_time) return;
  queue_.schedule_after(gap, [this]() {
    engine_.refresh_view(queue_.now());
    const FlowSpec spec = generator_(flow_rng_);
    const std::uint64_t id = engine_.open(spec, queue_.now());
    queue_.schedule_after(spec.duration,
                          [this, id]() { engine_.close(id, queue_.now()); });
    schedule_next_arrival();
  });
}

void FlowSimulator::advance_to(sim::TimePs t) { queue_.run(t); }

void FlowSimulator::finish() { queue_.run(); }

FlowSimReport FlowSimulator::run() {
  finish();
  return report();
}

}  // namespace photorack::net
