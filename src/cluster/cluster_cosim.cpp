#include "cluster/cluster_cosim.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "sim/thread_pool.hpp"

namespace photorack::cluster {

const sim::EnumCodec<SpillPolicy>& spill_policy_codec() {
  static const sim::EnumCodec<SpillPolicy> codec(
      "spill policy", {{"none", SpillPolicy::kNone},
                       {"next", SpillPolicy::kNext},
                       {"least", SpillPolicy::kLeast}});
  return codec;
}

namespace {

ClusterConfig validated(ClusterConfig cfg) {
  if (cfg.racks < 1)
    throw std::invalid_argument("ClusterCosim: need >= 1 rack");
  if (cfg.workers < 0)
    throw std::invalid_argument("ClusterCosim: workers must be >= 0");
  // Link rate / latency / energy bounds are enforced by InterRackFabric.
  return cfg;
}

}  // namespace

ClusterCosim::ClusterCosim(const rack::RackConfig& rack,
                           disagg::AllocationPolicy policy,
                           const workloads::UsageModel& usage,
                           ClusterConfig cluster, cosim::CosimConfig cfg,
                           obs::Obs obs)
    : cfg_(validated(cluster)),
      fabric_(cfg_.racks, cfg_.interconnect_gbps.value, cfg_.hop_ns,
              cfg_.interconnect_pj_per_bit) {
  racks_.reserve(static_cast<std::size_t>(cfg_.racks));
  // Rack seed streams: rack 0 runs the base seed VERBATIM — a one-rack
  // cluster reproduces a standalone RackCosim report field for field.  Racks
  // r > 0 derive their seed under child stream 5 of the base RNG, a stream
  // id no rack-local consumer uses (1 = router, 2 = arrivals, 3 = fault
  // timeline, 16+k = per-job plans), so rack streams can never collide with
  // in-rack draws.
  const sim::Rng rack_root = sim::Rng(cfg.seed).child(5);
  for (int r = 0; r < cfg_.racks; ++r) {
    cosim::CosimConfig rack_cfg = cfg;
    if (r > 0) rack_cfg.seed = rack_root.child(static_cast<std::uint64_t>(r))();
    // Observability attaches to rack 0 only: one trace/metrics sink cannot
    // take concurrent writers (the spill-off drain runs racks on several
    // threads), and rack 0 is the rack whose stream matches a standalone run
    // of the same seed.
    racks_.push_back(std::make_unique<cosim::RackCosim>(
        rack, policy, usage, rack_cfg, r == 0 ? obs : obs::Obs{}));
  }
  if (!coupled()) return;
  // Coupled windows run on the calling thread: a handler appends to the
  // outboxes, and exchange() acts on them at the barrier.
  for (int r = 0; r < cfg_.racks; ++r) {
    cosim::RackCosim* rc = racks_[static_cast<std::size_t>(r)].get();
    rc->set_spill_handler(
        [this, r](const cosim::RackCosim::JobPlan& plan, sim::TimePs at) {
          spills_.push_back(SpillMsg{at, r, plan, at});
          return true;
        });
    rc->set_remote_close_handler(
        [this, r](int link, double gbps, sim::TimePs at, bool placed) {
          closes_.push_back(CloseMsg{at, r, link, gbps, placed});
        });
  }
}

int ClusterCosim::pick_target(int origin) const {
  const int n = static_cast<int>(racks_.size());
  if (cfg_.spill == SpillPolicy::kNext) return (origin + 1) % n;
  // kLeast: the rack with the lowest combined CPU+memory occupancy at the
  // barrier.  Ties break to the lowest rack id — deterministic.
  int best = -1;
  double best_load = 0.0;
  for (int r = 0; r < n; ++r) {
    if (r == origin) continue;
    const auto& pools = racks_[static_cast<std::size_t>(r)]->allocator().pools();
    const double load = pools.cpu_utilization() + pools.memory_utilization();
    if (best < 0 || load < best_load) {
      best = r;
      best_load = load;
    }
  }
  return best;
}

void ClusterCosim::exchange() {
  // Merge the outboxes into one stream ordered by (time, origin rack, kind,
  // record order): a total order over cross-rack effects fixed by the
  // racks' clocks alone.  Closes sort before spills at the same instant so
  // returned capacity is visible to a simultaneous spill's reservation.
  order_.clear();
  for (std::size_t i = 0; i < closes_.size(); ++i)
    order_.emplace_back(closes_[i].at, closes_[i].origin, 0, i);
  for (std::size_t i = 0; i < spills_.size(); ++i)
    order_.emplace_back(spills_[i].at, spills_[i].origin, 1, i);
  std::sort(order_.begin(), order_.end());
  const sim::TimePs hop = fabric_.hop_latency_ps();
  for (const auto& [at, origin, kind, idx] : order_) {
    if (kind == 0) {
      const CloseMsg& msg = closes_[idx];
      fabric_.release(msg.link, msg.gbps);
      if (!msg.placed) ++spill_failed_;
    } else {
      SpillMsg& msg = spills_[idx];
      const int target = pick_target(origin);
      const int link = fabric_.link(origin, target);
      double requested = 0.0;
      for (const auto& flow : msg.plan.flows) requested += flow.gbps;
      const double granted = fabric_.reserve(link, requested);
      // The grant fraction becomes the job's speed ceiling at the target: a
      // half-granted uplink runs the job at half speed (clamped to the
      // rack's min_speed floor at placement).
      msg.plan.remote = {
          .speed_cap = requested > 0.0 ? std::clamp(granted / requested, 0.0, 1.0) : 1.0,
          .link = link,
          .gbps = granted};
      cosim::RackCosim& rack = *racks_[static_cast<std::size_t>(target)];
      rack.inject_remote_job(std::move(msg.plan), at + hop, msg.arrived);
      next_[static_cast<std::size_t>(target)] = rack.next_event_time();
      ++spilled_;
    }
  }
  spills_.clear();
  closes_.clear();
}

void ClusterCosim::run() {
  if (ran_) return;
  ran_ = true;
  if (!coupled()) {
    // No cross-rack effects are possible: one window, every rack drains on
    // its own.
    sim::parallel_for(
        racks_.size(), [this](std::size_t r) { racks_[r]->finish(); },
        cfg_.workers > 0 ? static_cast<std::size_t>(cfg_.workers)
                         : std::thread::hardware_concurrency());
    ++barriers_;
    return;
  }
  // Only advancing a rack or injecting into it moves its next event, so
  // next_ stays exact with one refresh at each of those two places.
  const sim::TimePs hop = fabric_.hop_latency_ps();
  for (const auto& r : racks_) next_.push_back(r->next_event_time());
  for (;;) {
    const sim::TimePs t_min = *std::min_element(next_.begin(), next_.end());
    // Outboxes are drained at the bottom of every window that fills them,
    // so an empty cluster-wide event horizon means fully done.
    if (t_min == INT64_MAX) break;
    const sim::TimePs barrier =
        t_min > INT64_MAX - hop ? INT64_MAX : t_min + hop;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
      if (next_[r] >= barrier) continue;
      racks_[r]->advance_to(barrier);
      next_[r] = racks_[r]->next_event_time();
    }
    ++barriers_;
    if (!spills_.empty() || !closes_.empty()) exchange();
  }
}

sim::TimePs ClusterCosim::sim_end() const {
  sim::TimePs end = 0;
  for (const auto& r : racks_) end = std::max(end, r->now());
  return end;
}

ClusterReport ClusterCosim::report() const {
  ClusterReport out;
  out.spilled = spilled_;
  out.spill_failed = spill_failed_;
  out.barriers = barriers_;
  out.interconnect_power_w = fabric_.power_w(coupled());
  out.interconnect_energy_j = out.interconnect_power_w * sim::to_s(sim_end());
  out.interconnect_utilization = fabric_.utilization();
  // The total is a fold of exact merges in rack order (see CosimTally), so
  // its tails equal one stream that saw every job, and one rack folds to
  // that rack's own report bit for bit.
  cosim::CosimTally total;
  out.racks.reserve(racks_.size());
  for (const auto& r : racks_) {
    const cosim::CosimTally rack = r->tally();
    out.racks.push_back(rack.report());
    total.merge(rack);
  }
  out.total = total.report();
  // The lit uplinks are part of what cluster-scale disaggregation costs:
  // fold them into the energy totals (dark uplinks add exactly zero).
  out.total.energy_joules += out.interconnect_energy_j;
  out.total.mean_power_w += out.interconnect_power_w;
  out.total.peak_power_w += out.interconnect_power_w;
  out.total.photonic_power_w += out.interconnect_power_w;
  return out;
}

ClusterReport run_cluster_cosim(const rack::RackConfig& rack,
                                disagg::AllocationPolicy policy,
                                const workloads::UsageModel& usage,
                                const ClusterConfig& cluster,
                                const cosim::CosimConfig& cfg, obs::Obs obs) {
  ClusterCosim sim(rack, policy, usage, cluster, cfg, obs);
  sim.run();
  return sim.report();
}

}  // namespace photorack::cluster
