#include "cluster/cluster_cosim.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace photorack::cluster {

const config::EnumCodec<SpillPolicy>& spill_policy_codec() {
  static const config::EnumCodec<SpillPolicy> codec(
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

std::size_t pool_size(const ClusterConfig& cfg) {
  if (cfg.workers > 0) return static_cast<std::size_t>(cfg.workers);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(static_cast<std::size_t>(cfg.racks), hw);
}

}  // namespace

ClusterCosim::ClusterCosim(const rack::RackConfig& rack,
                           disagg::AllocationPolicy policy,
                           const workloads::UsageModel& usage,
                           ClusterConfig cluster, cosim::CosimConfig cfg,
                           obs::Obs obs)
    : cfg_(validated(cluster)),
      fabric_(cfg_.racks, cfg_.interconnect_gbps.value, cfg_.hop_ns,
              cfg_.interconnect_pj_per_bit),
      pool_(pool_size(cfg_)) {
  racks_.reserve(static_cast<std::size_t>(cfg_.racks));
  spill_out_.resize(static_cast<std::size_t>(cfg_.racks));
  close_out_.resize(static_cast<std::size_t>(cfg_.racks));
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
    // take concurrent writers, and rack 0 is the rack whose stream matches a
    // standalone run of the same seed.
    racks_.push_back(std::make_unique<cosim::RackCosim>(
        rack, policy, usage, rack_cfg, r == 0 ? obs : obs::Obs{}));
  }
  if (!coupled()) return;
  // Handlers run on rack worker threads inside a window: they only append
  // to that rack's own outbox.  The coordinator drains outboxes strictly
  // after wait_idle(), which orders the accesses.
  for (int r = 0; r < cfg_.racks; ++r) {
    cosim::RackCosim* rc = racks_[static_cast<std::size_t>(r)].get();
    rc->set_spill_handler(
        [this, r](const cosim::RackCosim::JobPlan& plan, sim::TimePs at) {
          spill_out_[static_cast<std::size_t>(r)].push_back(
              SpillMsg{at, r, plan, at});
          return true;
        });
    rc->set_remote_close_handler(
        [this, r](int link, double gbps, sim::TimePs at, bool placed) {
          close_out_[static_cast<std::size_t>(r)].push_back(
              CloseMsg{at, r, link, gbps, placed});
        });
  }
}

void ClusterCosim::advance_all(sim::TimePs barrier) {
  // Only racks with events inside the window have anything to do; a lone
  // active rack runs inline — same results (rack domains are independent
  // within a window), no pool round-trip.
  std::vector<cosim::RackCosim*> active;
  for (auto& r : racks_)
    if (r->next_event_time() < barrier) active.push_back(r.get());
  if (active.size() == 1) {
    active.front()->advance_to(barrier);
    return;
  }
  for (cosim::RackCosim* r : active)
    pool_.submit([r, barrier]() { r->advance_to(barrier); });
  pool_.wait_idle();
}

int ClusterCosim::pick_target(int origin) const {
  const int n = static_cast<int>(racks_.size());
  if (cfg_.spill == SpillPolicy::kNext) return (origin + 1) % n;
  // kLeast: the rack with the lowest combined CPU+memory occupancy right
  // now (reads are quiescent between windows).  Ties break to the lowest
  // rack id — deterministic.
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

void ClusterCosim::exchange(sim::TimePs /*barrier*/) {
  // Merge every outbox into one stream ordered by (time, origin rack, kind,
  // record order) — a total order over cross-rack effects that does not
  // depend on which thread ran which rack, hence bit-identical results at
  // any worker count.  Closes sort before spills at the same instant so
  // returned capacity is visible to a simultaneous spill's reservation.
  struct Ref {
    sim::TimePs at;
    int origin;
    int kind;  // 0 = close, 1 = spill
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (int r = 0; r < static_cast<int>(racks_.size()); ++r) {
    const auto ur = static_cast<std::size_t>(r);
    for (std::size_t i = 0; i < close_out_[ur].size(); ++i)
      order.push_back(Ref{close_out_[ur][i].at, r, 0, i});
    for (std::size_t i = 0; i < spill_out_[ur].size(); ++i)
      order.push_back(Ref{spill_out_[ur][i].at, r, 1, i});
  }
  if (order.empty()) return;
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.idx < b.idx;
  });
  const sim::TimePs hop = fabric_.hop_latency_ps();
  for (const Ref& ref : order) {
    const auto ur = static_cast<std::size_t>(ref.origin);
    if (ref.kind == 0) {
      const CloseMsg& msg = close_out_[ur][ref.idx];
      fabric_.release(msg.link, msg.gbps);
      if (!msg.placed) ++spill_failed_;
    } else {
      SpillMsg& msg = spill_out_[ur][ref.idx];
      const int target = pick_target(msg.origin);
      const int link = fabric_.link(msg.origin, target);
      double requested = 0.0;
      for (const auto& flow : msg.plan.flows) requested += flow.gbps;
      const double granted = fabric_.reserve(link, requested);
      msg.plan.remote_link = link;
      msg.plan.remote_gbps = granted;
      // The grant fraction becomes the job's speed ceiling at the target: a
      // half-granted uplink runs the job at half speed (clamped to the
      // rack's min_speed floor at placement).
      msg.plan.remote_speed_cap =
          requested > 0.0 ? std::clamp(granted / requested, 0.0, 1.0) : 1.0;
      racks_[static_cast<std::size_t>(target)]->inject_remote_job(
          std::move(msg.plan), msg.at + hop, msg.arrived);
      ++spilled_;
    }
  }
  for (auto& box : spill_out_) box.clear();
  for (auto& box : close_out_) box.clear();
}

void ClusterCosim::run() {
  if (ran_) return;
  ran_ = true;
  if (!coupled()) {
    // No cross-rack effects are possible: one window, full-parallel drain.
    if (racks_.size() == 1) {
      racks_.front()->finish();
    } else {
      for (auto& r : racks_) pool_.submit([rc = r.get()]() { rc->finish(); });
      pool_.wait_idle();
    }
    ++barriers_;
    return;
  }
  const sim::TimePs hop = fabric_.hop_latency_ps();
  for (;;) {
    sim::TimePs t_min = INT64_MAX;
    for (auto& r : racks_) t_min = std::min(t_min, r->next_event_time());
    // Outboxes are always drained at the bottom of the previous window, so
    // an empty cluster-wide event horizon means fully done.
    if (t_min == INT64_MAX) break;
    const sim::TimePs barrier =
        t_min > INT64_MAX - hop ? INT64_MAX : t_min + hop;
    advance_all(barrier);
    ++barriers_;
    exchange(barrier);
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
