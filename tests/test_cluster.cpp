// Multi-rack cluster co-simulation: a one-rack cluster reproduces RackCosim
// field for field, the coupled loop equals a from-scratch transcription of
// the conservative-window contract bit for bit, spill bookkeeping conserves
// jobs and bandwidth, and runs are bit-identical at any worker count or
// --jobs level.
#include "cluster/cluster_cosim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cosim/rack_cosim.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"
#include "sim/rng.hpp"

namespace photorack::cluster {
namespace {

cosim::CosimConfig quick_cosim(double arrivals_per_ms = 4.0) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = arrivals_per_ms;
  cfg.sim_time = 120 * sim::kPsPerMs;
  cfg.mean_duration = 20 * sim::kPsPerMs;
  return cfg;
}

ClusterReport run_cluster(const ClusterConfig& cluster,
                          const cosim::CosimConfig& cfg) {
  return run_cluster_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                           workloads::UsageModel::cori(), cluster, cfg);
}

using testutil::expect_same_report;
using testutil::serialize;

// ---------------------------------------------------------------------------
// Inter-rack fabric model.
// ---------------------------------------------------------------------------

TEST(InterRackFabric, ValidatesConstruction) {
  EXPECT_THROW(InterRackFabric(0, 400.0, 200.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 0.0, 200.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 400.0, -1.0, 30.0), std::invalid_argument);
  EXPECT_THROW(InterRackFabric(2, 400.0, 200.0, -1.0), std::invalid_argument);
}

TEST(InterRackFabric, LinkIdsRejectSelfAndOutOfRange) {
  InterRackFabric fabric(3, 400.0, 200.0, 30.0);
  EXPECT_THROW((void)fabric.link(0, 0), std::invalid_argument);
  EXPECT_THROW((void)fabric.link(-1, 1), std::invalid_argument);
  EXPECT_THROW((void)fabric.link(0, 3), std::invalid_argument);
  EXPECT_NE(fabric.link(0, 1), fabric.link(1, 0));  // links are directed
}

TEST(InterRackFabric, ReserveGrantsUpToCapacityAndReleaseRestores) {
  InterRackFabric fabric(2, 100.0, 200.0, 30.0);
  const int link = fabric.link(0, 1);
  EXPECT_EQ(fabric.reserve(link, 60.0), 60.0);
  EXPECT_EQ(fabric.reserve(link, 60.0), 40.0);  // clipped to the residual
  EXPECT_EQ(fabric.reserve(link, 60.0), 0.0);   // saturated
  EXPECT_EQ(fabric.allocated(link), 100.0);
  fabric.release(link, 100.0);
  EXPECT_EQ(fabric.allocated(link), 0.0);
  EXPECT_THROW(fabric.release(link, 1.0), std::logic_error);
}

TEST(InterRackFabric, PowerIsZeroWhenDarkAndHopNeverDegenerates) {
  InterRackFabric fabric(4, 400.0, 200.0, 30.0);
  EXPECT_EQ(fabric.power_w(false), 0.0);  // rack-scale: uplinks stay dark
  // 4 uplinks x 400 Gb/s x 30 pJ/bit = 48 W.
  EXPECT_NEAR(fabric.power_w(true), 48.0, 1e-9);
  EXPECT_EQ(fabric.hop_latency_ps(), 200 * 1000);
  // A zero-latency hop would give the cluster loop a zero-width window.
  EXPECT_GE(InterRackFabric(2, 400.0, 0.0, 30.0).hop_latency_ps(), 1);
}

// ---------------------------------------------------------------------------
// Cluster <-> rack equivalence and determinism.
// ---------------------------------------------------------------------------

TEST(Cluster, RejectsInvalidConfig) {
  ClusterConfig bad;
  bad.racks = 0;
  EXPECT_THROW(run_cluster(bad, quick_cosim()), std::invalid_argument);
  bad = {};
  bad.workers = -1;
  EXPECT_THROW(run_cluster(bad, quick_cosim()), std::invalid_argument);
}

// ISSUE 9 acceptance criterion: a one-rack cluster IS a RackCosim run — the
// same seed, the same events, the same report, field for field.
TEST(Cluster, SingleRackReproducesRackCosimExactly) {
  const auto cfg = quick_cosim(6.0);
  ClusterConfig one;
  one.racks = 1;
  one.spill = SpillPolicy::kLeast;  // irrelevant with one rack
  const auto cluster = run_cluster(one, cfg);
  const auto solo = cosim::run_rack_cosim(
      {}, disagg::AllocationPolicy::kDisaggregated,
      workloads::UsageModel::cori(), cfg);
  ASSERT_EQ(cluster.racks.size(), 1u);
  expect_same_report(cluster.total, solo);
  EXPECT_EQ(cluster.spilled, 0u);
  EXPECT_EQ(cluster.interconnect_power_w, 0.0);
}

TEST(Cluster, UncoupledRunIsIndependentOfWorkerCount) {
  const auto cfg = quick_cosim(6.0);
  ClusterConfig a;
  a.racks = 3;
  a.spill = SpillPolicy::kNone;
  ClusterConfig b = a;
  a.workers = 1;
  b.workers = 4;
  const auto ra = run_cluster(a, cfg);
  const auto rb = run_cluster(b, cfg);
  expect_same_report(ra.total, rb.total);
  EXPECT_EQ(ra.barriers, 1u);  // no coupling: one window, full parallelism
  EXPECT_EQ(rb.barriers, 1u);
}

// ---------------------------------------------------------------------------
// Differential test: ClusterCosim's coupled loop against a reference that
// redoes each window's bookkeeping from scratch through RackCosim's public
// hooks — min over next_event_time() plus the hop, advance every rack with
// an event below the barrier, then exchange every message in (time, origin
// rack, kind, record order).
// ---------------------------------------------------------------------------

struct Reference {
  ClusterReport report;
  std::uint64_t partial_grants = 0;  // spills granted less than they asked
};

Reference reference_cluster(const ClusterConfig& cluster, const cosim::CosimConfig& cfg) {
  struct Msg {
    sim::TimePs at = 0;
    int origin = 0;
    int kind = 0;  // 0 = close, 1 = spill
    cosim::RackCosim::JobPlan plan;
    int link = -1;
    double gbps = 0.0;
    bool placed = true;
  };
  const auto n = static_cast<std::size_t>(cluster.racks);
  InterRackFabric fabric(cluster.racks, cluster.interconnect_gbps.value, cluster.hop_ns,
                         cluster.interconnect_pj_per_bit);
  std::vector<std::unique_ptr<cosim::RackCosim>> racks;
  std::vector<Msg> outbox;
  const sim::Rng rack_root = sim::Rng(cfg.seed).child(5);
  for (std::size_t r = 0; r < n; ++r) {
    cosim::CosimConfig rack_cfg = cfg;
    if (r > 0) rack_cfg.seed = rack_root.child(r)();
    racks.push_back(std::make_unique<cosim::RackCosim>(
        rack::RackConfig{}, disagg::AllocationPolicy::kDisaggregated,
        workloads::UsageModel::cori(), rack_cfg));
    const int origin = static_cast<int>(r);
    racks[r]->set_spill_handler(
        [&outbox, origin](const cosim::RackCosim::JobPlan& plan, sim::TimePs at) {
          outbox.push_back(Msg{at, origin, 1, plan});
          return true;
        });
    racks[r]->set_remote_close_handler(
        [&outbox, origin](int link, double gbps, sim::TimePs at, bool placed) {
          outbox.push_back(Msg{at, origin, 0, {}, link, gbps, placed});
        });
  }
  auto least_loaded = [&](int origin) {
    int best = -1;
    double best_load = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      if (static_cast<int>(r) == origin) continue;
      const auto& pools = racks[r]->allocator().pools();
      const double load = pools.cpu_utilization() + pools.memory_utilization();
      if (best < 0 || load < best_load) {
        best = static_cast<int>(r);
        best_load = load;
      }
    }
    return best;
  };

  Reference ref;
  ClusterReport& out = ref.report;
  const sim::TimePs hop = fabric.hop_latency_ps();
  for (;;) {
    sim::TimePs t_min = INT64_MAX;
    for (const auto& rack : racks) t_min = std::min(t_min, rack->next_event_time());
    if (t_min == INT64_MAX) break;
    const sim::TimePs barrier = t_min > INT64_MAX - hop ? INT64_MAX : t_min + hop;
    for (const auto& rack : racks)
      if (rack->next_event_time() < barrier) rack->advance_to(barrier);
    ++out.barriers;
    // Racks append in rack order and each rack in record order, so a stable
    // sort on (time, origin, kind) leaves record order as the last key.
    std::stable_sort(outbox.begin(), outbox.end(), [](const Msg& a, const Msg& b) {
      return std::tie(a.at, a.origin, a.kind) < std::tie(b.at, b.origin, b.kind);
    });
    for (Msg& msg : outbox) {
      if (msg.kind == 0) {
        fabric.release(msg.link, msg.gbps);
        if (!msg.placed) ++out.spill_failed;
        continue;
      }
      const int target = cluster.spill == SpillPolicy::kNext
                             ? (msg.origin + 1) % cluster.racks
                             : least_loaded(msg.origin);
      const int link = fabric.link(msg.origin, target);
      double requested = 0.0;
      for (const auto& flow : msg.plan.flows) requested += flow.gbps;
      const double granted = fabric.reserve(link, requested);
      if (granted < requested) ++ref.partial_grants;
      msg.plan.remote = {
          .speed_cap = requested > 0.0 ? std::clamp(granted / requested, 0.0, 1.0) : 1.0,
          .link = link,
          .gbps = granted};
      racks[static_cast<std::size_t>(target)]->inject_remote_job(std::move(msg.plan),
                                                                  msg.at + hop, msg.at);
      ++out.spilled;
    }
    outbox.clear();
  }

  sim::TimePs end = 0;
  cosim::CosimTally total;
  for (const auto& rack : racks) {
    end = std::max(end, rack->now());
    out.racks.push_back(rack->tally().report());
    total.merge(rack->tally());
  }
  out.interconnect_power_w = fabric.power_w(true);
  out.interconnect_energy_j = out.interconnect_power_w * sim::to_s(end);
  out.interconnect_utilization = fabric.utilization();
  out.total = total.report();
  out.total.energy_joules += out.interconnect_energy_j;
  out.total.mean_power_w += out.interconnect_power_w;
  out.total.peak_power_w += out.interconnect_power_w;
  out.total.photonic_power_w += out.interconnect_power_w;
  return ref;
}

void expect_same_cluster(const ClusterReport& a, const ClusterReport& b) {
  EXPECT_EQ(a.spilled, b.spilled);
  EXPECT_EQ(a.spill_failed, b.spill_failed);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.interconnect_power_w, b.interconnect_power_w);
  EXPECT_EQ(a.interconnect_energy_j, b.interconnect_energy_j);
  EXPECT_EQ(a.interconnect_utilization, b.interconnect_utilization);
  expect_same_report(a.total, b.total);
  ASSERT_EQ(a.racks.size(), b.racks.size());
  for (std::size_t r = 0; r < a.racks.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "rack " << r);
    expect_same_report(a.racks[r], b.racks[r]);
  }
}

/// Overloaded racks (spills happen) on a short horizon: a backlog of four
/// under queueing; all four fault classes with requeue; or drop admission
/// with half the arrivals training jobs.
enum class Mix { kQueue, kQueueFaults, kDropMl };

cosim::CosimConfig mix_cosim(Mix mix) {
  cosim::CosimConfig cfg = quick_cosim(8.0);
  cfg.sim_time = 40 * sim::kPsPerMs;
  cfg.admission = mix == Mix::kDropMl ? cosim::AdmissionPolicy::kDrop
                                      : cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
  if (mix == Mix::kQueueFaults) {
    cfg.fault.enabled = true;
    cfg.fault.policy = fault::ResiliencePolicy::kRequeue;
    cfg.fault.mcm_mtbf_ms = 60.0;
    cfg.fault.node_mtbf_ms = 240.0;
    cfg.fault.link_mtbf_ms = 60.0;
    cfg.fault.laser_mtbf_ms = 60.0;
  }
  if (mix == Mix::kDropMl) {
    cfg.ml.enabled = true;
    cfg.ml.mix_fraction = 0.5;
  }
  return cfg;
}

TEST(Cluster, CoupledLoopMatchesReferenceLoop) {
  for (const SpillPolicy spill : {SpillPolicy::kNext, SpillPolicy::kLeast})
    for (const double hop_ns : {0.0, 200.0, 1e6})
      for (const Mix mix : {Mix::kQueue, Mix::kQueueFaults, Mix::kDropMl})
        for (const int racks : {2, 8}) {
          SCOPED_TRACE(testing::Message()
                       << spill_policy_codec().name(spill) << " hop_ns=" << hop_ns
                       << " mix=" << static_cast<int>(mix) << " racks=" << racks);
          ClusterConfig cluster;
          cluster.racks = racks;
          cluster.spill = spill;
          cluster.hop_ns = hop_ns;
          const auto cfg = mix_cosim(mix);
          const Reference ref = reference_cluster(cluster, cfg);
          // Every axis is exercised: spills cross racks, windows repeat,
          // faults requeue and training jobs run.
          EXPECT_GT(ref.report.spilled, 0u);
          EXPECT_GT(ref.report.barriers, 1u);
          if (mix == Mix::kQueueFaults) EXPECT_GT(ref.report.total.fault.requeued, 0u);
          if (mix == Mix::kDropMl) EXPECT_GT(ref.report.total.ml.jobs_completed, 0u);
          expect_same_cluster(run_cluster(cluster, cfg), ref.report);
        }
}

// A starved interconnect grants spills only part of what they ask, so the
// exchange order decides which spill gets how much.
TEST(Cluster, CoupledLoopMatchesReferenceWithPartialGrants) {
  ClusterConfig cluster;
  cluster.racks = 4;
  cluster.spill = SpillPolicy::kLeast;
  cluster.interconnect_gbps = phot::Gbps{20.0};
  const auto cfg = mix_cosim(Mix::kQueue);
  const Reference ref = reference_cluster(cluster, cfg);
  EXPECT_GT(ref.partial_grants, 0u);
  expect_same_cluster(run_cluster(cluster, cfg), ref.report);
}

// Cluster flow fractions pool bandwidth, not per-rack ratios: satisfied is
// Σsatisfied / Σrequested over every rack's flows, and the event-queue peak
// is the deepest single rack queue, not a sum of racks.
TEST(Cluster, FlowFractionsPoolBandwidthAcrossRacks) {
  cosim::CosimConfig cfg;  // default 400 ms horizon
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  const auto report = run_cluster(ClusterConfig{}, cfg);
  ASSERT_EQ(report.racks.size(), 4u);
  double requested = 0.0, satisfied = 0.0;
  std::uint64_t deepest = 0;
  for (const auto& rack : report.racks) {
    const double r = rack.flows.offered_gbps_mean * static_cast<double>(rack.flows.flows);
    requested += r;
    satisfied += rack.flows.satisfied_fraction * r;
    deepest = std::max(deepest, rack.jobs.events.pending_peak);
  }
  const double pooled = satisfied / requested;
  EXPECT_NEAR(report.total.flows.satisfied_fraction, pooled, 1e-12 * pooled);
  EXPECT_EQ(report.total.jobs.events.pending_peak, deepest);
}

// Cluster MTTR is one mean over every rack's repairs, not a mean of rack
// means: a rack with few repairs weighs in by its count, and a rack with
// none (which reports 0.0) adds nothing.  Availability pools downtime over
// component-time; the racks here share components and horizon, so it equals
// the plain rack mean.
TEST(Cluster, FaultTotalsPoolRepairsAndDowntimeAcrossRacks) {
  cosim::CosimConfig cfg;
  cfg.sim_time = 40 * sim::kPsPerMs;
  cfg.fault.enabled = true;
  cfg.fault.mcm_mtbf_ms = 8000.0;
  cfg.fault.node_mtbf_ms = 8000.0;
  cfg.fault.link_mtbf_ms = 8000.0;
  cfg.fault.laser_mtbf_ms = 8000.0;
  ClusterConfig cluster;
  cluster.racks = 8;
  const auto report = run_cluster(cluster, cfg);
  ASSERT_EQ(report.racks.size(), 8u);
  double repair_ms = 0.0, availability = 0.0;
  std::uint64_t repairs = 0, idle_racks = 0;
  for (const auto& rack : report.racks) {
    repair_ms += static_cast<double>(rack.fault.repairs) * rack.fault.mean_mttr_ms;
    repairs += rack.fault.repairs;
    availability += rack.fault.availability;
    idle_racks += rack.fault.repairs == 0;
    if (rack.fault.repairs == 0) EXPECT_EQ(rack.fault.mean_mttr_ms, 0.0);
  }
  ASSERT_GT(repairs, 0u);
  ASSERT_GT(idle_racks, 0u);  // the case a rack mean gets wrong
  EXPECT_EQ(report.total.fault.repairs, repairs);
  const double pooled = repair_ms / static_cast<double>(repairs);
  EXPECT_NEAR(report.total.fault.mean_mttr_ms, pooled, 1e-12 * pooled);
  availability /= 8.0;
  EXPECT_NEAR(report.total.fault.availability, availability, 1e-12);
}

// Fault inputs reach the one path where a revoked spilled job returns its
// grant and retries as a local job: every accepted job still ends exactly
// once (completed or killed), and every grant still comes back.
TEST(Cluster, SpillBookkeepingConservesJobsAndBandwidth) {
  const struct {
    cosim::AdmissionPolicy admission;
    bool faults;
    fault::ResiliencePolicy resilience;
  } cases[] = {
      {cosim::AdmissionPolicy::kQueue, false, fault::ResiliencePolicy::kRequeue},
      {cosim::AdmissionPolicy::kDrop, true, fault::ResiliencePolicy::kRequeue},
      {cosim::AdmissionPolicy::kDrop, true, fault::ResiliencePolicy::kKill},
      {cosim::AdmissionPolicy::kQueue, true, fault::ResiliencePolicy::kRequeue},
      {cosim::AdmissionPolicy::kQueue, true, fault::ResiliencePolicy::kKill},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << cosim::admission_policy_codec().name(c.admission) << " faults="
                 << c.faults << " " << fault::resilience_policy_codec().name(c.resilience));
    auto cfg = quick_cosim(8.0);
    cfg.admission = c.admission;
    cfg.queue_cap = 4;
    cfg.fault.enabled = c.faults;
    cfg.fault.policy = c.resilience;
    cfg.fault.mcm_mtbf_ms = 60.0;
    cfg.fault.node_mtbf_ms = 240.0;
    ClusterConfig cluster;
    cluster.racks = 3;
    cluster.spill = SpillPolicy::kNext;
    const auto report = run_cluster(cluster, cfg);
    EXPECT_GT(report.spilled, 0u);
    EXPECT_LE(report.spill_failed, report.spilled);
    // Offers are recorded at the origin rack only, acceptance where the job
    // actually ran — totals are exact sums either way.
    std::uint64_t offered = 0, accepted = 0;
    for (const auto& rack : report.racks) {
      offered += rack.jobs.offered;
      accepted += rack.jobs.accepted;
    }
    EXPECT_EQ(report.total.jobs.offered, offered);
    EXPECT_EQ(report.total.jobs.accepted, accepted);
    if (c.faults) {
      EXPECT_GT(report.total.fault.interrupted, 0u);
      EXPECT_EQ(report.total.jobs.accepted,
                report.total.fault.goodput_jobs + report.total.fault.killed);
    }
    // Every inter-rack grant is returned when its job closes: after a full
    // drain the interconnect must be idle (up to release rounding dust),
    // while its always-on uplinks burned power the whole run (the
    // cluster-scale energy tax).
    EXPECT_LT(report.interconnect_utilization, 1e-12);
    EXPECT_GT(report.interconnect_power_w, 0.0);
    EXPECT_GT(report.interconnect_energy_j, 0.0);
    EXPECT_GT(report.total.energy_joules,
              std::accumulate(report.racks.begin(), report.racks.end(), 0.0,
                              [](double s, const cosim::CosimReport& r) {
                                return s + r.energy_joules;
                              }));  // total folds the interconnect in
  }
}

TEST(Cluster, RackScaleKeepsUplinksDark) {
  const auto report = run_cluster(ClusterConfig{}, quick_cosim(6.0));
  EXPECT_EQ(report.spilled, 0u);
  EXPECT_EQ(report.interconnect_power_w, 0.0);
  EXPECT_EQ(report.interconnect_energy_j, 0.0);
}

TEST(Cluster, SpillPolicyCodecRoundTrips) {
  const auto& codec = spill_policy_codec();
  EXPECT_EQ(codec.parse("least"), SpillPolicy::kLeast);
  EXPECT_EQ(codec.name(SpillPolicy::kNext), "next");
  EXPECT_THROW(codec.parse("ring"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaign determinism: cluster_energy serializes byte-identically at every
// --jobs level (the acceptance criterion the CI cluster smoke step re-checks
// end to end).
// ---------------------------------------------------------------------------

TEST(ClusterCampaigns, EnergyIsByteIdenticalAcrossJobs) {
  const auto& campaign = scenario::campaign_by_name("cluster_energy");
  auto grid = campaign.default_grid();
  grid.set("cluster.racks", {"2"});
  grid.set("cosim.arrivals_per_ms", {"8"});
  grid.set("cosim.horizon_ms", {"60"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

}  // namespace
}  // namespace photorack::cluster
