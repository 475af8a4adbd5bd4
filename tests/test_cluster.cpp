// Multi-rack cluster co-simulation: the pinned contracts from ISSUE 9 —
// a one-rack cluster reproduces RackCosim field for field, coupled runs are
// bit-identical at any worker count (the conservative-window determinism
// contract), spill bookkeeping conserves jobs and bandwidth, and the
// cluster_energy campaign serializes byte-identically at every --jobs level.
#include "cluster/cluster_cosim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "cosim/rack_cosim.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"

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

// The tentpole contract: with spill-over coupling the racks, the
// conservative-window loop makes the run bit-identical at any worker count.
TEST(Cluster, CoupledRunIsBitIdenticalAtAnyWorkerCount) {
  auto cfg = quick_cosim(8.0);  // overload so spills actually happen
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
  ClusterConfig serial;
  serial.racks = 3;
  serial.spill = SpillPolicy::kLeast;
  ClusterConfig wide = serial;
  serial.workers = 1;
  wide.workers = 4;
  const auto rs = run_cluster(serial, cfg);
  const auto rw = run_cluster(wide, cfg);
  EXPECT_GT(rs.spilled, 0u);  // the coupling is actually exercised
  EXPECT_GT(rs.barriers, 1u);
  EXPECT_EQ(rs.spilled, rw.spilled);
  EXPECT_EQ(rs.spill_failed, rw.spill_failed);
  EXPECT_EQ(rs.barriers, rw.barriers);
  EXPECT_EQ(rs.interconnect_energy_j, rw.interconnect_energy_j);
  expect_same_report(rs.total, rw.total);
  ASSERT_EQ(rs.racks.size(), rw.racks.size());
  for (std::size_t r = 0; r < rs.racks.size(); ++r)
    expect_same_report(rs.racks[r], rw.racks[r]);
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

TEST(Cluster, SpillBookkeepingConservesJobsAndBandwidth) {
  auto cfg = quick_cosim(8.0);
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 4;
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
  // Every inter-rack grant is returned when its job closes: after a full
  // drain the interconnect must be idle (up to release rounding dust), while
  // its always-on uplinks burned power the whole run (the cluster-scale
  // energy tax).
  EXPECT_LT(report.interconnect_utilization, 1e-12);
  EXPECT_GT(report.interconnect_power_w, 0.0);
  EXPECT_GT(report.interconnect_energy_j, 0.0);
  EXPECT_GT(report.total.energy_joules,
            std::accumulate(report.racks.begin(), report.racks.end(), 0.0,
                            [](double s, const cosim::CosimReport& r) {
                              return s + r.energy_joules;
                            }));  // total folds the interconnect in
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
