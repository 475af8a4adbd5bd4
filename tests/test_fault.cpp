// The ISSUE 8 fault-engine contracts: the timeline is a pure function of
// (config, geometry, seed) — byte-identical across --jobs levels and
// allocation policies, divergent under seed+1 — an enabled-but-idle engine
// changes no reported number, every resilience policy conserves jobs, and
// the blast-radius asymmetry (disaggregated jobs ride the fabric, static
// jobs hide inside their node) is pinned as an inequality.
#include "fault/fault_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cosim/rack_cosim.hpp"
#include "net/fabric.hpp"
#include "rack/rack_builder.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"

namespace photorack::fault {
namespace {

FaultConfig all_classes_config() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.mcm_mtbf_ms = 50.0;
  cfg.node_mtbf_ms = 80.0;
  cfg.link_mtbf_ms = 120.0;
  cfg.laser_mtbf_ms = 200.0;
  return cfg;
}

constexpr sim::TimePs kHorizon = 200 * sim::kPsPerMs;

// ---------------------------------------------------------------------------
// Timeline derivation: deterministic, seed-sensitive, well-formed.
// ---------------------------------------------------------------------------

TEST(FaultTimeline, SameSeedSameConfigIsIdentical) {
  const auto cfg = all_classes_config();
  const auto a = derive_timeline(cfg, 8, 16, 42, kHorizon);
  const auto b = derive_timeline(cfg, 8, 16, 42, kHorizon);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultTimeline, SeedPlusOneDiverges) {
  const auto cfg = all_classes_config();
  const auto a = derive_timeline(cfg, 8, 16, 42, kHorizon);
  const auto b = derive_timeline(cfg, 8, 16, 43, kHorizon);
  EXPECT_NE(a, b);
}

TEST(FaultTimeline, SortedWithOneRepairPerFail) {
  const auto timeline = derive_timeline(all_classes_config(), 8, 16, 7, kHorizon);
  ASSERT_FALSE(timeline.empty());
  for (std::size_t i = 1; i < timeline.size(); ++i)
    EXPECT_LE(timeline[i - 1].at, timeline[i].at);

  // Per component: strict fail/repair alternation starting with a fail, and
  // a repair for every fail (repairs may land beyond the horizon, fails not).
  std::map<std::tuple<ComponentClass, int, int>, int> open;
  for (const auto& ev : timeline) {
    int& depth = open[{ev.cls, ev.a, ev.b}];
    if (ev.kind == FaultKind::kFail) {
      EXPECT_EQ(depth, 0) << "fail while already down";
      EXPECT_LT(ev.at, kHorizon);
      ++depth;
    } else {
      EXPECT_EQ(depth, 1) << "repair of a healthy component";
      --depth;
    }
  }
  for (const auto& [key, depth] : open) EXPECT_EQ(depth, 0);
}

TEST(FaultTimeline, AllZeroMtbfIsEmptyAndFullyAvailable) {
  const FaultScheduler sched(FaultConfig{}, 8, 16, 42, kHorizon);
  EXPECT_TRUE(sched.timeline().empty());
  EXPECT_EQ(sched.availability(kHorizon), 1.0);
  EXPECT_EQ(sched.mean_mttr_ms(), 0.0);
}

TEST(FaultTimeline, AvailabilityIsAFractionAndMttrPositive) {
  const FaultScheduler sched(all_classes_config(), 8, 16, 42, kHorizon);
  const double avail = sched.availability(kHorizon);
  EXPECT_GT(avail, 0.0);
  EXPECT_LT(avail, 1.0);  // MTBF 50/80 ms over 200 ms: faults are certain
  EXPECT_GT(sched.mean_mttr_ms(), 0.0);
}

TEST(FaultTimeline, MalformedConfigThrows) {
  auto cfg = all_classes_config();
  cfg.mcm_mtbf_ms = -1.0;
  EXPECT_THROW(derive_timeline(cfg, 8, 16, 0, kHorizon), std::invalid_argument);

  cfg = all_classes_config();
  cfg.node_mttr_ms = 0.0;  // active class needs a positive repair time
  EXPECT_THROW(derive_timeline(cfg, 8, 16, 0, kHorizon), std::invalid_argument);

  cfg = all_classes_config();
  cfg.degrade_fraction = 0.0;
  EXPECT_THROW(derive_timeline(cfg, 8, 16, 0, kHorizon), std::invalid_argument);
  cfg.degrade_fraction = 1.5;
  EXPECT_THROW(derive_timeline(cfg, 8, 16, 0, kHorizon), std::invalid_argument);

  cfg = all_classes_config();
  cfg.backoff_cap_ms = 0.5 * cfg.backoff_base_ms;
  EXPECT_THROW(derive_timeline(cfg, 8, 16, 0, kHorizon), std::invalid_argument);

  EXPECT_THROW(derive_timeline(all_classes_config(), 1, 16, 0, kHorizon),
               std::invalid_argument);
  EXPECT_THROW(derive_timeline(all_classes_config(), 8, 0, 0, kHorizon),
               std::invalid_argument);
}

TEST(FaultTimeline, EnumCodecsRoundTrip) {
  EXPECT_EQ(resilience_policy_codec().parse("degrade"), ResiliencePolicy::kDegrade);
  EXPECT_EQ(resilience_policy_codec().name(ResiliencePolicy::kRequeue), "requeue");
  EXPECT_THROW((void)resilience_policy_codec().parse("bogus"), std::invalid_argument);
  EXPECT_EQ(component_class_codec().name(ComponentClass::kLaser), "laser");
}

// ---------------------------------------------------------------------------
// Fabric degradation hooks.
// ---------------------------------------------------------------------------

TEST(FaultFabric, PairScaleShrinksAndRestoresCapacityExactly) {
  net::WavelengthFabric fabric(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  const double cap = fabric.direct_capacity(3, 9);
  ASSERT_GT(cap, 0.0);

  fabric.push_pair_factor(3, 9, 0.0);  // link cut: the pair goes dark
  EXPECT_EQ(fabric.direct_capacity(3, 9), 0.0);
  EXPECT_EQ(fabric.free_direct(3, 9), 0.0);
  EXPECT_EQ(fabric.allocate_direct(3, 9, 10.0), 0.0);
  EXPECT_EQ(fabric.direct_capacity(9, 3), cap);  // directed: reverse unaffected
  fabric.pop_pair_factor(3, 9, 0.0);

  fabric.push_pair_factor(3, 9, 0.5);  // laser degradation
  EXPECT_EQ(fabric.direct_capacity(3, 9), 0.5 * cap);

  fabric.pop_pair_factor(3, 9, 0.5);  // repair restores the healthy numbers
  EXPECT_EQ(fabric.direct_capacity(3, 9), cap);
  EXPECT_EQ(fabric.free_direct(3, 9), cap);
}

TEST(FaultFabric, PairScaleRejectsBadPairAndBadScale) {
  net::WavelengthFabric fabric(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  EXPECT_THROW(fabric.push_pair_factor(5, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(fabric.push_pair_factor(-1, 2, 0.5), std::invalid_argument);
  EXPECT_THROW(fabric.push_pair_factor(1, 2, -0.1), std::invalid_argument);
  EXPECT_THROW(fabric.push_pair_factor(1, 2, 1.5), std::invalid_argument);
}

// The ISSUE 9 overlap fix: two faults degrading the same wavelength pair
// must compose, and each repair must remove exactly its own contribution —
// the last repair restores the healthy capacity bit for bit.  (An absolute
// per-pair setter would let the second fault clobber the first, so the
// earlier repair would "heal" a pair whose other fault was still active.)
TEST(FaultFabric, OverlappingPairFactorsComposeAndUnwindExactly) {
  net::WavelengthFabric fabric(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  const double cap = fabric.direct_capacity(3, 9);
  ASSERT_GT(cap, 0.0);

  fabric.push_pair_factor(3, 9, 0.5);  // laser degradation
  EXPECT_EQ(fabric.direct_capacity(3, 9), 0.5 * cap);
  fabric.push_pair_factor(3, 9, 0.0);  // overlapping link cut dominates
  EXPECT_EQ(fabric.direct_capacity(3, 9), 0.0);

  fabric.pop_pair_factor(3, 9, 0.5);  // laser repairs first: pair stays dark
  EXPECT_EQ(fabric.direct_capacity(3, 9), 0.0);
  fabric.pop_pair_factor(3, 9, 0.0);  // link repair: healthy again, exactly
  EXPECT_EQ(fabric.direct_capacity(3, 9), cap);
  EXPECT_EQ(fabric.free_direct(3, 9), cap);

  // Popping a factor that is not live is a repair-without-fail bug upstream.
  EXPECT_THROW(fabric.pop_pair_factor(3, 9, 0.5), std::logic_error);
}

TEST(FaultFabric, FactorProductIsPushOrderIndependent) {
  net::WavelengthFabric a(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  net::WavelengthFabric b(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  a.push_pair_factor(3, 9, 0.5);
  a.push_pair_factor(3, 9, 0.25);
  b.push_pair_factor(3, 9, 0.25);
  b.push_pair_factor(3, 9, 0.5);
  EXPECT_EQ(a.direct_capacity(3, 9), b.direct_capacity(3, 9));
  EXPECT_EQ(a.direct_capacity(3, 9), 0.125 * a.direct_capacity(9, 3));
}

// ---------------------------------------------------------------------------
// Co-simulation integration.
// ---------------------------------------------------------------------------

cosim::CosimConfig quick_cosim() {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = 4.0;
  cfg.sim_time = 120 * sim::kPsPerMs;
  cfg.mean_duration = 20 * sim::kPsPerMs;
  return cfg;
}

cosim::CosimReport run_with(disagg::AllocationPolicy policy,
                            const cosim::CosimConfig& cfg) {
  return cosim::run_rack_cosim({}, policy, workloads::UsageModel::cori(), cfg);
}

using testutil::expect_same_report;
using testutil::serialize;

// The zero-cost pin: an enabled engine whose every MTBF is zero derives an
// empty timeline, and every pre-existing report field matches the disabled
// run bit-for-bit (the fabric fast-paths keep the FP expressions intact).
TEST(FaultCosim, EnabledButIdleEngineChangesNothing) {
  const auto cfg = quick_cosim();
  auto with_idle_faults = cfg;
  with_idle_faults.fault.enabled = true;

  for (const auto policy : {disagg::AllocationPolicy::kStaticNodes,
                            disagg::AllocationPolicy::kDisaggregated}) {
    const auto off = run_with(policy, cfg);
    const auto idle = run_with(policy, with_idle_faults);
    expect_same_report(off, idle, {"jobs", "tails", "flows", "speed", "energy", "events"});

    EXPECT_FALSE(off.fault.enabled);
    EXPECT_TRUE(idle.fault.enabled);
    EXPECT_EQ(idle.fault.faults, 0u);
    EXPECT_EQ(idle.fault.interrupted, 0u);
    EXPECT_EQ(idle.fault.availability, 1.0);
    // With no faults every accepted job runs to completion.
    EXPECT_EQ(idle.fault.goodput_jobs, idle.jobs.accepted);
  }
}

TEST(FaultCosim, SameSeedSameFaultTrajectory) {
  auto cfg = quick_cosim();
  cfg.queue_cap = 64;
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.fault.enabled = true;
  cfg.fault.mcm_mtbf_ms = 60.0;
  cfg.fault.node_mtbf_ms = 240.0;

  const auto a = run_with(disagg::AllocationPolicy::kDisaggregated, cfg);
  const auto b = run_with(disagg::AllocationPolicy::kDisaggregated, cfg);
  expect_same_report(a, b);

  auto seeded = cfg;
  seeded.seed += 1;
  const auto c = run_with(disagg::AllocationPolicy::kDisaggregated, seeded);
  EXPECT_NE(a.fault.work_lost_ms, c.fault.work_lost_ms);
}

// Every accepted job ends exactly one way — completed (goodput) or killed —
// or is still waiting in the backlog; nothing is double-counted and the
// allocator drains to zero live allocations.
TEST(FaultCosim, PolicyConservationAndDrain) {
  for (const auto policy : {ResiliencePolicy::kKill, ResiliencePolicy::kRequeue,
                            ResiliencePolicy::kDegrade}) {
    auto cfg = quick_cosim();
    cfg.queue_cap = 64;
    cfg.admission = cosim::AdmissionPolicy::kQueue;
    cfg.fault.enabled = true;
    cfg.fault.policy = policy;
    cfg.fault.mcm_mtbf_ms = 60.0;
    cfg.fault.node_mtbf_ms = 240.0;

    cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                         workloads::UsageModel::cori(), cfg);
    sim.finish();
    const auto report = sim.report();

    EXPECT_GT(report.fault.faults, 0u);
    EXPECT_EQ(report.fault.repairs, report.fault.faults);
    EXPECT_GT(report.fault.interrupted, 0u);
    EXPECT_GT(report.fault.goodput_jobs, 0u);
    EXPECT_LE(report.fault.goodput_jobs + report.fault.killed,
              report.jobs.accepted);
    EXPECT_GT(report.fault.work_lost_ms, 0.0);
    EXPECT_GT(report.fault.availability, 0.0);
    EXPECT_LT(report.fault.availability, 1.0);
    EXPECT_GT(report.fault.mean_mttr_ms, 0.0);

    if (policy == ResiliencePolicy::kKill) {
      EXPECT_EQ(report.fault.requeued, 0u);
      EXPECT_EQ(report.fault.killed, report.fault.interrupted);
    } else {
      EXPECT_GT(report.fault.requeued, 0u);
    }
    if (policy == ResiliencePolicy::kDegrade) EXPECT_GT(report.fault.degraded, 0u);

    EXPECT_EQ(sim.live_jobs(), 0u);
    EXPECT_EQ(sim.allocator().live_allocations(), 0u);
    const auto& counters = sim.allocator().counters();
    EXPECT_EQ(counters.revocations + counters.releases, counters.placements);
  }
}

// The blast-radius asymmetry: identical fault timeline (same seed, same
// geometry), but disaggregated jobs hold fabric flows that an MCM crash
// severs, while static jobs only die when their own node crashes.
TEST(FaultCosim, DisaggregatedBlastRadiusExceedsStatic) {
  auto cfg = quick_cosim();
  cfg.queue_cap = 64;
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.fault.enabled = true;
  cfg.fault.mcm_mtbf_ms = 60.0;
  cfg.fault.node_mtbf_ms = 240.0;

  const auto stat = run_with(disagg::AllocationPolicy::kStaticNodes, cfg);
  const auto disagg = run_with(disagg::AllocationPolicy::kDisaggregated, cfg);

  // Same timeline: load-independent aggregates agree bit-for-bit.
  EXPECT_EQ(stat.fault.faults, disagg.fault.faults);
  EXPECT_EQ(stat.fault.availability, disagg.fault.availability);
  EXPECT_EQ(stat.fault.mean_mttr_ms, disagg.fault.mean_mttr_ms);
  // Different blast radius: fabric-bound jobs see far more revocations.
  EXPECT_GT(disagg.fault.interrupted, stat.fault.interrupted);
}

// ---------------------------------------------------------------------------
// Retry-admission semantics (ISSUE 9): the backlog is a kQueue-only
// structure, retries compete for it on the same queue_cap bound as fresh
// arrivals, and the censored-wait accounting excludes fault-requeued
// entries whose wait was already recorded at first placement.
// ---------------------------------------------------------------------------

cosim::CosimConfig faulty_requeue_cosim() {
  auto cfg = quick_cosim();
  cfg.fault.enabled = true;
  cfg.fault.policy = ResiliencePolicy::kRequeue;
  cfg.fault.mcm_mtbf_ms = 60.0;
  cfg.fault.node_mtbf_ms = 240.0;
  return cfg;
}

// Under kDrop a retry never touches the backlog: it re-attempts placement
// directly and backs off on failure, so a drop-mode run keeps wait
// identically zero and the backlog identically empty no matter how many
// jobs the fault engine requeues.
TEST(FaultCosim, DropModeRetriesNeverTouchTheBacklog) {
  auto cfg = faulty_requeue_cosim();
  cfg.admission = cosim::AdmissionPolicy::kDrop;

  cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                       workloads::UsageModel::cori(), cfg);
  for (sim::TimePs t = 10 * sim::kPsPerMs; t <= cfg.sim_time;
       t += 10 * sim::kPsPerMs) {
    sim.advance_to(t);
    EXPECT_EQ(sim.queued_jobs(), 0u);
  }
  sim.finish();
  const auto report = sim.report();
  EXPECT_GT(report.fault.requeued, 0u);
  EXPECT_EQ(report.jobs.censored_waiting, 0u);
  EXPECT_EQ(report.jobs.wait_ms.count, report.jobs.accepted);
  EXPECT_EQ(report.jobs.wait_ms.p999, 0.0);  // drop mode: placement or death
}

// Under kQueue a retry has no reserved headroom: the backlog never exceeds
// queue_cap with retries in flight, and a retry that finds it full is
// killed, not stashed.
TEST(FaultCosim, RetriesRespectTheQueueCapBound) {
  auto cfg = faulty_requeue_cosim();
  cfg.arrivals_per_ms = 8.0;  // overload so the backlog is routinely full
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 2;

  cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                       workloads::UsageModel::cori(), cfg);
  for (sim::TimePs t = sim::kPsPerMs; t <= cfg.sim_time; t += sim::kPsPerMs) {
    sim.advance_to(t);
    EXPECT_LE(sim.queued_jobs(), 2u);
  }
  sim.finish();
  const auto report = sim.report();
  EXPECT_GT(report.fault.requeued, 0u);
  EXPECT_GT(report.fault.killed, 0u);  // some retries found the backlog full
  EXPECT_EQ(sim.queued_jobs(), 0u);
  EXPECT_EQ(sim.live_jobs(), 0u);
}

// The censored-wait fix: fault-requeued backlog entries (record = false)
// already recorded their wait at first placement, so a mid-run report must
// not fold them into the censored counts — censored_waiting undercounts the
// raw backlog whenever a retry is parked in it, and the wait sketch ties
// out exactly against the acceptance counters at every instant.
TEST(FaultCosim, CensoredWaitExcludesFaultRequeuedEntries) {
  auto cfg = faulty_requeue_cosim();
  cfg.arrivals_per_ms = 8.0;
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 64;

  cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                       workloads::UsageModel::cori(), cfg);
  bool saw_parked_retry = false;
  for (sim::TimePs t = sim::kPsPerMs; t <= cfg.sim_time; t += sim::kPsPerMs) {
    sim.advance_to(t);
    const auto mid = sim.report();
    EXPECT_EQ(mid.jobs.wait_ms.count,
              mid.jobs.accepted + mid.jobs.censored_waiting);
    EXPECT_LE(mid.jobs.censored_waiting, sim.queued_jobs());
    saw_parked_retry |= mid.jobs.censored_waiting < sim.queued_jobs();
  }
  // Deterministic for the fixed seed: at least one sampling instant caught a
  // fault-requeued job waiting in the backlog (the case the fix excludes).
  EXPECT_TRUE(saw_parked_retry);
  sim.finish();
  const auto fin = sim.report();
  EXPECT_EQ(fin.jobs.censored_waiting, 0u);
  EXPECT_EQ(fin.jobs.wait_ms.count, fin.jobs.accepted);
}

// Requeue re-entrancy: a retry that lands in the backlog immediately drains
// it (schedule_retry -> push -> drain_backlog while a drain may already be
// on the stack).  The pin: the run stays FIFO-fair and conserves every job
// — nothing is lost, double-placed, or left behind — and the whole
// trajectory is reproducible.
TEST(FaultCosim, RequeuePushThenDrainConservesJobsAndStaysDeterministic) {
  auto cfg = faulty_requeue_cosim();
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  cfg.queue_cap = 64;  // ample: no retry should die on a full backlog

  cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                       workloads::UsageModel::cori(), cfg);
  sim.finish();
  const auto a = sim.report();
  EXPECT_GT(a.fault.requeued, 0u);
  // Conservation: the drain leaves nothing parked or running, so every
  // accepted job either completed or was killed by retry exhaustion.
  EXPECT_EQ(sim.queued_jobs(), 0u);
  EXPECT_EQ(sim.live_jobs(), 0u);
  EXPECT_EQ(a.fault.goodput_jobs + a.fault.killed, a.jobs.accepted);
  EXPECT_EQ(a.jobs.censored_waiting, 0u);
  EXPECT_EQ(a.jobs.censored_running, 0u);

  const auto b = run_with(disagg::AllocationPolicy::kDisaggregated, cfg);
  expect_same_report(a, b);
}

// ---------------------------------------------------------------------------
// Campaign determinism: the two fault campaigns serialize byte-identically
// at every --jobs level (the same pin test_scenario.cpp holds for the
// fault-free campaigns).
// ---------------------------------------------------------------------------

TEST(FaultCampaigns, AvailabilityIsByteIdenticalAcrossJobs) {
  const auto& campaign = scenario::campaign_by_name("cosim_availability");
  auto grid = campaign.default_grid();
  grid.set("fault.mcm_mtbf_ms", {"60"});
  grid.set("cosim.horizon_ms", {"120"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

TEST(FaultCampaigns, BlastRadiusIsByteIdenticalAcrossJobs) {
  const auto& campaign = scenario::campaign_by_name("cosim_blast_radius");
  auto grid = campaign.default_grid();
  grid.set("fault.mcm_mtbf_ms", {"60"});
  grid.set("cosim.horizon_ms", {"120"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

}  // namespace
}  // namespace photorack::fault
