// The ISSUE 8 fault-engine contracts: the timeline is a pure function of
// (config, geometry, seed) — byte-identical across --jobs levels and
// allocation policies, divergent under seed+1 — an enabled-but-idle engine
// changes no reported number, every resilience policy conserves jobs, and
// the blast-radius asymmetry (disaggregated jobs ride the fabric, static
// jobs hide inside their node) is pinned as an inequality.
#include "fault/fault_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cosim/rack_cosim.hpp"
#include "cosim/report_fields.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "rack/rack_builder.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

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
  EXPECT_EQ(sched.sums(kHorizon).availability(), 1.0);
  EXPECT_EQ(sched.sums(kHorizon).mean_mttr_ms(), 0.0);
}

TEST(FaultTimeline, AvailabilityIsAFractionAndMttrPositive) {
  const FaultScheduler sched(all_classes_config(), 8, 16, 42, kHorizon);
  const double avail = sched.sums(kHorizon).availability();
  EXPECT_GT(avail, 0.0);
  EXPECT_LT(avail, 1.0);  // MTBF 50/80 ms over 200 ms: faults are certain
  EXPECT_GT(sched.sums(kHorizon).mean_mttr_ms(), 0.0);
}

// Reference availability and MTTR: a std::map pairing of each fail with its
// repair instead of the scheduler's flat per-component table.  Same
// summation order, so the results must agree bit for bit.
double reference_availability(const std::vector<FaultEvent>& timeline, int mcms,
                              int nodes, sim::TimePs horizon) {
  if (horizon <= 0) return 1.0;
  std::map<std::tuple<int, int, int>, sim::TimePs> down_since;
  double downtime_ps = 0.0;
  for (const FaultEvent& ev : timeline) {
    if (ev.cls != ComponentClass::kMcm && ev.cls != ComponentClass::kNode) continue;
    const auto key = std::make_tuple(static_cast<int>(ev.cls), ev.a, ev.b);
    if (ev.kind == FaultKind::kFail) {
      down_since[key] = ev.at;
    } else {
      const sim::TimePs from = std::min(down_since[key], horizon);
      const sim::TimePs to = std::min(ev.at, horizon);
      downtime_ps += static_cast<double>(to - from);
      down_since.erase(key);
    }
  }
  const double window = static_cast<double>(horizon) * static_cast<double>(mcms + nodes);
  return std::clamp(1.0 - downtime_ps / window, 0.0, 1.0);
}

double reference_mean_mttr_ms(const std::vector<FaultEvent>& timeline) {
  std::map<std::tuple<int, int, int>, sim::TimePs> fail_at;
  double total_ms = 0.0;
  std::uint64_t repairs = 0;
  for (const FaultEvent& ev : timeline) {
    const auto key = std::make_tuple(static_cast<int>(ev.cls), ev.a, ev.b);
    if (ev.kind == FaultKind::kFail) {
      fail_at[key] = ev.at;
    } else {
      total_ms += static_cast<double>(ev.at - fail_at[key]) /
                  static_cast<double>(sim::kPsPerMs);
      ++repairs;
    }
  }
  return repairs ? total_ms / static_cast<double>(repairs) : 0.0;
}

TEST(FaultTimeline, AvailabilityAndMttrMatchTheMapReferenceBitForBit) {
  constexpr int kMcms = 24, kNodes = 16;
  for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL, 42ULL, 99ULL}) {
    const FaultScheduler sched(all_classes_config(), kMcms, kNodes, seed, kHorizon);
    const auto& timeline = sched.timeline();
    ASSERT_FALSE(timeline.empty());
    // A horizon inside the first crash-stop downtime, so one repair is cut
    // off by the window.
    const auto fail = std::find_if(timeline.begin(), timeline.end(), [](const auto& ev) {
      return ev.kind == FaultKind::kFail && ev.cls == ComponentClass::kMcm;
    });
    ASSERT_NE(fail, timeline.end());
    const auto repair = std::find_if(fail + 1, timeline.end(), [&](const auto& ev) {
      return ev.cls == fail->cls && ev.a == fail->a;
    });
    ASSERT_NE(repair, timeline.end());
    ASSERT_EQ(repair->kind, FaultKind::kRepair);
    ASSERT_GT(repair->at - fail->at, 1);
    const sim::TimePs cut = fail->at + (repair->at - fail->at) / 2;

    for (const sim::TimePs horizon : {kHorizon, cut, kHorizon / 3, sim::TimePs{0}}) {
      const TimelineSums sums = sched.sums(horizon);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sums.availability()),
                std::bit_cast<std::uint64_t>(
                    reference_availability(timeline, kMcms, kNodes, horizon)))
          << "seed " << seed << " horizon " << horizon;
      // Repairs count over the whole timeline, whatever the horizon.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sums.mean_mttr_ms()),
                std::bit_cast<std::uint64_t>(reference_mean_mttr_ms(timeline)))
          << "seed " << seed << " horizon " << horizon;
    }
  }
}

TEST(FaultTimeline, ArmFiresTheTimelineInOrderWithConsecutiveIds) {
  const FaultScheduler sched(all_classes_config(), 8, 16, 7, kHorizon);
  const auto& timeline = sched.timeline();
  sim::EventQueue queue;
  const std::uint64_t before = queue.schedule_at(0, [] {});
  std::vector<FaultEvent> fired;
  sched.arm(queue, [&](const FaultEvent& ev) {
    EXPECT_EQ(queue.now(), ev.at);
    fired.push_back(ev);
  });
  EXPECT_EQ(queue.stats().scheduled, timeline.size() + 1);
  EXPECT_EQ(queue.pending(), timeline.size() + 1);
  EXPECT_EQ(queue.stats().pending_peak, timeline.size() + 1);
  // The timeline holds ids before+1 .. before+n: the next id follows them.
  EXPECT_EQ(queue.schedule_at(0, [] {}), before + 1 + timeline.size());
  queue.run();
  EXPECT_EQ(fired, timeline);
  EXPECT_EQ(queue.stats().dispatched, timeline.size() + 2);
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

/// What a fabric's factor stack must read, rebuilt from scratch: each pair
/// keeps its live factors unsorted, in push order, and its scale is the
/// product over a sorted copy.  Free capacity and utilization are
/// recomputed from the fabric's cell table with the fabric's expressions,
/// and the running used total follows the table's changes cell by cell.
class FactorStackReference {
 public:
  explicit FactorStackReference(const net::WavelengthFabric& fabric)
      : fabric_(fabric),
        mcms_(static_cast<std::size_t>(fabric.mcms())),
        cells_(fabric.allocation_snapshot()),
        scale_(mcms_ * mcms_, 1.0),
        live_(mcms_ * mcms_) {
    covered_.reserve(cells_.size());
    for (int a = 0; a < fabric.parallel_awgrs(); ++a)
      for (int s = 0; s < fabric.mcms(); ++s)
        for (int d = 0; d < fabric.mcms(); ++d) covered_.push_back(fabric.covers(a, s, d));
  }

  [[nodiscard]] const std::vector<double>& live(int src, int dst) const {
    return live_[pair(src, dst)];
  }
  void push(int src, int dst, double factor) {
    live_[pair(src, dst)].push_back(factor);
    rescale(src, dst);
  }
  void pop(int src, int dst, std::size_t i) {
    auto& live = live_[pair(src, dst)];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    rescale(src, dst);
  }

  /// Carry the cells the last call changed into the used total, in table
  /// order, snapping to 0.0 when no cell holds anything.
  void sync_cells() {
    const std::vector<double> now = fabric_.allocation_snapshot();
    for (std::size_t c = 0; c < now.size(); ++c) {
      if (now[c] == cells_[c]) continue;
      used_ += now[c] - cells_[c];
      if (cells_[c] == 0.0) ++nonzero_;
      if (now[c] == 0.0) --nonzero_;
      if (nonzero_ == 0) used_ = 0.0;
    }
    cells_ = now;
  }

  [[nodiscard]] double scale(int src, int dst) const { return scale_[pair(src, dst)]; }
  [[nodiscard]] double capacity(int src, int dst) const {
    return fabric_.direct_lambdas(src, dst) * fabric_.gbps_per_wavelength() * scale(src, dst);
  }
  [[nodiscard]] double free_direct(int src, int dst) const {
    const double g = fabric_.gbps_per_wavelength();
    const double sc = scale(src, dst);
    double free = 0.0;
    for (std::size_t c = pair(src, dst); c < cells_.size(); c += mcms_ * mcms_) {
      if (!covered_[c]) continue;
      free += sc == 1.0 ? g - cells_[c] : std::max(0.0, g * sc - cells_[c]);
    }
    return free;
  }
  [[nodiscard]] double utilization() const {
    const double g = fabric_.gbps_per_wavelength();
    double cap = 0.0;
    for (std::size_t a = 0; a < cells_.size(); a += scale_.size())
      for (std::size_t p = 0; p < scale_.size(); ++p)
        if (covered_[a + p]) cap += scale_[p] == 1.0 ? g : g * scale_[p];
    return cap > 0.0 ? used_ / cap : 0.0;
  }

 private:
  [[nodiscard]] std::size_t pair(int src, int dst) const {
    return static_cast<std::size_t>(src) * mcms_ + static_cast<std::size_t>(dst);
  }
  void rescale(int src, int dst) {
    std::vector<double> sorted = live_[pair(src, dst)];
    std::sort(sorted.begin(), sorted.end());
    double product = 1.0;
    for (const double f : sorted) product *= f;
    scale_[pair(src, dst)] = product;
  }

  const net::WavelengthFabric& fabric_;
  std::size_t mcms_;
  std::vector<double> cells_;
  std::vector<char> covered_;
  std::vector<double> scale_;
  std::vector<std::vector<double>> live_;
  double used_ = 0.0;
  std::size_t nonzero_ = 0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Drive `steps` seeded random factor pushes and pops, interleaved with
/// direct allocations and releases, on three pairs of `fabric`, and compare
/// every derived number with the reference after each call.  Returns the
/// deepest factor stack seen on one pair.
std::size_t drive_factor_stack(net::WavelengthFabric& fabric, std::uint64_t seed,
                               int steps) {
  constexpr double kFactors[] = {0.0, 0.25, 0.3, 0.5, 0.7, 1.0};
  const int last = fabric.mcms() - 1;
  const std::pair<int, int> pairs[] = {{3, 9}, {9, 3}, {0, last}};
  FactorStackReference ref(fabric);
  sim::Rng rng(seed);
  std::size_t deepest = 0;
  for (int step = 0; step < steps; ++step) {
    const auto [s, d] = pairs[rng.below(3)];
    const std::vector<double>& live = ref.live(s, d);
    switch (rng.below(4)) {
      case 0:
        if (live.size() < 4) {
          const double f = kFactors[rng.below(6)];
          fabric.push_pair_factor(s, d, f);
          ref.push(s, d, f);
          break;
        }
        [[fallthrough]];  // four live factors: pop one instead
      case 1:
        if (!live.empty()) {
          const std::size_t i = rng.below(live.size());
          fabric.pop_pair_factor(s, d, live[i]);
          ref.pop(s, d, i);
        }
        break;
      case 2:
        fabric.allocate_direct(s, d, 40.0 * rng.uniform());
        break;
      default:
        fabric.release_direct(s, d, fabric.allocated(s, d) * rng.uniform());
        break;
    }
    ref.sync_cells();
    deepest = std::max(deepest, live.size());
    for (const auto& [ps, pd] : pairs) {
      SCOPED_TRACE(testing::Message() << "step " << step << " pair " << ps << "->" << pd);
      EXPECT_EQ(bits(fabric.pair_scale(ps, pd)), bits(ref.scale(ps, pd)));
      EXPECT_EQ(bits(fabric.direct_capacity(ps, pd)), bits(ref.capacity(ps, pd)));
      EXPECT_EQ(bits(fabric.free_direct(ps, pd)), bits(ref.free_direct(ps, pd)));
    }
    EXPECT_EQ(bits(fabric.utilization()), bits(ref.utilization())) << "step " << step;
    if (testing::Test::HasFailure()) break;
  }
  return deepest;
}

// Non-power-of-two factors, and three or four of them live on one pair,
// make the product's order visible in its last bits: the fabric's scale
// must be the ascending product whatever order the faults arrived in.
TEST(FaultFabric, FactorStackMatchesASortedCopyReference) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    net::WavelengthFabric slice(24, net::slice_awgr_plan({.mcms = 24, .lambdas_per_pair = 2}));
    EXPECT_GE(drive_factor_stack(slice, seed, 4000), 3u);
  }
  // The paper plan's 6 x 350^2 cells make each reference pass costly.
  net::WavelengthFabric paper(
      350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
  EXPECT_GE(drive_factor_stack(paper, 7, 200), 3u);
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

// Every accepted job ends exactly one way — completed (goodput) or killed;
// after the drain nothing waits in the backlog, nothing is double-counted
// and the allocator holds zero live allocations.  Both admission modes run:
// a drop-mode retry re-places directly, a queue-mode one waits in the
// backlog, and both must conserve jobs.
TEST(FaultCosim, PolicyConservationAndDrain) {
  for (const auto admission :
       {cosim::AdmissionPolicy::kDrop, cosim::AdmissionPolicy::kQueue}) {
    for (const auto policy : {ResiliencePolicy::kKill, ResiliencePolicy::kRequeue,
                              ResiliencePolicy::kDegrade}) {
      SCOPED_TRACE(cosim::admission_policy_codec().name(admission) + " / " +
                   resilience_policy_codec().name(policy));
      auto cfg = quick_cosim();
      cfg.queue_cap = 64;
      cfg.admission = admission;
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
      EXPECT_EQ(report.fault.goodput_jobs + report.fault.killed,
                report.jobs.accepted);
      EXPECT_EQ(sim.queued_jobs(), 0u);
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

// Energy oracle: the power level can only change when an event moves the
// allocator, so stepping a faulty run one event at a time and integrating
// the level recomputed from the pools after each event must reproduce the
// reported energy.  A fault retry that places a job (directly under drop,
// through the backlog under queue) moves the allocator like any other
// admission, so the trace has to step on it too.
TEST(FaultCosim, EnergyMatchesAnEventByEventOracle) {
  for (const auto admission :
       {cosim::AdmissionPolicy::kDrop, cosim::AdmissionPolicy::kQueue}) {
    for (const auto policy : {ResiliencePolicy::kRequeue, ResiliencePolicy::kDegrade}) {
      SCOPED_TRACE(cosim::admission_policy_codec().name(admission) + " / " +
                   resilience_policy_codec().name(policy));
      auto cfg = faulty_requeue_cosim();
      cfg.admission = admission;
      cfg.fault.policy = policy;
      const rack::RackConfig rack;
      cosim::RackCosim sim(rack, disagg::AllocationPolicy::kDisaggregated,
                           workloads::UsageModel::cori(), cfg);
      const double photonic_w = sim.report().photonic_power_w;
      const double nodes = rack.nodes;
      const double idle = cfg.idle_power_fraction;
      auto level = [&](double utilization, double full_watts) {
        return full_watts * (idle + (1.0 - idle) * utilization);
      };
      auto rack_watts = [&] {
        const auto& pools = sim.allocator().pools();
        const auto& base = cfg.baseline;
        return level(pools.cpu_utilization(), nodes * base.cpu_per_node.value) +
               level(pools.gpu_utilization(),
                     nodes * rack.node.gpus * base.gpu_each.value) +
               level(pools.memory_utilization(), nodes * base.memory_per_node.value) +
               photonic_w;
      };

      double joules = 0.0, watts = rack_watts();
      sim::TimePs last = 0;
      for (sim::TimePs t = sim.next_event_time(); t != INT64_MAX;
           t = sim.next_event_time()) {
        sim.advance_to(t + 1);  // every event at t, nothing later
        joules += watts * (sim::to_s(t) - sim::to_s(last));
        last = t;
        watts = rack_watts();
      }
      const auto report = sim.report();
      EXPECT_GT(report.fault.requeued, 0u);
      EXPECT_NEAR(report.energy_joules, joules, 1e-9 * joules);
    }
  }
}

/// The "speed" argument of every trace instant named `name`, in trace order.
std::vector<double> traced_speeds(const obs::TraceRecorder& trace, const std::string& name) {
  std::ostringstream os;
  trace.write_json(os);
  std::istringstream lines(os.str());
  const std::string tag = "{\"name\":\"" + name + "\"";
  std::vector<double> out;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(tag, 0) != 0) continue;
    const auto at = line.find("\"speed\":");
    if (at != std::string::npos) out.push_back(std::stod(line.substr(at + 8)));
  }
  return out;
}

// A spilled job runs behind the inter-rack grant it was delivered with.  A
// fabric fault that degrades it drops some of its local flows, which never
// widens the pipe between racks: the re-stretched speed keeps the cap.
TEST(FaultCosim, DegradedSpilledJobKeepsItsInterRackCap) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = 1e-6;  // no local arrival inside the horizon
  cfg.sim_time = 200 * sim::kPsPerMs;
  cfg.fault.enabled = true;
  cfg.fault.policy = ResiliencePolicy::kDegrade;
  cfg.fault.mcm_mtbf_ms = 20.0;
  cfg.fault.link_mtbf_ms = 20.0;
  obs::TraceRecorder trace;
  cosim::RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                       workloads::UsageModel::cori(), cfg, obs::Obs{.trace = &trace});
  constexpr double kCap = 0.25;
  sim::Rng rng(7);
  for (int k = 0; k < 200; ++k) {
    cosim::RackCosim::JobPlan plan;
    plan.request.cpus = 1;
    plan.request.memory_gb = 1.0;
    plan.base_hold = 40 * sim::kPsPerMs;
    for (int f = 0; f < 4; ++f) {
      const int src = static_cast<int>(rng.below(24));
      const int dst = static_cast<int>((src + 1 + rng.below(23)) % 24);
      plan.flows.push_back(net::FlowSpec{src, dst, 10.0 * rng.uniform(), 0});
    }
    plan.remote = {.speed_cap = kCap, .link = 0, .gbps = 1.0};
    const sim::TimePs at = k * sim::kPsPerMs;
    sim.inject_remote_job(std::move(plan), at, at);
  }
  sim.finish();
  ASSERT_GT(sim.report().fault.degraded, 0u);
  const double most = std::max(kCap, cfg.min_speed_fraction);
  for (const char* event : {"placed", "degrade"}) {
    const std::vector<double> speeds = traced_speeds(trace, event);
    ASSERT_FALSE(speeds.empty()) << event;
    for (const double speed : speeds) EXPECT_LE(speed, most) << event;
  }
}

// FNV-1a over the bit pattern of every report field, in table order.
std::uint64_t report_digest(const cosim::CosimReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const cosim::ReportField& field : cosim::report_fields()) {
    const auto bits = std::bit_cast<std::uint64_t>(field.get(report));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// The fault and admission paths no golden campaign runs, pinned byte for
// byte: link and laser faults beside MCM and node faults, static-policy node
// victims, training-job victims, and arrivals a full backlog refuses while
// an ML mix is drawn.  A change that moves any report bit on these paths
// fails here; a deliberate one re-pins the constants.  Static jobs never run
// degraded (fabric faults pass them by, a node crash requeues them), so both
// static cases share one digest.
TEST(FaultCosim, UngoldenedFaultAndAdmissionPathsKeepTheirDigests) {
  using disagg::AllocationPolicy;
  const struct {
    const char* name;
    AllocationPolicy policy;
    ResiliencePolicy resilience;
    double ml_mix;
    int queue_cap;
    std::uint64_t digest;
  } cases[] = {
      {"static/requeue", AllocationPolicy::kStaticNodes, ResiliencePolicy::kRequeue, 0.0,
       64, 0x0c7ebd06b2495e4eULL},
      {"static/degrade", AllocationPolicy::kStaticNodes, ResiliencePolicy::kDegrade, 0.0,
       64, 0x0c7ebd06b2495e4eULL},
      {"disagg/requeue", AllocationPolicy::kDisaggregated, ResiliencePolicy::kRequeue,
       0.0, 64, 0x672abf5922a71aeeULL},
      {"disagg/degrade", AllocationPolicy::kDisaggregated, ResiliencePolicy::kDegrade,
       0.0, 64, 0x0aaa92c11aed8fa9ULL},
      {"disagg/kill/ml", AllocationPolicy::kDisaggregated, ResiliencePolicy::kKill, 0.5,
       4, 0x60046f725a244ae0ULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    cosim::CosimConfig cfg;
    cfg.sim_time = 200 * sim::kPsPerMs;
    cfg.admission = cosim::AdmissionPolicy::kQueue;
    cfg.queue_cap = c.queue_cap;
    cfg.fault.enabled = true;
    cfg.fault.policy = c.resilience;
    cfg.fault.mcm_mtbf_ms = 60.0;
    cfg.fault.node_mtbf_ms = 60.0;
    cfg.fault.link_mtbf_ms = 60.0;
    cfg.fault.laser_mtbf_ms = 60.0;
    cfg.ml.enabled = c.ml_mix > 0.0;
    cfg.ml.mix_fraction = c.ml_mix;
    const auto report = run_with(c.policy, cfg);
    // Each case reaches the path it pins: victims, refused arrivals (under
    // queueing only a full backlog leaves an offer unaccepted), degraded
    // jobs, and killed training jobs.
    EXPECT_GT(report.fault.interrupted, 0u);
    EXPECT_GT(report.jobs.offered, report.jobs.accepted);
    if (c.resilience == ResiliencePolicy::kDegrade &&
        c.policy == AllocationPolicy::kDisaggregated)
      EXPECT_GT(report.fault.degraded, 0u);
    if (c.ml_mix > 0.0) EXPECT_LT(report.ml.jobs_completed, report.ml.jobs_accepted);
    EXPECT_EQ(report_digest(report), c.digest)
        << std::hex << "0x" << report_digest(report);
  }
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
