#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rack/rack_builder.hpp"

namespace photorack::net {
namespace {

RouteResult route(IndirectRouter& router, int src, int dst, double gbps) {
  RouteResult out;
  router.route(src, dst, gbps, out);
  return out;
}

struct Rig {
  WavelengthFabric fabric;
  PiggybackView view;
  IndirectRouter router;

  explicit Rig(std::uint64_t seed = 1)
      : fabric(350, rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr),
        view(fabric, sim::kPsPerUs),
        router(fabric, view, seed) {}
};

TEST(Routing, SmallDemandGoesDirect) {
  Rig rig;
  const auto result = route(rig.router, 10, 20, 25.0);
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_DOUBLE_EQ(result.direct_gbps, 25.0);
  EXPECT_EQ(result.intermediates_used, 0);
}

TEST(Routing, DirectBudgetIs125Gbps) {
  Rig rig;
  const auto result = route(rig.router, 10, 20, 125.0);
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_GE(result.direct_gbps, 125.0);
  EXPECT_EQ(result.intermediates_used, 0);
}

TEST(Routing, LargeDemandSpillsToIndirect) {
  Rig rig;
  const auto result = route(rig.router, 10, 20, 500.0);
  EXPECT_TRUE(result.fully_satisfied());
  EXPECT_GT(result.indirect_gbps, 0.0);
  EXPECT_GT(result.intermediates_used, 0);
}

TEST(Routing, FullEscapeBandwidthReachable) {
  // Section VI-A case (A): one MCM can aim its whole escape bandwidth at a
  // single destination using indirect routing alone.
  Rig rig;
  const auto result = route(rig.router, 10, 20, 8000.0);
  EXPECT_GT(result.satisfied(), 7000.0);
}

TEST(Routing, ConservationOfSegments) {
  // Property: per-segment reservations equal direct + 1x indirect (src->mid)
  // + 1x indirect (mid->dst) + second-hop legs; releasing restores an idle
  // fabric exactly.
  Rig rig;
  const auto r1 = route(rig.router, 1, 2, 700.0);
  const auto r2 = route(rig.router, 3, 2, 400.0);
  rig.router.release(r1);
  rig.router.release(r2);
  EXPECT_NEAR(rig.fabric.utilization(), 0.0, 1e-12);
}

TEST(Routing, SegmentsAccountForSatisfiedBandwidth) {
  Rig rig;
  const auto result = route(rig.router, 5, 6, 300.0);
  double into_dst = 0.0;
  for (const auto& seg : result.segments)
    if (seg.to == 6) into_dst += seg.gbps;
  EXPECT_NEAR(into_dst, result.satisfied(), 1e-9);
}

TEST(Routing, NoSegmentTouchesSourceAsDestination) {
  Rig rig;
  const auto result = route(rig.router, 5, 6, 2000.0);
  for (const auto& seg : result.segments) {
    EXPECT_NE(seg.to, 5);
    EXPECT_NE(seg.from, 6);
  }
}

TEST(Routing, DeterministicForSeed) {
  Rig a(77), b(77);
  const auto ra = route(a.router, 8, 9, 1000.0);
  const auto rb = route(b.router, 8, 9, 1000.0);
  EXPECT_DOUBLE_EQ(ra.direct_gbps, rb.direct_gbps);
  EXPECT_DOUBLE_EQ(ra.indirect_gbps, rb.indirect_gbps);
  EXPECT_EQ(ra.segments.size(), rb.segments.size());
}

TEST(Routing, StaleViewTriggersSecondHop) {
  Rig rig;
  // Saturate mid->dst links behind the view's back: the view still believes
  // they are free, so a mis-pick and second-hop repair must occur.
  rig.view.force_refresh(0);
  for (int mid = 0; mid < 350; ++mid) {
    if (mid == 100 || mid == 200) continue;
    rig.fabric.allocate_direct(mid, 200, rig.fabric.direct_capacity(mid, 200));
  }
  const auto result = route(rig.router, 100, 200, 500.0);
  EXPECT_GT(result.stale_mispicks, 0);
  // Everything beyond the direct 125 Gb/s needed repair, and repair paths
  // into 200 are saturated too — so blocked bandwidth appears.
  EXPECT_GT(result.blocked_gbps, 0.0);
}

TEST(Routing, FreshViewAvoidsMispicks) {
  Rig rig;
  for (int mid = 0; mid < 350; ++mid) {
    if (mid == 100 || mid == 200) continue;
    rig.fabric.allocate_direct(mid, 200, rig.fabric.direct_capacity(mid, 200));
  }
  rig.view.force_refresh(0);  // now the view knows
  const auto result = route(rig.router, 100, 200, 500.0);
  EXPECT_EQ(result.stale_mispicks, 0);
  EXPECT_DOUBLE_EQ(result.indirect_gbps, 0.0);  // no candidates at all
}

TEST(Routing, CumulativeCountersAdvance) {
  Rig rig;
  (void)route(rig.router, 1, 2, 50.0);
  (void)route(rig.router, 2, 3, 50.0);
  EXPECT_EQ(rig.router.flows_routed(), 2u);
}

/// Fuzz property: any interleaving of route/refresh/release operations
/// leaves the fabric exactly empty once everything is released, never
/// over-allocates a wavelength, and never loses reserved bandwidth.
class RoutingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingFuzz, ConservationUnderRandomChurn) {
  Rig rig(GetParam());
  sim::Rng rng(GetParam() ^ 0xABCDEF);
  std::vector<RouteResult> live;
  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.55 || live.empty()) {
      const int src = static_cast<int>(rng.below(350));
      int dst = static_cast<int>(rng.below(350));
      if (dst == src) dst = (dst + 1) % 350;
      const double demand = rng.uniform(1.0, 600.0);
      auto r = route(rig.router, src, dst, demand);
      // Accounting identity: pieces sum to the request.
      EXPECT_NEAR(r.direct_gbps + r.indirect_gbps + r.blocked_gbps, r.requested, 1e-6);
      live.push_back(std::move(r));
    } else if (action < 0.85) {
      const std::size_t pick = rng.below(live.size());
      rig.router.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      rig.view.force_refresh(step);
    }
    EXPECT_LE(rig.fabric.utilization(), 1.0 + 1e-9);
  }
  for (const auto& r : live) rig.router.release(r);
  EXPECT_NEAR(rig.fabric.utilization(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- differential test: the bitset router against the scan it replaced ------
//
// ReferenceRouter is IndirectRouter as it was before the free bitsets: an
// ascending candidate vector built from free_direct() > 1e-9 and from a
// stale free table that this test holds (a copy of every free_direct() taken
// at each refresh), then one below(n) draw into it.  Twin fabrics take the
// same seeded operations through both routers, and every result, counter and
// allocation cell must agree exactly after every operation.

class ReferenceRouter {
 public:
  ReferenceRouter(WavelengthFabric& fabric, std::uint64_t seed)
      : fabric_(&fabric), rng_(seed) {
    refresh();
  }

  void refresh() {
    const auto n = static_cast<std::size_t>(fabric_->mcms());
    stale_.resize(n * n);
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t d = 0; d < n; ++d)
        stale_[s * n + d] = fabric_->free_direct(static_cast<int>(s), static_cast<int>(d));
  }

  RouteResult route(int src, int dst, double gbps) {
    RouteResult out;
    out.requested = gbps;
    ++flows_;
    const double direct = fabric_->allocate_direct(src, dst, gbps);
    if (direct > 0.0) {
      out.direct_gbps = direct;
      out.segments.push_back({src, dst, direct});
    }
    double remaining = gbps - direct;
    while (remaining > 1e-9 && out.intermediates_used < kMaxIntermediatesPerFlow) {
      const double placed = try_indirect(src, dst, remaining, out);
      if (placed <= 1e-9) break;
      remaining -= placed;
    }
    out.indirect_gbps = gbps - direct - remaining;
    out.blocked_gbps = remaining;
    return out;
  }

  void release(const RouteResult& result) {
    for (const auto& seg : result.segments) fabric_->release_direct(seg.from, seg.to, seg.gbps);
  }

  [[nodiscard]] std::uint64_t flows_routed() const { return flows_; }
  [[nodiscard]] std::uint64_t total_mispicks() const { return mispicks_; }
  [[nodiscard]] std::uint64_t total_second_hops() const { return second_hops_; }

 private:
  WavelengthFabric* fabric_;
  sim::Rng rng_;
  std::vector<double> stale_;
  std::uint64_t flows_ = 0, mispicks_ = 0, second_hops_ = 0;

  [[nodiscard]] double stale_free_direct(int src, int dst) const {
    return stale_[static_cast<std::size_t>(src) * static_cast<std::size_t>(fabric_->mcms()) +
                  static_cast<std::size_t>(dst)];
  }

  double try_indirect(int src, int dst, double gbps, RouteResult& out) {
    std::vector<int> candidates;
    for (int mid = 0; mid < fabric_->mcms(); ++mid) {
      if (mid == src || mid == dst) continue;
      if (fabric_->free_direct(src, mid) <= 1e-9) continue;
      if (stale_free_direct(mid, dst) <= 1e-9) continue;
      candidates.push_back(mid);
    }
    if (candidates.empty()) return 0.0;

    const int mid = candidates[rng_.below(candidates.size())];
    ++out.intermediates_used;
    const double leg1_want = std::min(gbps, fabric_->free_direct(src, mid));
    const double leg1 = fabric_->allocate_direct(src, mid, leg1_want);
    const double leg2 = fabric_->allocate_direct(mid, dst, leg1);
    double placed = leg2;
    double stranded = leg1 - leg2;

    if (stranded > 1e-9) {
      ++mispicks_;
      ++out.stale_mispicks;
      for (int mid2 = 0; mid2 < fabric_->mcms() && stranded > 1e-9; ++mid2) {
        if (mid2 == mid || mid2 == dst || mid2 == src) continue;
        if (fabric_->free_direct(mid, mid2) <= 1e-9) continue;
        if (fabric_->free_direct(mid2, dst) <= 1e-9) continue;
        const double want = std::min({stranded, fabric_->free_direct(mid, mid2),
                                      fabric_->free_direct(mid2, dst)});
        const double a = fabric_->allocate_direct(mid, mid2, want);
        const double b = fabric_->allocate_direct(mid2, dst, a);
        if (a - b > 1e-9) fabric_->release_direct(mid, mid2, a - b);
        if (b > 0.0) {
          out.segments.push_back({mid, mid2, b});
          out.segments.push_back({mid2, dst, b});
          ++second_hops_;
          ++out.second_hops;
          placed += b;
          stranded -= b;
        }
      }
      if (stranded > 1e-9) fabric_->release_direct(src, mid, stranded);
    }

    if (placed > 0.0) {
      out.segments.push_back({src, mid, placed});
      if (leg2 > 0.0) out.segments.push_back({mid, dst, leg2});
    }
    return placed;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_route(const RouteResult& got, const RouteResult& want, int op) {
  ASSERT_EQ(bits(got.requested), bits(want.requested)) << "op " << op;
  ASSERT_EQ(bits(got.direct_gbps), bits(want.direct_gbps)) << "op " << op;
  ASSERT_EQ(bits(got.indirect_gbps), bits(want.indirect_gbps)) << "op " << op;
  ASSERT_EQ(bits(got.blocked_gbps), bits(want.blocked_gbps)) << "op " << op;
  ASSERT_EQ(got.intermediates_used, want.intermediates_used) << "op " << op;
  ASSERT_EQ(got.stale_mispicks, want.stale_mispicks) << "op " << op;
  ASSERT_EQ(got.second_hops, want.second_hops) << "op " << op;
  ASSERT_EQ(got.segments.size(), want.segments.size()) << "op " << op;
  for (std::size_t i = 0; i < got.segments.size(); ++i) {
    ASSERT_EQ(got.segments[i].from, want.segments[i].from) << "op " << op << " seg " << i;
    ASSERT_EQ(got.segments[i].to, want.segments[i].to) << "op " << op << " seg " << i;
    ASSERT_EQ(bits(got.segments[i].gbps), bits(want.segments[i].gbps))
        << "op " << op << " seg " << i;
  }
}

struct RouterCounts {
  std::uint64_t mispicks = 0, second_hops = 0, blocked = 0;
};

/// Seeded random route / release / push / pop / refresh operations on twin
/// fabrics, one routed by IndirectRouter and one by ReferenceRouter, checked
/// after every operation.  Half the routes go between a few hot MCMs, so
/// stale views mispick; demands run from direct-only up to the source's full
/// escape bandwidth.
RouterCounts run_differential(int mcms, const rack::AwgrFabricPlan& plan, int ops,
                              std::uint64_t seed) {
  WavelengthFabric fabric(mcms, plan);
  WavelengthFabric ref_fabric(mcms, plan);
  PiggybackView view(fabric, sim::kPsPerUs);
  IndirectRouter router(fabric, view, seed);
  ReferenceRouter reference(ref_fabric, seed);
  sim::Rng rng(seed ^ 0x5EED);
  const auto pick = [&](int n) { return static_cast<int>(rng.below(static_cast<std::uint64_t>(n))); };
  const int hot = std::min(mcms, 6);
  struct Factor {
    int src, dst;
    double value;
  };
  std::vector<RouteResult> held, held_ref, spare;
  std::vector<Factor> factors;
  RouterCounts counts;

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45 || held.empty()) {
      const int span = rng.bernoulli(0.5) ? hot : mcms;
      const int src = pick(span);
      const int dst = (src + 1 + pick(span - 1)) % span;
      double escape = 0.0;
      for (int d = 0; d < mcms; ++d) escape += ref_fabric.direct_capacity(src, d);
      const double demand = rng.bernoulli(0.5)
                                ? rng.uniform(0.0, ref_fabric.direct_capacity(src, dst))
                                : rng.uniform(0.0, escape);
      // Reuse a released result half the time: route() must overwrite it.
      RouteResult got;
      if (!spare.empty() && rng.bernoulli(0.5)) {
        got = std::move(spare.back());
        spare.pop_back();
      }
      router.route(src, dst, demand, got);
      const RouteResult want = reference.route(src, dst, demand);
      expect_same_route(got, want, op);
      if (::testing::Test::HasFatalFailure()) return counts;
      if (want.blocked_gbps > 1e-9) ++counts.blocked;
      held.push_back(std::move(got));
      held_ref.push_back(want);
    } else if (roll < 0.70) {
      const auto i = static_cast<std::size_t>(pick(static_cast<int>(held.size())));
      router.release(held[i]);
      reference.release(held_ref[i]);
      spare.push_back(std::move(held[i]));
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      held_ref.erase(held_ref.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 0.80 || (roll < 0.85 && factors.empty())) {
      const int src = pick(hot);
      const int dst = (src + 1 + pick(mcms - 1)) % mcms;
      const double value = rng.bernoulli(0.5) ? 0.0 : 0.5;
      fabric.push_pair_factor(src, dst, value);
      ref_fabric.push_pair_factor(src, dst, value);
      factors.push_back({src, dst, value});
    } else if (roll < 0.85) {
      const auto i = static_cast<std::size_t>(pick(static_cast<int>(factors.size())));
      fabric.pop_pair_factor(factors[i].src, factors[i].dst, factors[i].value);
      ref_fabric.pop_pair_factor(factors[i].src, factors[i].dst, factors[i].value);
      factors.erase(factors.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      view.force_refresh(op);
      reference.refresh();
    }
    EXPECT_EQ(router.flows_routed(), reference.flows_routed()) << "op " << op;
    EXPECT_EQ(router.total_mispicks(), reference.total_mispicks()) << "op " << op;
    EXPECT_EQ(router.total_second_hops(), reference.total_second_hops()) << "op " << op;
    const std::vector<double> cells = fabric.allocation_snapshot();
    const std::vector<double> ref_cells = ref_fabric.allocation_snapshot();
    const bool same = std::equal(cells.begin(), cells.end(), ref_cells.begin(), ref_cells.end(),
                                 [](double a, double b) { return bits(a) == bits(b); });
    EXPECT_TRUE(same) << "allocation tables diverge after op " << op;
    if (!same) return counts;
  }
  counts.mispicks = reference.total_mispicks();
  counts.second_hops = reference.total_second_hops();
  return counts;
}

TEST(RoutingDifferential, CosimSliceOneLambda) {
  const RouterCounts c = run_differential(24, slice_awgr_plan({.mcms = 24}), 3000, 101);
  EXPECT_GT(c.mispicks, 0u);
  EXPECT_GT(c.second_hops, 0u);
  EXPECT_GT(c.blocked, 0u);
}

TEST(RoutingDifferential, MultiWordSlicesTwoLambdas) {
  // 64 MCMs fill exactly one bitset word, 65 spill one bit into a second
  // word, 130 span three.
  for (const int mcms : {64, 65, 130}) {
    SCOPED_TRACE(mcms);
    const RouterCounts c =
        run_differential(mcms, slice_awgr_plan({.mcms = mcms, .lambdas_per_pair = 2}), 1500,
                         200 + static_cast<std::uint64_t>(mcms));
    if (HasFatalFailure()) return;
    EXPECT_GT(c.mispicks, 0u);
    EXPECT_GT(c.second_hops, 0u);
  }
}

TEST(RoutingDifferential, PaperPlanWithPartialSixthAwgr) {
  const auto plan = rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr;
  ASSERT_EQ(plan.lambdas_per_port.size(), 6u);
  const RouterCounts c = run_differential(350, plan, 300, 350);
  EXPECT_GT(c.mispicks, 0u);
}

}  // namespace
}  // namespace photorack::net
