#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "net/piggyback.hpp"
#include "rack/rack_builder.hpp"
#include "sim/rng.hpp"

namespace photorack::net {
namespace {

rack::AwgrFabricPlan paper_plan() {
  return rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr;
}

TEST(Fabric, ConstructionFromPaperPlan) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_EQ(fabric.mcms(), 350);
  EXPECT_EQ(fabric.parallel_awgrs(), 6);
  EXPECT_DOUBLE_EQ(fabric.gbps_per_wavelength(), 25.0);
}

TEST(Fabric, EveryPairHasAtLeastFiveDirectLambdas) {
  WavelengthFabric fabric(350, paper_plan());
  int min_lambdas = 1000;
  for (int s = 0; s < 350; s += 7) {
    for (int d = 0; d < 350; d += 11) {
      if (s == d) continue;
      min_lambdas = std::min(min_lambdas, fabric.direct_lambdas(s, d));
    }
  }
  EXPECT_GE(min_lambdas, 5);
}

TEST(Fabric, NoSelfWavelengths) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_EQ(fabric.direct_lambdas(5, 5), 0);
}

TEST(Fabric, AllocateReleasesRoundTrip) {
  WavelengthFabric fabric(350, paper_plan());
  const double granted = fabric.allocate_direct(1, 2, 60.0);
  EXPECT_DOUBLE_EQ(granted, 60.0);
  EXPECT_NEAR(fabric.free_direct(1, 2), fabric.direct_capacity(1, 2) - 60.0, 1e-9);
  fabric.release_direct(1, 2, 60.0);
  EXPECT_NEAR(fabric.free_direct(1, 2), fabric.direct_capacity(1, 2), 1e-9);
}

TEST(Fabric, AllocationCapsAtCapacity) {
  WavelengthFabric fabric(350, paper_plan());
  const double cap = fabric.direct_capacity(3, 4);
  const double granted = fabric.allocate_direct(3, 4, cap + 500.0);
  EXPECT_DOUBLE_EQ(granted, cap);
  EXPECT_NEAR(fabric.free_direct(3, 4), 0.0, 1e-9);
}

TEST(Fabric, PairsAreIndependent) {
  WavelengthFabric fabric(350, paper_plan());
  fabric.allocate_direct(1, 2, 100.0);
  EXPECT_NEAR(fabric.free_direct(2, 1), fabric.direct_capacity(2, 1), 1e-9);
  EXPECT_NEAR(fabric.free_direct(1, 3), fabric.direct_capacity(1, 3), 1e-9);
}

TEST(Fabric, OverReleaseThrows) {
  // Same pre-mutation contract as RackAllocator's double free: the refused
  // release leaves every table as it was.
  WavelengthFabric fabric(350, paper_plan());
  fabric.allocate_direct(1, 2, 10.0);
  const std::vector<double> cells = fabric.allocation_snapshot();
  const double free = fabric.free_direct(1, 2);
  const double util = fabric.utilization();
  EXPECT_THROW(fabric.release_direct(1, 2, 20.0), std::logic_error);
  EXPECT_EQ(fabric.allocation_snapshot(), cells);
  EXPECT_EQ(fabric.free_direct(1, 2), free);
  EXPECT_EQ(fabric.utilization(), util);
}

TEST(Fabric, UtilizationTracksAllocation) {
  WavelengthFabric fabric(350, paper_plan());
  EXPECT_DOUBLE_EQ(fabric.utilization(), 0.0);
  fabric.allocate_direct(0, 1, 125.0);
  EXPECT_GT(fabric.utilization(), 0.0);
  fabric.release_direct(0, 1, 125.0);
  EXPECT_NEAR(fabric.utilization(), 0.0, 1e-12);
}

TEST(Fabric, RejectsTooManyMcms) {
  EXPECT_THROW(WavelengthFabric(371, paper_plan()), std::invalid_argument);
}

TEST(Fabric, PartialPortCoversSubsetOfDestinations) {
  WavelengthFabric fabric(350, paper_plan());
  // The 6th AWGR carries fewer wavelengths than there are MCMs: some pairs
  // get 6 direct lambdas, others only the guaranteed 5.
  bool saw5 = false, saw6 = false;
  for (int d = 1; d < 350; ++d) {
    const int n = fabric.direct_lambdas(0, d);
    if (n == 5) saw5 = true;
    if (n == 6) saw6 = true;
  }
  EXPECT_TRUE(saw5);
  EXPECT_TRUE(saw6);
}

// --- full-scan oracle for the cached tables ---------------------------------
//
// The fabric keeps its free table and utilization totals current as it
// changes.  The references below rebuild both from scratch out of the
// public per-cell state (allocation_snapshot, covers, pair_scale) with the
// expressions the fabric is specified by: free_direct sums its covering
// AWGRs in index order (healthy branch unclamped, scaled branch clamped at
// zero), and utilization is Σused / Σscaled capacity over covered cells.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double reference_free(const WavelengthFabric& f, const std::vector<double>& cells,
                      int s, int d) {
  const auto n = static_cast<std::size_t>(f.mcms());
  const double g = f.gbps_per_wavelength();
  const double scale = f.pair_scale(s, d);
  double free = 0.0;
  for (int a = 0; a < f.parallel_awgrs(); ++a) {
    if (!f.covers(a, s, d)) continue;
    const double used = cells[static_cast<std::size_t>(a) * n * n +
                              static_cast<std::size_t>(s) * n + static_cast<std::size_t>(d)];
    free += scale == 1.0 ? g - used : std::max(0.0, g * scale - used);
  }
  return free;
}

double reference_utilization(const WavelengthFabric& f, const std::vector<double>& cells) {
  const auto n = static_cast<std::size_t>(f.mcms());
  const double g = f.gbps_per_wavelength();
  double cap = 0.0, used = 0.0;
  for (int a = 0; a < f.parallel_awgrs(); ++a)
    for (int s = 0; s < f.mcms(); ++s)
      for (int d = 0; d < f.mcms(); ++d) {
        if (!f.covers(a, s, d)) continue;
        const double scale = f.pair_scale(s, d);
        cap += scale == 1.0 ? g : g * scale;
        used += cells[static_cast<std::size_t>(a) * n * n +
                      static_cast<std::size_t>(s) * n + static_cast<std::size_t>(d)];
      }
  return cap > 0.0 ? used / cap : 0.0;
}

bool bit_of(std::span<const std::uint64_t> set, int i) {
  return (set[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1;
}

/// Row s bit d and column d bit s both read free_direct(s, d) > 1e-9, on
/// every pair (self pairs included), and no bit is set past the last MCM.
void expect_bits_match_free(const WavelengthFabric& f, int op) {
  const int n = f.mcms();
  ASSERT_EQ(f.bit_words(), (static_cast<std::size_t>(n) + 63) / 64);
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      const bool free = f.free_direct(s, d) > 1e-9;
      if (bit_of(f.free_row(s), d) != free || bit_of(f.free_col(d), s) != free)
        FAIL() << "pair " << s << "->" << d << " (free " << f.free_direct(s, d)
               << "): row bit " << bit_of(f.free_row(s), d) << ", col bit "
               << bit_of(f.free_col(d), s) << " after op " << op;
    }
  for (int i = 0; i < n; ++i)
    for (int pad = n; pad < static_cast<int>(f.bit_words()) * 64; ++pad) {
      ASSERT_FALSE(bit_of(f.free_row(i), pad)) << "row " << i << " padding bit " << pad;
      ASSERT_FALSE(bit_of(f.free_col(i), pad)) << "col " << i << " padding bit " << pad;
    }
}

void expect_matches_full_scan(const WavelengthFabric& f, int op) {
  const std::vector<double> cells = f.allocation_snapshot();
  for (int s = 0; s < f.mcms(); ++s)
    for (int d = 0; d < f.mcms(); ++d)
      ASSERT_EQ(bits(f.free_direct(s, d)), bits(reference_free(f, cells, s, d)))
          << "free_direct(" << s << ", " << d << ") after op " << op;
  ASSERT_NO_FATAL_FAILURE(expect_bits_match_free(f, op));
  EXPECT_NEAR(f.utilization(), reference_utilization(f, cells), 1e-12) << "after op " << op;
}

/// Randomized allocate / release / push / pop churn over the pairs of
/// `mcms`, checked against the full scan after every operation, then drained
/// back to an idle, healthy fabric.
void churn_against_full_scan(WavelengthFabric& f, const std::vector<int>& mcms, int ops,
                             std::uint64_t seed) {
  struct Hold {
    int src, dst;
    double gbps;
  };
  struct Factor {
    int src, dst;
    double value;
  };
  sim::Rng rng(seed);
  std::vector<Hold> holds;
  std::vector<Factor> factors;
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.below(n)); };
  const auto pick_pair = [&] {
    const int s = mcms[pick(mcms.size())];
    int d = mcms[pick(mcms.size())];
    while (d == s) d = mcms[pick(mcms.size())];
    return std::pair{s, d};
  };
  constexpr double kFactors[] = {0.0, 0.3, 0.5, 0.8};

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.05) {
      // Leave the pair a residue in (0, 1e-9]: free, but not free enough to
      // set its bits.
      const auto [s, d] = pick_pair();
      const double want = f.free_direct(s, d) - 5e-10;
      const double got = want > 0.0 ? f.allocate_direct(s, d, want) : 0.0;
      if (got > 0.0) holds.push_back({s, d, got});
    } else if (roll < 0.45 || holds.empty()) {
      const auto [s, d] = pick_pair();
      const double want = rng.uniform(0.0, 1.5 * f.gbps_per_wavelength() * f.direct_lambdas(s, d));
      const double got = f.allocate_direct(s, d, want);
      if (got > 0.0) holds.push_back({s, d, got});
    } else if (roll < 0.8) {
      const std::size_t i = pick(holds.size());
      // Half the releases return a random part and keep the rest live.
      const double give = rng.bernoulli(0.5) ? holds[i].gbps : holds[i].gbps * rng.uniform();
      f.release_direct(holds[i].src, holds[i].dst, give);
      holds[i].gbps -= give;
      if (holds[i].gbps <= 0.0) holds.erase(holds.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 0.9 || factors.empty()) {
      const auto [s, d] = pick_pair();
      const double factor = kFactors[pick(std::size(kFactors))];
      f.push_pair_factor(s, d, factor);
      factors.push_back({s, d, factor});
    } else {
      const std::size_t i = pick(factors.size());
      f.pop_pair_factor(factors[i].src, factors[i].dst, factors[i].value);
      factors.erase(factors.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_full_scan(f, op));
  }

  // Drain: return every hold, then sweep the rounding residue that
  // partial releases leave behind until each pair holds nothing.
  for (const Hold& h : holds) f.release_direct(h.src, h.dst, h.gbps);
  for (const Factor& x : factors) f.pop_pair_factor(x.src, x.dst, x.value);
  for (const int s : mcms)
    for (const int d : mcms)
      while (s != d && f.allocated(s, d) > 0.0) f.release_direct(s, d, f.allocated(s, d));
  ASSERT_NO_FATAL_FAILURE(expect_matches_full_scan(f, ops));
  for (const double cell : f.allocation_snapshot()) ASSERT_EQ(bits(cell), bits(0.0));
  EXPECT_EQ(bits(f.utilization()), bits(0.0));
}

TEST(FabricOracle, PaperPlanWithPartialSixthAwgr) {
  WavelengthFabric fabric(350, paper_plan());
  ASSERT_EQ(fabric.parallel_awgrs(), 6);
  // Ten MCMs spread over the rack, so the churn meets both the pairs the
  // partial sixth AWGR covers (6 lambdas) and those it misses (5).
  const std::vector<int> mcms = {0, 1, 2, 90, 170, 171, 260, 300, 348, 349};
  bool saw5 = false, saw6 = false;
  for (const int s : mcms)
    for (const int d : mcms) {
      if (s == d) continue;
      saw5 |= fabric.direct_lambdas(s, d) == 5;
      saw6 |= fabric.direct_lambdas(s, d) == 6;
    }
  ASSERT_TRUE(saw5 && saw6);
  churn_against_full_scan(fabric, mcms, 150, 11);
}

TEST(FabricOracle, CosimSliceOneAndTwoLambdas) {
  std::vector<int> all(24);
  for (int i = 0; i < 24; ++i) all[static_cast<std::size_t>(i)] = i;
  for (const int lambdas : {1, 2}) {
    SCOPED_TRACE(lambdas);
    WavelengthFabric fabric(24, slice_awgr_plan({.mcms = 24, .lambdas_per_pair = lambdas}));
    churn_against_full_scan(fabric, all, 3000, 23 + static_cast<std::uint64_t>(lambdas));
  }
}

TEST(FabricOracle, ResidueAtOrBelowThresholdIsNotFree) {
  WavelengthFabric fabric(24, slice_awgr_plan({.mcms = 24}));
  fabric.allocate_direct(2, 5, 25.0 - 5e-10);
  ASSERT_GT(fabric.free_direct(2, 5), 0.0);
  ASSERT_LE(fabric.free_direct(2, 5), 1e-9);
  EXPECT_FALSE(bit_of(fabric.free_row(2), 5));
  EXPECT_FALSE(bit_of(fabric.free_col(5), 2));
  ASSERT_NO_FATAL_FAILURE(expect_matches_full_scan(fabric, 0));
  fabric.release_direct(2, 5, 25.0 - 5e-10);
  EXPECT_TRUE(bit_of(fabric.free_row(2), 5));
  EXPECT_TRUE(bit_of(fabric.free_col(5), 2));
}

TEST(FabricOracle, IdleBitsFollowCoverageOnEveryGeometry) {
  // The constructor fills the bitsets from the coverage rule, not pair by
  // pair: check them against free_direct on idle fabrics from 1 to 6 words,
  // radix above the MCM count, partial and empty AWGR ports, and
  // wavelengths so narrow that one alone is not free but several are.
  int geometries = 0;
  for (const int mcms : {1, 2, 23, 63, 64, 65, 130, 200, 350})
    for (const int extra_radix : {0, 1, 37})
      for (const std::vector<int>& fill :
           {std::vector<int>{100}, std::vector<int>{100, 40}, std::vector<int>{60, 100, 0, 5},
            std::vector<int>{0}})
        for (const double gbps : {25.0, 6e-10}) {
          const int radix = mcms + extra_radix;
          rack::AwgrFabricPlan plan;
          plan.awgr_radix = radix;
          for (const int pct : fill) plan.lambdas_per_port.push_back(radix * pct / 100);
          plan.parallel_awgrs = static_cast<int>(fill.size());
          plan.min_direct_lambdas_per_pair = 1;
          plan.direct_pair_bandwidth = phot::Gbps{gbps};
          SCOPED_TRACE(::testing::Message() << mcms << " MCMs, radix " << radix << ", "
                                            << fill.size() << " AWGRs, " << gbps << " Gb/s");
          WavelengthFabric fabric(mcms, plan);
          ASSERT_NO_FATAL_FAILURE(expect_bits_match_free(fabric, -1));
          ++geometries;
        }
  EXPECT_EQ(geometries, 216);
}

// --- piggybacked view (§IV-A): a stale copy, refreshed on an interval -------

constexpr sim::TimePs kRefresh = 10 * sim::kPsPerUs;

std::vector<bool> stale_table(const PiggybackView& view, int mcms) {
  std::vector<bool> out;
  for (int s = 0; s < mcms; ++s)
    for (int d = 0; d < mcms; ++d) out.push_back(view.stale_free(s, d));
  return out;
}

void touch_pairs(WavelengthFabric& fabric) {
  fabric.allocate_direct(0, 1, 10.0);
  fabric.allocate_direct(3, 7, 40.0);  // saturates the pair
  fabric.allocate_direct(5, 2, 7.5);
  fabric.release_direct(5, 2, 2.5);
  fabric.push_pair_factor(9, 4, 0.5);
  fabric.push_pair_factor(11, 12, 0.0);
}

TEST(Piggyback, RefreshShowsTheFabricsCurrentFreeCapacity) {
  WavelengthFabric fabric(24, slice_awgr_plan({.mcms = 24}));
  PiggybackView view(fabric, kRefresh);
  touch_pairs(fabric);
  view.force_refresh(3 * sim::kPsPerUs);
  for (int s = 0; s < fabric.mcms(); ++s)
    for (int d = 0; d < fabric.mcms(); ++d) {
      EXPECT_EQ(view.stale_free(s, d), fabric.free_direct(s, d) > 1e-9)
          << "pair " << s << "->" << d;
      EXPECT_EQ(bit_of(view.stale_col(d), s), view.stale_free(s, d))
          << "pair " << s << "->" << d;
    }
  EXPECT_FALSE(view.stale_free(3, 7));   // saturated
  EXPECT_TRUE(view.stale_free(9, 4));    // 12.5 Gb/s left at half scale
  EXPECT_FALSE(view.stale_free(11, 12));  // dead pair
  EXPECT_TRUE(view.stale_free(0, 1));
  EXPECT_FALSE(view.stale_free(6, 6));
}

TEST(Piggyback, ViewHoldsStillBetweenRefreshes) {
  WavelengthFabric fabric(24, slice_awgr_plan({.mcms = 24}));
  PiggybackView view(fabric, kRefresh);
  const std::vector<bool> idle = stale_table(view, fabric.mcms());
  touch_pairs(fabric);
  EXPECT_EQ(stale_table(view, fabric.mcms()), idle);
  EXPECT_TRUE(view.stale_free(3, 7));
  EXPECT_EQ(fabric.free_direct(3, 7), 0.0);

  view.force_refresh(kRefresh);
  const std::vector<bool> refreshed = stale_table(view, fabric.mcms());
  EXPECT_NE(refreshed, idle);
  fabric.release_direct(3, 7, 25.0);
  fabric.pop_pair_factor(11, 12, 0.0);
  fabric.allocate_direct(20, 21, 25.0);
  EXPECT_EQ(stale_table(view, fabric.mcms()), refreshed);
  EXPECT_FALSE(view.stale_free(3, 7));
  EXPECT_TRUE(view.stale_free(20, 21));
}

TEST(Piggyback, MaybeRefreshFiresOncePerElapsedInterval) {
  WavelengthFabric fabric(24, slice_awgr_plan({.mcms = 24}));
  PiggybackView view(fabric, kRefresh);
  EXPECT_EQ(view.last_refresh(), 0);
  EXPECT_EQ(view.broadcast_rounds(), 0u);
  fabric.allocate_direct(0, 1, 25.0);

  EXPECT_FALSE(view.maybe_refresh(kRefresh - 1));  // one ps short
  EXPECT_EQ(view.broadcast_rounds(), 0u);
  EXPECT_TRUE(view.stale_free(0, 1));

  EXPECT_TRUE(view.maybe_refresh(kRefresh));  // now - last == interval
  EXPECT_EQ(view.broadcast_rounds(), 1u);
  EXPECT_EQ(view.last_refresh(), kRefresh);
  EXPECT_FALSE(view.stale_free(0, 1));

  // The interval runs from the last refresh, not from a fixed grid.
  const sim::TimePs late = 2 * kRefresh + 5;
  EXPECT_FALSE(view.maybe_refresh(2 * kRefresh - 1));
  EXPECT_TRUE(view.maybe_refresh(late));
  EXPECT_EQ(view.last_refresh(), late);
  EXPECT_FALSE(view.maybe_refresh(late + kRefresh - 1));
  EXPECT_FALSE(view.maybe_refresh(late + kRefresh - 1));  // refusals do not count
  EXPECT_EQ(view.broadcast_rounds(), 2u);
  EXPECT_TRUE(view.maybe_refresh(late + kRefresh));
  EXPECT_EQ(view.broadcast_rounds(), 3u);
}

}  // namespace
}  // namespace photorack::net
