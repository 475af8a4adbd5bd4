#include "net/routing.hpp"

#include <algorithm>
#include <bit>

namespace photorack::net {

IndirectRouter::IndirectRouter(WavelengthFabric& fabric, PiggybackView& view,
                               std::uint64_t seed)
    : fabric_(&fabric), view_(&view), rng_(seed) {}

void IndirectRouter::route(int src, int dst, double gbps, RouteResult& out) {
  out.requested = gbps;
  out.direct_gbps = out.indirect_gbps = out.blocked_gbps = 0.0;
  out.intermediates_used = out.stale_mispicks = out.second_hops = 0;
  out.segments.clear();
  ++flows_;

  // 1. Direct wavelengths first (§IV-A: indirect paths are considered only
  //    if the single-hop bandwidth does not suffice).
  const double direct = fabric_->allocate_direct(src, dst, gbps);
  if (direct > 0.0) {
    out.direct_gbps = direct;
    out.segments.push_back({src, dst, direct});
  }

  // 2. Spill the remainder over Valiant intermediates.
  double remaining = gbps - direct;
  while (remaining > kGbpsEpsilon && out.intermediates_used < kMaxIntermediatesPerFlow) {
    const double placed = try_indirect(src, dst, remaining, out);
    if (placed <= kGbpsEpsilon) break;
    remaining -= placed;
  }
  out.indirect_gbps = gbps - direct - remaining;
  out.blocked_gbps = remaining;
}

double IndirectRouter::try_indirect(int src, int dst, double gbps, RouteResult& out) {
  // Candidate intermediates: free src->mid in the source's true local view
  // (the fabric's row), free mid->dst in the piggybacked view (the view's
  // column), neither endpoint.  Drawing k over their count and taking the
  // k-th set bit in ascending order picks the k-th entry of the ascending
  // candidate list.
  const std::span<const std::uint64_t> row = fabric_->free_row(src);
  const std::span<const std::uint64_t> col = view_->stale_col(dst);
  const auto candidates = [&](std::size_t w) {
    std::uint64_t bits = row[w] & col[w];
    if (w == static_cast<std::size_t>(src / 64)) bits &= ~(std::uint64_t{1} << (src % 64));
    if (w == static_cast<std::size_t>(dst / 64)) bits &= ~(std::uint64_t{1} << (dst % 64));
    return bits;
  };
  std::uint64_t n = 0;
  for (std::size_t w = 0; w < row.size(); ++w) n += std::popcount(candidates(w));
  if (n == 0) return 0.0;

  std::uint64_t k = rng_.below(n);
  std::size_t w = 0;
  std::uint64_t bits = candidates(0);
  while (k >= static_cast<std::uint64_t>(std::popcount(bits))) {
    k -= static_cast<std::uint64_t>(std::popcount(bits));
    bits = candidates(++w);
  }
  for (; k > 0; --k) bits &= bits - 1;  // drop the k lowest set bits
  const int mid = static_cast<int>(w * 64) + std::countr_zero(bits);
  ++out.intermediates_used;

  // First leg always succeeds (source state is current).
  const double leg1_want = std::min(gbps, fabric_->free_direct(src, mid));
  const double leg1 = fabric_->allocate_direct(src, mid, leg1_want);

  // Second leg uses the *true* fabric: a stale view may have promised
  // capacity that is no longer there.
  const double leg2 = fabric_->allocate_direct(mid, dst, leg1);
  double placed = leg2;
  double stranded = leg1 - leg2;

  if (stranded > kGbpsEpsilon) {
    ++mispicks_;
    ++out.stale_mispicks;
    // The intermediate repairs the shortfall through a second intermediate
    // chosen with its own current view (§IV-A's two-stage fallback).
    for (int mid2 = 0; mid2 < fabric_->mcms() && stranded > kGbpsEpsilon; ++mid2) {
      if (mid2 == mid || mid2 == dst || mid2 == src) continue;
      if (fabric_->free_direct(mid, mid2) <= kGbpsEpsilon) continue;
      if (fabric_->free_direct(mid2, dst) <= kGbpsEpsilon) continue;
      const double want = std::min({stranded, fabric_->free_direct(mid, mid2),
                                    fabric_->free_direct(mid2, dst)});
      const double a = fabric_->allocate_direct(mid, mid2, want);
      const double b = fabric_->allocate_direct(mid2, dst, a);
      if (a - b > kGbpsEpsilon) fabric_->release_direct(mid, mid2, a - b);
      if (b > 0.0) {
        out.segments.push_back({mid, mid2, b});
        out.segments.push_back({mid2, dst, b});
        ++second_hops_;
        ++out.second_hops;
        placed += b;
        stranded -= b;
      }
    }
    // Whatever could not be repaired is returned to the first leg.
    if (stranded > kGbpsEpsilon) fabric_->release_direct(src, mid, stranded);
  }

  if (placed > 0.0) {
    out.segments.push_back({src, mid, placed});
    if (leg2 > 0.0) out.segments.push_back({mid, dst, leg2});
  }
  return placed;
}

void IndirectRouter::release(const RouteResult& result) {
  for (const auto& seg : result.segments)
    fabric_->release_direct(seg.from, seg.to, seg.gbps);
}

}  // namespace photorack::net
