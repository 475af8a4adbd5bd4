#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "net/piggyback.hpp"
#include "sim/rng.hpp"

namespace photorack::net {

/// One reserved path segment (for release bookkeeping).
struct PathSegment {
  int from = 0;
  int to = 0;
  double gbps = 0.0;
};

/// Valiant intermediates one flow may spread over; what is left after them
/// is blocked.
inline constexpr int kMaxIntermediatesPerFlow = 64;

/// Outcome of routing one flow demand.
struct RouteResult {
  double requested = 0.0;
  double direct_gbps = 0.0;    // satisfied on src->dst wavelengths
  double indirect_gbps = 0.0;  // satisfied via intermediates
  double blocked_gbps = 0.0;   // could not be placed
  int intermediates_used = 0;
  int stale_mispicks = 0;      // stale view chose a busy mid->dst leg
  int second_hops = 0;         // recovered by a second intermediate
  std::vector<PathSegment> segments;  // all reservations, for release()

  [[nodiscard]] double satisfied() const { return direct_gbps + indirect_gbps; }
  [[nodiscard]] bool fully_satisfied() const { return blocked_gbps <= kGbpsEpsilon; }
};

/// Distributed Valiant-style indirect routing over the AWGR fabric (§IV-A,
/// Fig 4).  Per-source logic only: a source sees the true state of its own
/// outgoing wavelengths and the piggybacked (stale) state of everyone
/// else's.  Indirect paths are considered only when direct bandwidth does
/// not suffice; candidates are intermediates with a free src->mid wavelength
/// (true state) and a free mid->dst wavelength (stale state); one candidate
/// is chosen uniformly at random (Valiant): with n candidates, draw
/// k = below(n) and take the k-th set bit, in ascending order, of the
/// fabric's src row AND the view's dst column.  A stale mis-pick is repaired by
/// the intermediate routing through a second intermediate using its own
/// current view; flows are pinned to their segments to preserve ordering.
class IndirectRouter {
 public:
  IndirectRouter(WavelengthFabric& fabric, PiggybackView& view, std::uint64_t seed);

  /// Reserve capacity for a flow of `gbps` from src to dst into `out`, which
  /// is overwritten; its segment vector keeps its capacity, so a caller that
  /// reuses one result routes without allocating.
  void route(int src, int dst, double gbps, RouteResult& out);

  /// Release every segment of a previous RouteResult.
  void release(const RouteResult& result);

  /// Cumulative statistics.
  [[nodiscard]] std::uint64_t flows_routed() const { return flows_; }
  [[nodiscard]] std::uint64_t total_mispicks() const { return mispicks_; }
  [[nodiscard]] std::uint64_t total_second_hops() const { return second_hops_; }

 private:
  WavelengthFabric* fabric_;
  PiggybackView* view_;
  sim::Rng rng_;
  std::uint64_t flows_ = 0;
  std::uint64_t mispicks_ = 0;
  std::uint64_t second_hops_ = 0;

  /// Reserve up to `gbps` via one Valiant-chosen intermediate; returns the
  /// amount placed and appends segments.
  double try_indirect(int src, int dst, double gbps, RouteResult& out);
};

}  // namespace photorack::net
