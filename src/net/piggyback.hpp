#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/fabric.hpp"
#include "sim/time.hpp"

namespace photorack::net {

/// Piggybacked occupancy broadcast (§IV-A).  Sources learn which wavelengths
/// other sources on the same AWGRs are using from state vectors piggybacked
/// on regular traffic, so routing decisions are made on a *stale* view.
///
/// Modeled as a periodically refreshed snapshot of which pairs had free
/// direct capacity: every `update_interval` the snapshot is brought current
/// (one one-hot status vector per source, 256 B per source per broadcast —
/// negligible bandwidth, which the report() quantifies).  The snapshot holds
/// what the router reads, a copy of the fabric's column bitsets.
class PiggybackView {
 public:
  PiggybackView(const WavelengthFabric& fabric, sim::TimePs update_interval);

  /// Whether src->dst had free direct capacity (> kGbpsEpsilon) as of the
  /// last refresh.
  [[nodiscard]] bool stale_free(int src, int dst) const;
  /// Column `dst` as of the last refresh: bit `mid` set when mid->dst was
  /// free.
  [[nodiscard]] std::span<const std::uint64_t> stale_col(int dst) const {
    return {cols_.data() + static_cast<std::size_t>(dst) * words_, words_};
  }

  /// Refresh if `now` has passed the next update point.  Returns true when a
  /// refresh happened (counted as one broadcast round).
  bool maybe_refresh(sim::TimePs now);
  void force_refresh(sim::TimePs now);

  [[nodiscard]] sim::TimePs last_refresh() const { return last_refresh_; }
  [[nodiscard]] std::uint64_t broadcast_rounds() const { return rounds_; }

  /// Control-plane overhead: bytes broadcast per source per round (N
  /// wavelengths x 8 bits occupancy per wavelength, §IV-A's 256 B example)
  /// and the resulting aggregate bandwidth.
  [[nodiscard]] double bytes_per_source_per_round() const;
  [[nodiscard]] double control_gbps(double rounds_per_second) const;

 private:
  const WavelengthFabric* fabric_;
  sim::TimePs interval_;
  sim::TimePs last_refresh_ = 0;
  std::uint64_t rounds_ = 0;
  std::size_t words_;
  std::vector<std::uint64_t> cols_;  // fabric free_cols() at the last refresh
};

}  // namespace photorack::net
