#pragma once

#include <vector>

#include "phot/units.hpp"
#include "sim/time.hpp"

namespace photorack::cluster {

/// Bandwidth/latency/energy model of the inter-rack DWDM interconnect: one
/// directed link of `gbps_per_link` between every ordered rack pair, each
/// crossing costing `hop_ns` of propagation plus transceiver energy at
/// `pj_per_bit`.  Deliberately coarse next to the intra-rack wavelength
/// fabric — the cluster question (Ajibola et al.: rack-scale vs cluster-scale
/// disaggregation) is decided by how much spilled traffic leaves the rack and
/// what the always-on uplink transceivers burn, not by per-wavelength
/// contention two hops away.
///
/// Reservation state is plain Gb/s per directed link, mutated only by the
/// cluster coordinator at synchronization barriers, so no locking is needed.
class InterRackFabric {
 public:
  InterRackFabric(int racks, double gbps_per_link, double hop_ns,
                  double pj_per_bit);

  [[nodiscard]] int racks() const { return racks_; }
  [[nodiscard]] double gbps_per_link() const { return gbps_; }

  /// Directed link id for src -> dst; throws std::invalid_argument when
  /// src == dst or either index is out of range.
  [[nodiscard]] int link(int src, int dst) const;

  /// Reserve up to `gbps` on the link; returns the amount actually granted
  /// (never negative, never more than the link's free capacity).
  double reserve(int link_id, double gbps);
  /// Return previously granted capacity; throws std::logic_error when more
  /// is released than is allocated (a double-release bug upstream).
  void release(int link_id, double gbps);

  [[nodiscard]] double allocated(int link_id) const;
  /// Mean allocated fraction over every directed link.
  [[nodiscard]] double utilization() const;

  /// Per-message propagation delay.  Never below 1 ps: the cluster loop's
  /// conservative window is exactly this wide, and a zero-width window
  /// could not make progress.
  [[nodiscard]] sim::TimePs hop_latency_ps() const { return hop_ps_; }

  /// Always-on transceiver power of the cluster uplinks: one uplink per
  /// rack at the link rate, lasers on whether or not traffic flows (the
  /// same lasers-always-on discipline as the intra-rack photonic floor).
  /// Rack-scale disaggregation leaves the uplinks dark (0 W) — that is the
  /// energy contrast the cluster_energy campaign measures.
  [[nodiscard]] double power_w(bool lit) const;

 private:
  int racks_;
  double gbps_;
  sim::TimePs hop_ps_;
  double pj_per_bit_;
  std::vector<double> alloc_;  // per directed link, Gb/s

  void check_link(int link_id) const;
};

}  // namespace photorack::cluster
