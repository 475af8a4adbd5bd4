#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "cluster/interconnect.hpp"
#include "cosim/rack_cosim.hpp"
#include "sim/enum_codec.hpp"

namespace photorack::cluster {

/// Where a job the home rack cannot admit may run instead.
enum class SpillPolicy {
  kNone,   ///< rack-scale disaggregation: overflow is dropped (the baseline)
  kNext,   ///< spill to the ring neighbor (origin + 1) mod racks
  kLeast,  ///< spill to the rack with the most free capacity (ties: lowest id)
};

/// Canonical CLI/axis/registry spelling: "none" | "next" | "least".
[[nodiscard]] const sim::EnumCodec<SpillPolicy>& spill_policy_codec();

/// The "cluster" registry section: how many racks, whether overflow crosses
/// racks, and the inter-rack photonic pipe it crosses on.
struct ClusterConfig {
  int racks = 4;
  SpillPolicy spill = SpillPolicy::kNone;
  /// Per directed rack-pair link rate of the inter-rack DWDM interconnect.
  phot::Gbps interconnect_gbps{400.0};
  /// One-way inter-rack propagation + switching latency.  Also the width of
  /// the cluster loop's conservative synchronization window.
  double hop_ns = 200.0;
  /// Inter-rack transceiver energy (always-on uplinks while cluster-scale
  /// disaggregation is active).
  double interconnect_pj_per_bit = 30.0;
  /// Threads for the spill-off drain, where every rack runs to completion
  /// on its own; 0 = one per rack, capped at the hardware concurrency.
  /// Coupled windows always run inline on the calling thread.  Changing
  /// this NEVER changes results: cluster runs are bit-identical at any count.
  int workers = 0;
};

struct ClusterReport {
  /// Per-rack reports, index == rack id.
  std::vector<cosim::CosimReport> racks;
  /// Cluster-wide aggregate.  Job tails come from exact sketch merges, so
  /// they equal a single stream that saw every job; flow fractions pool the
  /// racks' raw bandwidth sums (Σsatisfied / Σrequested); power sums across
  /// racks; completed_at is the latest rack and pending_peak the deepest
  /// rack queue.  With one rack this is that rack's report, field for field.
  cosim::CosimReport total;
  std::uint64_t spilled = 0;        // jobs exported to another rack
  std::uint64_t spill_failed = 0;   // spills the target rack also refused
  std::uint64_t barriers = 0;       // synchronization windows executed
  double interconnect_power_w = 0.0;
  double interconnect_energy_j = 0.0;
  double interconnect_utilization = 0.0;  // at report time
};

/// Multi-rack cluster co-simulation: N independent RackCosim event domains
/// coordinated by a deterministic conservative-window loop.
///
/// Each rack owns its event queue, wavelength fabric, allocator, fault
/// timeline and RNG streams (rack 0 runs the base seed verbatim; rack r > 0
/// derives its seed from child stream 5.r, untouched by any rack-local
/// stream).  With spill-over coupling the racks, they advance in windows
/// bounded by
///
///   barrier = min over racks of next_event_time() + hop latency
///
/// A cross-rack effect born at t >= t_min delivers at t + hop >= barrier, so
/// running every rack to the barrier can never miss one: spill requests and
/// inter-rack link releases are recorded in outboxes during the window and
/// exchanged only at the barrier, in (time, origin rack, kind, record
/// order).  Coupled windows run inline on the calling thread, rack by rack
/// in rack order: nearly every window holds one event of one rack, so a
/// thread hand-off per window would cost more than the work it moves.
///
/// With spill == kNone (or one rack) the domains cannot interact at all and
/// the loop collapses to one window: every rack runs to completion, spread
/// over up to `workers` threads.  Cluster runs are bit-identical at any
/// worker count (pinned by test_cluster and the CI cluster smoke step).
class ClusterCosim {
 public:
  ClusterCosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
               const workloads::UsageModel& usage, ClusterConfig cluster,
               cosim::CosimConfig cfg = {}, obs::Obs obs = {});

  // Racks hold self-pointing event handlers and this object holds rack
  // pointers in its own handlers; neither survives a copy.
  ClusterCosim(const ClusterCosim&) = delete;
  ClusterCosim& operator=(const ClusterCosim&) = delete;

  /// Run every rack to completion (arrival horizons, stretched completions
  /// and all cross-rack traffic drained).
  void run();

  [[nodiscard]] ClusterReport report() const;
  [[nodiscard]] int racks() const { return static_cast<int>(racks_.size()); }
  [[nodiscard]] const cosim::RackCosim& rack(int r) const { return *racks_.at(r); }
  [[nodiscard]] const InterRackFabric& interconnect() const { return fabric_; }

 private:
  /// One spilled job, recorded by the origin rack during a window, acted on
  /// at the barrier.
  struct SpillMsg {
    sim::TimePs at = 0;
    int origin = 0;
    cosim::RackCosim::JobPlan plan;
    sim::TimePs arrived = 0;
  };
  /// One inter-rack grant coming back (job completed / revoked, or the
  /// spill was refused at the target: placed = false).
  struct CloseMsg {
    sim::TimePs at = 0;
    int origin = 0;
    int link = -1;
    double gbps = 0.0;
    bool placed = true;
  };

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<cosim::RackCosim>> racks_;
  InterRackFabric fabric_;
  // Outboxes of the current window, appended to by every rack in dispatch
  // order and drained by exchange() at the barrier.
  std::vector<SpillMsg> spills_;
  std::vector<CloseMsg> closes_;
  // exchange()'s sort buffer, reused: (time, origin, kind, index), where
  // kind 0 indexes closes_ and kind 1 spills_.
  std::vector<std::tuple<sim::TimePs, int, int, std::size_t>> order_;
  std::vector<sim::TimePs> next_;  // cached next_event_time() per rack
  std::uint64_t spilled_ = 0;
  std::uint64_t spill_failed_ = 0;
  std::uint64_t barriers_ = 0;
  bool ran_ = false;

  [[nodiscard]] bool coupled() const {
    return cfg_.spill != SpillPolicy::kNone && racks_.size() > 1;
  }
  void exchange();
  [[nodiscard]] int pick_target(int origin) const;
  [[nodiscard]] sim::TimePs sim_end() const;
};

/// Run-to-completion convenience over ClusterCosim.
[[nodiscard]] ClusterReport run_cluster_cosim(
    const rack::RackConfig& rack, disagg::AllocationPolicy policy,
    const workloads::UsageModel& usage, const ClusterConfig& cluster,
    const cosim::CosimConfig& cfg = {}, obs::Obs obs = {});

}  // namespace photorack::cluster
