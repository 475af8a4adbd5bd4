#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace photorack::fault {

/// Derive the deterministic fault timeline for one run.
///
/// Every component gets its own child RNG stream rooted at
/// sim::Rng(seed).child(3) — the stream id the co-simulation reserves for
/// the fault layer (child(1) is the router, child(2) the arrivals,
/// child(16+k) the per-job plans).  Each stream alternates
/// up ~ Exp(MTBF) / down ~ Exp(MTTR) until the next failure would land at
/// or past `horizon`; repairs may land beyond it (completions drain past
/// the arrival horizon too).  Because the streams are derived with the
/// const child() operator and consumed independently of every placement
/// decision, the timeline is a pure function of (config, geometry, seed):
/// identical across --jobs levels, admission policies and allocation
/// policies — which is what makes "same fault timeline, different
/// allocation policy" a controlled comparison.
///
/// Events are sorted by (time, class, component, kind); link/laser events
/// carry the directed (a, b) pair they affect.  Throws
/// std::invalid_argument on malformed config (negative rates, zero MTTR,
/// degrade_fraction outside (0,1], negative retry/backoff knobs).
[[nodiscard]] std::vector<FaultEvent> derive_timeline(const FaultConfig& cfg,
                                                      int mcms, int nodes,
                                                      std::uint64_t seed,
                                                      sim::TimePs horizon);

/// The raw timeline sums that availability and MTTR divide.  They pool by
/// adding, so the availability and MTTR of several timelines (a cluster's
/// racks) are those of one timeline holding all their components: each
/// rack weighs in by its component-time and by its repair count.
struct TimelineSums {
  double downtime_ps = 0.0;   // crash-stop (MCM, node) downtime inside [0, horizon)
  double component_ps = 0.0;  // crash-stop components x horizon
  double repair_ms = 0.0;     // repair time over every fail/repair pair
  std::uint64_t repairs = 0;  // fail/repair pairs

  void merge(const TimelineSums& other);
  /// 1 - downtime / component-time, in [0, 1]; 1.0 without component-time
  /// (faults off, or an empty horizon).
  [[nodiscard]] double availability() const;
  /// Mean repair time in ms; 0.0 without repairs, so a fault-free rack and
  /// a rack whose components never failed both read 0.0, not "instant".
  [[nodiscard]] double mean_mttr_ms() const;
};

/// Owns one run's fault timeline and injects it as first-class events on
/// the caller's sim::EventQueue.  Availability and measured MTTR are
/// analytic functions of the timeline, so they never depend on job load.
class FaultScheduler {
 public:
  FaultScheduler(const FaultConfig& cfg, int mcms, int nodes, std::uint64_t seed,
                 sim::TimePs horizon);

  [[nodiscard]] const std::vector<FaultEvent>& timeline() const { return timeline_; }

  /// Schedule every timeline entry onto `queue` as one sorted run, calling
  /// `handler(event)` at its fire time.  Entry i gets the id the i-th of
  /// timeline().size() schedule_at calls would.  Call once, before the queue
  /// starts running; the scheduler must outlive the run's dispatch.
  void arm(sim::EventQueue& queue, std::function<void(const FaultEvent&)> handler) const;

  /// Downtime and component-time of the crash-stop components (MCMs and
  /// nodes) over [0, horizon), and repair time and count over every
  /// fail/repair pair of the timeline.  Link/laser faults degrade goodput,
  /// not component availability, but their repairs count towards MTTR.
  [[nodiscard]] TimelineSums sums(sim::TimePs horizon) const;

 private:
  /// Flat index of the renewal process that drew `ev`: MCMs, then nodes,
  /// then the link and laser streams keyed by source MCM (each stream draws
  /// its destination per cut, so its fail/repair pairs alternate too).
  [[nodiscard]] std::size_t component(const FaultEvent& ev) const;
  [[nodiscard]] std::size_t component_count() const {
    return 3 * static_cast<std::size_t>(mcms_) + static_cast<std::size_t>(nodes_);
  }

  int mcms_;
  int nodes_;
  std::vector<FaultEvent> timeline_;
};

}  // namespace photorack::fault
