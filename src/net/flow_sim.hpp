#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/routing.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace photorack::net {

/// A traffic pattern for the flow-level simulator: called to produce the
/// next flow (src, dst, demand Gb/s, holding time).  Patterns are supplied
/// by benches (e.g. Cori-like CPU<->DDR4 demands from workloads::usage).
struct FlowSpec {
  int src = 0;
  int dst = 0;
  double gbps = 0.0;
  sim::TimePs duration = 0;
};

using FlowGenerator = std::function<FlowSpec(sim::Rng&)>;

struct FlowSimConfig {
  double arrivals_per_us = 2.0;       // Poisson arrival rate
  sim::TimePs sim_time = 200 * sim::kPsPerUs;
  sim::TimePs piggyback_interval = 1 * sim::kPsPerUs;
  std::uint64_t seed = 42;
};

struct FlowSimReport {
  std::uint64_t flows = 0;
  std::uint64_t fully_satisfied = 0;
  double offered_gbps_mean = 0.0;
  double satisfied_fraction = 0.0;    // sum satisfied / sum requested
  double direct_fraction = 0.0;       // of satisfied bandwidth
  double indirect_fraction = 0.0;
  std::uint64_t stale_mispicks = 0;
  std::uint64_t second_hops = 0;
  double mean_intermediates = 0.0;
  double peak_utilization = 0.0;

  [[nodiscard]] double blocking_probability() const {
    return flows ? 1.0 - static_cast<double>(fully_satisfied) / flows : 0.0;
  }
};

/// The raw flow statistics a FlowSimReport is derived from: counters, the
/// bandwidth sums (Σrequested, Σsatisfied, Σdirect, Σindirect) and the
/// per-flow moment accumulators.  Every field merges exactly — sums, a max,
/// RunningStats merges — so a merged tally reports POOLED fractions
/// (Σsatisfied / Σrequested over every flow), never an average of per-shard
/// ratios, and merging into an empty tally reproduces the source bit for bit.
struct FlowTally {
  std::uint64_t flows = 0, fully_satisfied = 0;
  std::uint64_t stale_mispicks = 0, second_hops = 0;
  double requested = 0.0, satisfied = 0.0, direct = 0.0, indirect = 0.0;
  double peak_utilization = 0.0;
  sim::RunningStats offered, intermediates;

  void merge(const FlowTally& other);
  [[nodiscard]] FlowSimReport report() const;
};

/// Stateful flow session over the AWGR fabric: open() routes a demand
/// through IndirectRouter (recording satisfaction/indirection statistics),
/// close() releases every reserved segment.  The engine owns the piggyback
/// view and router, so any event-driven layer — FlowSimulator's Poisson
/// arrivals or the rack co-simulation's job-emitted traffic — can share the
/// same contention model without re-implementing the bookkeeping.
///
/// Live flows sit in a slot vector recycled through a free list, and a
/// reused slot keeps its route's segment capacity, so steady-state open and
/// close allocate nothing.  A flow handle carries the slot index and the
/// slot's generation, which every close advances: a closed handle never
/// matches again, even after its slot is reused.  Generations start at 1
/// and skip 0 when they wrap, so no live flow's handle is 0.
class FlowEngine {
 public:
  FlowEngine(WavelengthFabric& fabric, sim::TimePs piggyback_interval,
             std::uint64_t router_seed);

  // The router holds a pointer to this engine's view member; a copied or
  // moved engine would route against the original's stale snapshot.
  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Attach observability handles (trace spans per flow, refresh instants,
  /// profiler scopes on the routing hot paths).  Purely passive: routing
  /// decisions, statistics and RNG draws are identical with or without it.
  void attach_obs(const obs::Obs& obs);

  /// Refresh the stale piggyback view if `now` passed the next update point.
  void refresh_view(sim::TimePs now);

  /// Route a flow's demand; statistics accrue immediately.  Returns a handle
  /// for result() / close().  `now` is the caller's sim time, used only for
  /// trace span endpoints (callers without a clock may leave it 0).
  std::uint64_t open(const FlowSpec& spec, sim::TimePs now = 0);
  /// Routing outcome of a live flow (throws std::out_of_range for a closed
  /// or unknown handle).  The reference is valid until the next open().
  [[nodiscard]] const RouteResult& result(std::uint64_t flow_id) const;
  /// Release every segment the flow reserved; the handle becomes invalid.
  void close(std::uint64_t flow_id, sim::TimePs now = 0);

  [[nodiscard]] std::uint64_t live_flows() const {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] double fabric_utilization() const { return fabric_->utilization(); }
  /// Snapshot of the cumulative statistics over every open() so far.
  [[nodiscard]] FlowTally tally() const;
  [[nodiscard]] FlowSimReport report() const { return tally().report(); }

 private:
  /// One flow, live or awaiting reuse on the free list.
  struct Slot {
    RouteResult result;
    std::uint32_t generation = 1;  // advanced by every close, never 0
    bool live = false;
    // The opening, for the trace span a close emits.
    sim::TimePs opened_at = 0;
    int src = 0;
    int dst = 0;
  };

  /// Index of the live slot `flow_id` names; throws std::out_of_range with
  /// `what` and the handle when it names none.
  [[nodiscard]] std::uint32_t live_slot(std::uint64_t flow_id, const char* what) const;

  WavelengthFabric* fabric_;
  PiggybackView view_;
  IndirectRouter router_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;

  obs::Obs obs_{};
  obs::Profiler::ScopeId sc_open_ = 0, sc_refresh_ = 0;

  FlowTally tally_;  // router counters (mispicks, second hops) filled by tally()
};

/// Event-driven flow-level simulation over the AWGR fabric: Poisson flow
/// arrivals, exponential-ish holding times from the generator, allocation
/// through IndirectRouter, release on departure, periodic piggyback
/// refresh.  Used by the §VI-A bandwidth bench and the routing tests.
///
/// The simulator is stepwise: advance_to(t) processes arrivals and
/// departures up to t, finish() drains the remaining departures (arrivals
/// stop at cfg.sim_time), and report() is valid at any point in between.
/// run() is the run-to-completion convenience the benches use.
class FlowSimulator {
 public:
  FlowSimulator(WavelengthFabric& fabric, FlowGenerator generator, FlowSimConfig cfg = {});

  // Queued event handlers capture `this`; a copied or moved instance would
  // leave them pointing at the original object.
  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  /// Process every event strictly before time `t`.
  void advance_to(sim::TimePs t);
  /// Drain all remaining events (departures past the arrival horizon).
  void finish();

  [[nodiscard]] sim::TimePs now() const { return queue_.now(); }
  [[nodiscard]] FlowSimReport report() const { return engine_.report(); }
  [[nodiscard]] const FlowEngine& engine() const { return engine_; }

  /// advance_to(cfg.sim_time) + finish() + report().
  FlowSimReport run();

 private:
  FlowGenerator generator_;
  FlowSimConfig cfg_;
  sim::EventQueue queue_;
  FlowEngine engine_;
  sim::Rng arrival_rng_;
  sim::Rng flow_rng_;

  void schedule_next_arrival();
};

}  // namespace photorack::net
