#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collectives/collective.hpp"
#include "net/flow_sim.hpp"
#include "sim/event_queue.hpp"

namespace photorack::collectives {

/// One collective execution, bound to concrete fabric endpoints.
struct CollectiveSpec {
  Pattern pattern = Pattern::kRingAllReduce;
  /// Fabric endpoint (MCM index) of each rank; ranks sharing an endpoint
  /// exchange through local memory and open no fabric flow.
  std::vector<int> endpoints;
  /// Gradient payload moved by the collective, in bytes.
  double bytes = 0.0;
  /// Per-flow bandwidth demand, in Gb/s.
  double demand_gbps = 25.0;
  /// Multiplier on every achieved rate (electronic derate, remote-spill cap).
  double rate_scale = 1.0;
  /// Floor on the achieved rate as a fraction of demand, mirroring the
  /// cosim's min_speed_fraction so starved flows still make progress.
  double min_rate_fraction = 0.05;
};

struct CollectiveResult {
  sim::TimePs elapsed = 0;
  int phases = 0;
  std::uint64_t flows = 0;
  /// Sum over phases of (slowest flow time) / (mean flow time): 1.0 when
  /// every flow of every phase finishes together, larger when contention
  /// makes the bulk-synchronous gate wait on a straggler.
  double straggler_stretch = 1.0;
};

/// Executes one compiled collective as a deterministic multi-phase flow
/// program on a FlowEngine: each phase opens its flow set, an event fires
/// when the SLOWEST flow's payload has drained at its achieved rate, the
/// phase's flows close (restoring fabric state exactly), and the next phase
/// starts.  Entirely event-driven on the caller's queue, so collectives of
/// many concurrent training jobs interleave and contend naturally.
class CollectiveRunner {
 public:
  /// Runs `program`, which may be shared read-only with other runners and
  /// must have been compiled for spec's pattern, endpoint count and bytes
  /// (std::invalid_argument otherwise).  Null compiles the runner's own.
  CollectiveRunner(net::FlowEngine& engine, sim::EventQueue& queue,
                   CollectiveSpec spec,
                   std::shared_ptr<const CompiledCollective> program = nullptr);

  // The phase event captures `this`; hold the runner behind a stable pointer.
  CollectiveRunner(const CollectiveRunner&) = delete;
  CollectiveRunner& operator=(const CollectiveRunner&) = delete;

  ~CollectiveRunner();

  /// Begin phase 0 now.  `done` fires (once) when the last phase closes; the
  /// handler may destroy the runner.  An empty program completes via an
  /// immediate zero-delay event, never synchronously from start().
  void start(std::function<void(const CollectiveResult&)> done);

  /// Tear down mid-collective: close open flows, cancel the pending phase
  /// event, suppress the done handler.  Used by fault revocation.
  void abort();

  [[nodiscard]] bool running() const { return running_; }
  /// The currently open phase flows in fabric-endpoint space, for fault
  /// victim matching against MCM/link failures.
  [[nodiscard]] const std::vector<net::FlowSpec>& open_specs() const {
    return open_specs_;
  }

 private:
  void start_phase();
  void finish_phase();

  net::FlowEngine& engine_;
  sim::EventQueue& queue_;
  CollectiveSpec spec_;
  std::shared_ptr<const CompiledCollective> program_;
  std::size_t next_phase_ = 0;

  std::vector<std::uint64_t> open_ids_;
  std::vector<net::FlowSpec> open_specs_;
  std::uint64_t phase_event_ = 0;
  bool phase_event_live_ = false;
  bool running_ = false;

  sim::TimePs started_ = 0;
  double slowest_sum_ps_ = 0.0;
  double mean_sum_ps_ = 0.0;
  std::uint64_t flows_opened_ = 0;
  std::function<void(const CollectiveResult&)> done_;
};

}  // namespace photorack::collectives
