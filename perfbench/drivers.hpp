#pragma once

// Out-of-program drivers for the two layers the self-profiler has no scope
// in: the sim::EventQueue kernel and the collectives::CollectiveRunner.  Each
// times calls into the layer's public API, sized from a workload's counters.

#include <cstdint>
#include <vector>

#include "cosim/rack_cosim.hpp"

namespace perfbench {

/// The q-quantile of `v`, 0 <= q <= 1, by linear interpolation; 0 when
/// empty.  The benchmark reduces repeated timings of identical work to their
/// median.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Wall ns per scheduled event for an EventQueue held at `depth` pending
/// live events, where a `cancel_share` of all scheduled events is cancelled
/// before it fires and the rest are dispatched: the schedule + step + cancel
/// mix the co-sim loop issues.  Median of several timed passes.
[[nodiscard]] double event_queue_ns(std::uint64_t depth, double cancel_share,
                                    std::uint64_t seed);

struct CollectiveStep {
  double ns = 0.0;          // wall ns of one step (median)
  int phases = 0;           // phases of the compiled program
  std::uint64_t flows = 0;  // fabric flows the step opened
};

/// One training step's collective as the co-sim runs it: a CollectiveRunner
/// built, started and drained on a fresh FlowEngine over the co-sim fabric
/// slice, with the pattern, rank count, payload and demand of `cfg.ml`
/// (ranks on distinct MCMs while they last).  Median of several steps.
[[nodiscard]] CollectiveStep collective_step(const photorack::cosim::CosimConfig& cfg);

}  // namespace perfbench
