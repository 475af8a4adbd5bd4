#pragma once

#include <vector>

#include "sim/enum_codec.hpp"

namespace photorack::collectives {

/// Collective-communication patterns of multi-accelerator training traffic
/// (Kumar et al.: chip-to-chip photonic connectivity for ML servers moves
/// exactly this traffic onto the DWDM fabric the paper builds for HPC).
enum class Pattern {
  kRingAllReduce,  ///< reduce-scatter + all-gather around a logical ring
  kAllToAll,       ///< every rank sends a distinct shard to every other rank
  kParamServer,    ///< in-cast to rank 0, then out-cast back to the workers
  kBroadcast,      ///< binary-tree doubling from rank 0
};

/// Canonical CLI/axis/registry spelling: "ring"|"alltoall"|"ps"|"broadcast".
[[nodiscard]] const sim::EnumCodec<Pattern>& pattern_codec();

/// One flow of one phase, in RANK space: src/dst index into the collective's
/// accelerator list (the runner maps ranks onto fabric endpoints).
struct PhaseFlow {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;

  friend bool operator==(const PhaseFlow&, const PhaseFlow&) = default;
};

/// One bulk-synchronous phase: all flows open together, and the phase ends
/// when the SLOWEST flow finishes (the straggler gate of synchronous
/// training) — only then does the next phase start.
struct Phase {
  std::vector<PhaseFlow> flows;

  friend bool operator==(const Phase&, const Phase&) = default;
};

/// Compile a collective over `ranks` accelerators moving `bytes` of gradient
/// into its deterministic multi-phase flow program:
///
///   ring       2(ranks-1) phases of ranks flows i -> (i+1) % ranks, each
///              carrying bytes/ranks (reduce-scatter then all-gather)
///   alltoall   ranks-1 phases; phase k sends i -> (i+k) % ranks, each
///              carrying bytes/(ranks-1)
///   ps         2 phases: workers -> rank 0 (full gradient each), then
///              rank 0 -> workers
///   broadcast  ceil(log2 ranks) doubling phases from rank 0, full payload
///
/// ranks == 1 compiles to the empty program (nothing to exchange); ranks < 1
/// or bytes < 0 throws std::invalid_argument.
[[nodiscard]] std::vector<Phase> compile(Pattern pattern, int ranks, double bytes);

/// Closed-form uncontended time of the compiled program: the sum over phases
/// of the slowest flow's serialization time at `gbps` per flow.  For the
/// ring this is exactly 2(ranks-1)/ranks * bytes*8 / (gbps*1e9) — the
/// classic ring all-reduce lower bound the acceptance test pins.  Computed
/// without compiling (O(phases), no allocation), bit for bit equal to the
/// sum over compile()'s phases.  Throws std::invalid_argument for gbps <= 0,
/// then for compile()'s bad ranks, then for its bad bytes.
[[nodiscard]] double lower_bound_seconds(Pattern pattern, int ranks, double bytes,
                                         double gbps);

/// A compiled program with the arguments it was compiled from, so that one
/// compilation can serve every run of the same collective.
struct CompiledCollective {
  CompiledCollective(Pattern pattern, int ranks, double bytes)
      : pattern(pattern), ranks(ranks), bytes(bytes), phases(compile(pattern, ranks, bytes)) {}

  [[nodiscard]] bool compiled_for(Pattern p, int r, double b) const {
    return p == pattern && r == ranks && b == bytes;
  }

  Pattern pattern;
  int ranks;
  double bytes;
  std::vector<Phase> phases;
};

/// The "ml" registry section: the training-job stream the rack co-simulation
/// admits alongside (or instead of) the paper's HPC mix.  Disabled by
/// default; with enabled == false (or mix_fraction == 0) the co-sim draws
/// nothing from this struct and every output byte matches a build without
/// the feature.
struct MlConfig {
  bool enabled = false;
  Pattern pattern = Pattern::kRingAllReduce;
  /// Accelerators (collective ranks) per training job.
  int accelerators = 8;
  /// Gradient payload all-reduced per training step, in MB (1e6 bytes).
  double gradient_mb = 64.0;
  /// Training steps per job; each is a compute segment plus one collective.
  int steps = 4;
  /// Per-step compute segment before the collective, in ms.
  double compute_ms = 2.0;
  /// Fraction of the arrival stream that is ML jobs (1 = pure ML rack).
  double mix_fraction = 1.0;
  /// Per-flow bandwidth demand of a collective phase, in Gb/s.
  double demand_gbps = 25.0;
  /// Achieved-rate multiplier while the electronic-baseline fabric is
  /// modeled (fig12-style comparison; applied only when `electronic`).
  double electronic_derate = 0.25;
  /// Per-step compute jitter amplitude: the step's compute segment is
  /// stretched by max over ranks of (1 + U[0,1) * jitter_frac) — the
  /// bulk-synchronous straggler model.  0 = perfectly balanced workers.
  double jitter_frac = 0.0;
  /// Model the electronic baseline instead of the photonic fabric.  Not a
  /// registry knob: campaigns set it from their free "fabric" axis.
  bool electronic = false;
};

}  // namespace photorack::collectives
