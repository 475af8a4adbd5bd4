#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpusim/trace.hpp"
#include "sim/rng.hpp"

namespace photorack::workloads {

/// Address-stream building blocks for the synthetic CPU traces.  Each
/// benchmark profile mixes these with weights; the LLC miss rate then
/// *emerges* from the working set vs. cache capacity interaction rather
/// than being dialed in directly, so a larger input raises the miss rate.
enum class CpuPattern : std::uint8_t {
  kStreaming,     // unit-stride element walk (dense array sweeps)
  kStrided,       // fixed large stride (column walks, row-of-matrix hops)
  kRandom,        // uniform over the working set (hash tables, dedup)
  kPointerChase,  // random AND address-dependent (linked structures, graphs)
  kStencil,       // several parallel streams at fixed offsets (grids)
  kTiled,         // heavy reuse inside a tile, then move on (blocked kernels)
  kZipf,          // skewed hot/cold line popularity (caches, tables)
};

struct PatternSpec {
  CpuPattern kind = CpuPattern::kStreaming;
  double weight = 1.0;                 // share of memory ops
  std::uint64_t stride_bytes = 4096;   // kStrided
  int stencil_streams = 5;             // kStencil
  std::uint64_t tile_bytes = 128 * 1024;  // kTiled
  int tile_reuse = 16;                 // accesses per tile element set
  double zipf_s = 0.9;                 // kZipf skew
  /// Fraction of this pattern's accesses whose address depends on the
  /// previous load (serializes OOO misses).  kPointerChase is always 1.
  double dependent_fraction = 0.0;
  /// Memory region this pattern walks (0 = the trace's working_set).  Lets
  /// a profile mix a cache-resident hot structure with a cold sweep.
  std::uint64_t region_bytes = 0;
};

/// Full specification of one synthetic benchmark trace.
struct TraceConfig {
  std::uint64_t working_set = 64ULL << 20;
  double mem_fraction = 0.3;       // memory ops per instruction
  double store_fraction = 0.3;     // of memory ops
  std::vector<PatternSpec> patterns = std::vector<PatternSpec>(1);
  std::uint64_t seed = 1;
};

/// Deterministic generator implementing cpusim::TraceSource.  reset()
/// replays the identical stream, which is what lets baseline and perturbed
/// simulations see the same instruction sequence.
class SyntheticTrace final : public cpusim::TraceSource {
 public:
  explicit SyntheticTrace(TraceConfig cfg);

  std::size_t next_batch(std::span<cpusim::Instr> out) override;
  void reset() override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override;

  [[nodiscard]] const TraceConfig& config() const { return cfg_; }

 private:
  TraceConfig cfg_;
  sim::Rng rng_;
  std::vector<double> cumulative_weight_;

  // Per-pattern cursors (kept across batches, rebuilt by reset()).
  struct PatternState {
    std::uint64_t cursor = 0;
    std::uint64_t tile_base = 0;
    int tile_left = 0;
    int stencil_next = 0;
  };
  std::vector<PatternState> state_;

  [[nodiscard]] cpusim::Instr make_mem_op();
  [[nodiscard]] std::uint64_t gen_address(std::size_t pattern_index, bool& dependent);
};

}  // namespace photorack::workloads
