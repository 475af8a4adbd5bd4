#pragma once

#include <cstdint>
#include <vector>

#include "cpusim/cache.hpp"
#include "cpusim/dram.hpp"
#include "cpusim/prefetch.hpp"
#include "cpusim/trace.hpp"
#include "sim/enum_codec.hpp"

namespace photorack::cpusim {

class MissProfileRecorder;  // cpusim/miss_profile.hpp

enum class CoreKind : std::uint8_t {
  kInOrder,
  kOutOfOrder,
  /// §VII extension: a decoupled access/execute engine (FPGA- or
  /// accelerator-style).  Memory traffic is grouped into bursts whose
  /// latency is paid once per burst while data streams at line rate —
  /// the "burst scheduling" latency-tolerance technique of [136][137].
  kDecoupledAccelerator,
};

/// Canonical CLI/campaign-axis/registry spellings: "inorder" | "ooo" |
/// "accel".  The one definition shared by campaigns and registry bindings.
[[nodiscard]] const sim::EnumCodec<CoreKind>& core_kind_codec();
[[nodiscard]] const char* to_string(CoreKind kind);

/// Core timing parameters.  The in-order core issues one instruction per
/// cycle and exposes the full latency of every off-core access (§VI-B1:
/// "in-order cores do not mask latency").  The OOO core is a 4-wide,
/// 192-entry-ROB interval model: independent LLC misses that fall within
/// one ROB window overlap (bounded by the MSHR count); dependent misses
/// serialize; near-hits (L2/LLC) are largely hidden by the scheduler.
struct CoreConfig {
  CoreKind kind = CoreKind::kInOrder;
  double freq_ghz = 2.0;
  int width = 4;   // OOO issue width
  int rob = 192;   // OOO window, instructions
  int mshrs = 8;   // max overlapped outstanding misses
  /// Fraction of L2/LLC hit latency an OOO core still exposes.
  double ooo_hit_exposure = 0.25;
  /// Optional stride prefetcher (the §VII latency-tolerance mitigation);
  /// off by default to match the paper's "without mitigation" evaluation.
  PrefetchConfig prefetch;
  /// kDecoupledAccelerator: LLC misses per burst; one burst pays one
  /// latency, members stream behind it.
  int accelerator_burst = 16;
  /// Per-line streaming cost (cycles) within a burst.
  double accelerator_line_cycles = 2.0;
};

/// Cycle accounting produced by a core run.
struct CoreStats {
  std::uint64_t instructions = 0;
  std::uint64_t mem_ops = 0;
  double cycles = 0.0;
  double llc_miss_stall_cycles = 0.0;  // "cycles the LLC spends in a miss"
  std::uint64_t llc_misses = 0;
  std::uint64_t llc_accesses = 0;
  double mlp_sum = 0.0;  // OOO: per-miss effective memory-level parallelism

  [[nodiscard]] double mean_mlp() const {
    return llc_misses ? mlp_sum / static_cast<double>(llc_misses) : 0.0;
  }

  [[nodiscard]] double ipc() const { return cycles > 0 ? instructions / cycles : 0.0; }
  [[nodiscard]] double llc_miss_rate() const {
    return llc_accesses ? static_cast<double>(llc_misses) / static_cast<double>(llc_accesses)
                        : 0.0;
  }
};

/// Executes instructions against a hierarchy+DRAM, accumulating cycles.
/// Both core models share this interface; construction picks the model.
class Core {
 public:
  Core(CoreConfig cfg, CacheHierarchy& hierarchy, DramModel& dram);

  /// Consume `n` instructions from `trace` (in batches).
  void run(TraceSource& trace, std::uint64_t n);

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const StridePrefetcher& prefetcher() const { return prefetcher_; }
  void reset_stats();

  /// Attach a miss-profile recorder (null detaches).  The recorder observes
  /// every cycle increment without changing any of them, so an instrumented
  /// run stays bit-identical to an uninstrumented one.
  void set_recorder(MissProfileRecorder* recorder) { recorder_ = recorder; }

 private:
  CoreConfig cfg_;
  CacheHierarchy* hierarchy_;
  DramModel* dram_;
  StridePrefetcher prefetcher_;
  CoreStats stats_;
  MissProfileRecorder* recorder_ = nullptr;
  bool last_row_hit_ = false;  // row-buffer outcome of the latest dram_cycles()

  // OOO sliding-window MLP state: instruction indices of the most recent
  // independent LLC misses (bounded by the MSHR count).
  std::uint64_t instr_index_ = 0;
  std::vector<std::uint64_t> recent_miss_idx_;
  std::size_t recent_head_ = 0;
  // Accelerator burst state: misses accumulated in the current burst.
  int burst_fill_ = 0;

  void execute(const Instr& ins);
  void add_base_cycles(double cycles);
  void execute_inorder_mem(const Instr& ins);
  void execute_ooo_mem(const Instr& ins);
  void execute_accelerator_mem(const Instr& ins);
  void handle_prefetch(std::uint64_t addr);
  [[nodiscard]] double dram_cycles(std::uint64_t addr);
  [[nodiscard]] int effective_mlp() const;
};

}  // namespace photorack::cpusim
