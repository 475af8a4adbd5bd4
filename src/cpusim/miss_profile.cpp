#include "cpusim/miss_profile.hpp"

namespace photorack::cpusim {

namespace {

SimResult build_result(const MissProfile& p, double cycles, double stall_cycles) {
  // Mirrors the SimResult arithmetic at the end of run_simulation()'s
  // implementation exactly (same expressions, same conversions).
  SimResult r;
  r.instructions = p.instructions;
  r.cycles = cycles;
  r.time_ns = cycles / p.core.freq_ghz;
  r.ipc = cycles > 0 ? p.instructions / cycles : 0.0;
  r.llc_miss_rate = p.llc_accesses ? static_cast<double>(p.llc_misses) /
                                         static_cast<double>(p.llc_accesses)
                                   : 0.0;
  r.llc_mpki = p.instructions ? 1000.0 * static_cast<double>(p.llc_misses) /
                                    static_cast<double>(p.instructions)
                              : 0.0;
  r.llc_miss_stall_cycles = stall_cycles;
  r.mem_op_fraction = p.instructions ? static_cast<double>(p.mem_ops) /
                                           static_cast<double>(p.instructions)
                                     : 0.0;
  r.dram_row_hit_rate = p.dram_row_hit_rate;
  return r;
}

}  // namespace

void MissProfileRecorder::finish(const SimConfig& cfg, const CoreStats& stats,
                                 double row_hit_rate) {
  profile_.core = cfg.core;
  profile_.dram = cfg.dram;
  profile_.llc_latency_cycles = cfg.hierarchy.llc.latency_cycles;
  profile_.instructions = stats.instructions;
  profile_.mem_ops = stats.mem_ops;
  profile_.llc_accesses = stats.llc_accesses;
  profile_.llc_misses = stats.llc_misses;
  profile_.dram_row_hit_rate = row_hit_rate;
  profile_.tail_base_cycles = segment_;
  segment_ = 0.0;
}

SimResult replay_profile(const MissProfile& p, double extra_ns) {
  const double freq = p.core.freq_ghz;
  // Same expression shape as DramModel::access (latency + extra) followed by
  // Core::dram_cycles (* freq): bit-identical to recomputing per access.
  const double dc_hit = (p.dram.row_hit_ns + extra_ns) * freq;
  const double dc_miss = (p.dram.row_miss_ns + extra_ns) * freq;
  const double inorder_hit_term = p.llc_latency_cycles + dc_hit;
  const double inorder_miss_term = p.llc_latency_cycles + dc_miss;

  double cycles = 0.0;
  double stall = 0.0;
  const double line = p.core.accelerator_line_cycles;
  for (const MissRecord& m : p.misses) {
    cycles += m.base_cycles;
    const double dc = m.row_hit ? dc_hit : dc_miss;
    switch (m.kind) {
      case MissKind::kInOrder:
        cycles += m.row_hit ? inorder_hit_term : inorder_miss_term;
        stall += dc;
        break;
      case MissKind::kOooDependent:
      case MissKind::kAccelBurstHead:
        cycles += dc;
        stall += dc;
        break;
      case MissKind::kOooIndependent: {
        const double exposed = dc / static_cast<double>(m.mlp);
        cycles += exposed;
        stall += exposed;
        break;
      }
      case MissKind::kAccelStream:
        cycles += line;
        stall += line;
        break;
    }
  }
  cycles += p.tail_base_cycles;
  return build_result(p, cycles, stall);
}

}  // namespace photorack::cpusim
