#include "cpusim/core.hpp"

#include <algorithm>
#include <array>

#include "cpusim/miss_profile.hpp"

namespace photorack::cpusim {

const sim::EnumCodec<CoreKind>& core_kind_codec() {
  static const sim::EnumCodec<CoreKind> codec(
      "core kind", {{"inorder", CoreKind::kInOrder},
                    {"ooo", CoreKind::kOutOfOrder},
                    {"accel", CoreKind::kDecoupledAccelerator}});
  return codec;
}

const char* to_string(CoreKind kind) { return core_kind_codec().name(kind).c_str(); }

Core::Core(CoreConfig cfg, CacheHierarchy& hierarchy, DramModel& dram)
    : cfg_(cfg), hierarchy_(&hierarchy), dram_(&dram), prefetcher_(cfg.prefetch) {
  recent_miss_idx_.assign(static_cast<std::size_t>(std::max(1, cfg_.mshrs)), 0);
}

void Core::handle_prefetch(std::uint64_t addr) {
  for (const std::uint64_t target : prefetcher_.on_miss(addr))
    hierarchy_->prefetch_fill(target);
}

void Core::reset_stats() { stats_ = CoreStats{}; }

int Core::effective_mlp() const {
  // Independent misses overlap with every other independent miss still in
  // the ROB window, bounded by the MSHRs: count recent misses whose
  // instruction index is within `rob` of the current one.
  int n = 0;
  for (const std::uint64_t idx : recent_miss_idx_)
    if (idx != 0 && instr_index_ - idx < static_cast<std::uint64_t>(cfg_.rob)) ++n;
  return std::max(1, n);
}

double Core::dram_cycles(std::uint64_t addr) {
  const DramAccess a = dram_->access(addr);
  last_row_hit_ = a.row_hit;
  return a.ns * cfg_.freq_ghz;
}

// Latency-independent cycle increment (issue slot, cache-hit penalty,
// streamed accelerator line): one place so the miss-profile recorder sees
// exactly the additions the stats accumulator performs.
void Core::add_base_cycles(double cycles) {
  stats_.cycles += cycles;
  if (recorder_) recorder_->on_base_cycles(cycles);
}

void Core::execute_inorder_mem(const Instr& ins) {
  const HitLevel level = hierarchy_->access(ins.addr);
  switch (level) {
    case HitLevel::kL1:
      // Load-to-use of an L1 hit pipelines away in a balanced in-order
      // pipeline; charging it would double-count the issue cycle.
      break;
    case HitLevel::kL2:
      add_base_cycles(hierarchy_->config().l2.latency_cycles);
      ++stats_.llc_accesses;  // L2 miss probes the LLC
      break;
    case HitLevel::kLlc:
      add_base_cycles(hierarchy_->config().llc.latency_cycles);
      ++stats_.llc_accesses;
      break;
    case HitLevel::kMemory: {
      ++stats_.llc_accesses;
      ++stats_.llc_misses;
      const double dc = dram_cycles(ins.addr);
      stats_.cycles += hierarchy_->config().llc.latency_cycles + dc;
      stats_.llc_miss_stall_cycles += dc;
      if (recorder_) recorder_->on_miss(MissKind::kInOrder, last_row_hit_, 1);
      handle_prefetch(ins.addr);
      break;
    }
  }
}

void Core::execute_ooo_mem(const Instr& ins) {
  const HitLevel level = hierarchy_->access(ins.addr);
  switch (level) {
    case HitLevel::kL1:
      break;
    case HitLevel::kL2:
      add_base_cycles(cfg_.ooo_hit_exposure * hierarchy_->config().l2.latency_cycles);
      ++stats_.llc_accesses;
      break;
    case HitLevel::kLlc:
      add_base_cycles(cfg_.ooo_hit_exposure * hierarchy_->config().llc.latency_cycles);
      ++stats_.llc_accesses;
      break;
    case HitLevel::kMemory: {
      ++stats_.llc_accesses;
      ++stats_.llc_misses;
      const double dc = dram_cycles(ins.addr);
      double exposed;
      if (ins.dependent) {
        // Address-dependent loads serialize: the full latency shows.
        // Outstanding independent misses keep draining underneath, so the
        // MLP window is left intact.
        exposed = dc;
        stats_.mlp_sum += 1.0;
        if (recorder_) recorder_->on_miss(MissKind::kOooDependent, last_row_hit_, 1);
      } else {
        // Record this miss, then expose only its share of the pipelined
        // latency: with k independent misses in flight, each costs ~dc/k.
        recent_miss_idx_[recent_head_] = instr_index_;
        recent_head_ = (recent_head_ + 1) % recent_miss_idx_.size();
        const int mlp = effective_mlp();
        stats_.mlp_sum += mlp;
        exposed = dc / static_cast<double>(mlp);
        if (recorder_) recorder_->on_miss(MissKind::kOooIndependent, last_row_hit_, mlp);
      }
      stats_.cycles += exposed;
      stats_.llc_miss_stall_cycles += exposed;
      handle_prefetch(ins.addr);
      break;
    }
  }
}

void Core::execute_accelerator_mem(const Instr& ins) {
  const HitLevel level = hierarchy_->access(ins.addr);
  if (level == HitLevel::kMemory) {
    ++stats_.llc_accesses;
    ++stats_.llc_misses;
    // The access engine runs ahead of execute: a full burst pays one
    // round-trip latency, after which lines stream at line rate.
    if (burst_fill_ == 0) {
      const double dc = dram_cycles(ins.addr);
      stats_.cycles += dc;
      stats_.llc_miss_stall_cycles += dc;
      if (recorder_) recorder_->on_miss(MissKind::kAccelBurstHead, last_row_hit_, 1);
    } else {
      const DramAccess a = dram_->access(ins.addr);  // row-buffer state still advances
      stats_.cycles += cfg_.accelerator_line_cycles;
      stats_.llc_miss_stall_cycles += cfg_.accelerator_line_cycles;
      if (recorder_) recorder_->on_miss(MissKind::kAccelStream, a.row_hit, 1);
    }
    burst_fill_ = (burst_fill_ + 1) % std::max(1, cfg_.accelerator_burst);
  } else if (level == HitLevel::kLlc) {
    ++stats_.llc_accesses;
    add_base_cycles(cfg_.accelerator_line_cycles);
  } else if (level == HitLevel::kL2) {
    add_base_cycles(cfg_.accelerator_line_cycles);
  }
}

void Core::execute(const Instr& ins) {
  ++stats_.instructions;
  ++instr_index_;
  switch (cfg_.kind) {
    case CoreKind::kInOrder:
      add_base_cycles(1.0);  // single-issue
      if (ins.kind != OpKind::kAlu) {
        ++stats_.mem_ops;
        execute_inorder_mem(ins);
      }
      break;
    case CoreKind::kOutOfOrder:
      add_base_cycles(1.0 / static_cast<double>(cfg_.width));
      if (ins.kind != OpKind::kAlu) {
        ++stats_.mem_ops;
        execute_ooo_mem(ins);
      }
      break;
    case CoreKind::kDecoupledAccelerator:
      // Spatial pipelines retire one operation per cycle regardless of mix.
      add_base_cycles(1.0);
      if (ins.kind != OpKind::kAlu) {
        ++stats_.mem_ops;
        execute_accelerator_mem(ins);
      }
      break;
  }
}

void Core::run(TraceSource& trace, std::uint64_t n) {
  std::array<Instr, 4096> batch;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, batch.size()));
    const std::size_t got = trace.next_batch(std::span<Instr>(batch.data(), want));
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) execute(batch[i]);
    remaining -= got;
  }
}

}  // namespace photorack::cpusim
