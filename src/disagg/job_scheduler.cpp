#include "disagg/job_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace photorack::disagg {

void JobStreamStats::sample(const RackAllocator& allocator) {
  cpu_util_.add(allocator.pools().cpu_utilization());
  gpu_util_.add(allocator.pools().gpu_utilization());
  mem_util_.add(allocator.pools().memory_utilization());
  marooned_cpu_.add(allocator.marooned_cpu_fraction());
  marooned_mem_.add(allocator.marooned_memory_fraction());
}

TailStats tails_of(const sim::QuantileSketch& sketch) {
  TailStats t;
  t.count = sketch.count();
  t.p50 = sketch.quantile_or(0.5, 0.0);
  t.p99 = sketch.quantile_or(0.99, 0.0);
  t.p999 = sketch.quantile_or(0.999, 0.0);
  return t;
}

void JobStreamStats::merge(const JobStreamStats& other) {
  offered_ += other.offered_;
  accepted_ += other.accepted_;
  cpu_util_.merge(other.cpu_util_);
  gpu_util_.merge(other.gpu_util_);
  mem_util_.merge(other.mem_util_);
  marooned_cpu_.merge(other.marooned_cpu_);
  marooned_mem_.merge(other.marooned_mem_);
  wait_ms_.merge(other.wait_ms_);
  slowdown_.merge(other.slowdown_);
  fct_ms_.merge(other.fct_ms_);
}

JobSimReport JobStreamStats::report() const {
  JobSimReport report;
  report.offered = offered_;
  report.accepted = accepted_;
  report.mean_cpu_utilization = cpu_util_.mean();
  report.mean_gpu_utilization = gpu_util_.mean();
  report.mean_memory_utilization = mem_util_.mean();
  report.mean_marooned_cpu = marooned_cpu_.mean();
  report.mean_marooned_memory = marooned_mem_.mean();
  report.wait_ms = tails_of(wait_ms_);
  report.slowdown = tails_of(slowdown_);
  report.fct_ms = tails_of(fct_ms_);
  return report;
}

JobStreamSim::JobStreamSim(const rack::RackConfig& rack, AllocationPolicy policy,
                           const workloads::UsageModel& usage, JobSimConfig cfg)
    : allocator_(rack, policy),
      usage_(usage),
      cfg_(cfg),
      rack_(rack),
      arrival_rng_(cfg.seed),
      job_rng_(arrival_rng_.child(1)) {
  schedule_next_arrival();
}

// Job demands: breadth in nodes, then per-resource usage fractions drawn
// from the production distributions — exactly the §II-A picture where a
// job occupies N nodes but touches a small slice of their memory/NIC.
JobDraw draw_job_request(sim::Rng& rng, const workloads::UsageModel& usage,
                         const rack::NodeConfig& node, int max_job_nodes) {
  JobDraw draw;
  draw.breadth =
      static_cast<int>(1 + rng.below(static_cast<std::uint64_t>(max_job_nodes)));
  const double cpu_frac = usage.cpu_cores.sample(rng);
  const double mem_frac = usage.memory_capacity.sample(rng);
  const double nic_frac = usage.nic_bandwidth.sample(rng);
  draw.request.cpus = std::max(
      1, static_cast<int>(std::lround(draw.breadth * node.cpus * cpu_frac)));
  // GPUs: half the jobs are GPU jobs asking for 1..4 GPUs per node.
  draw.request.gpus =
      rng.bernoulli(0.5)
          ? draw.breadth * static_cast<int>(
                               1 + rng.below(static_cast<std::uint64_t>(node.gpus)))
          : 0;
  draw.request.memory_gb = draw.breadth * 256.0 * mem_frac;
  draw.request.nic_gbps = draw.breadth * 800.0 * nic_frac;
  return draw;
}

JobRequest JobStreamSim::make_request() {
  return draw_job_request(job_rng_, usage_, rack_.node, cfg_.max_job_nodes).request;
}

void JobStreamSim::schedule_next_arrival() {
  const double mean_gap = static_cast<double>(sim::kPsPerMs) / cfg_.arrivals_per_ms;
  const auto gap = static_cast<sim::TimePs>(arrival_rng_.exponential(mean_gap));
  if (queue_.now() + gap >= cfg_.sim_time) return;
  queue_.schedule_after(gap, [this]() {
    stats_.offer();
    const JobRequest req = make_request();
    auto alloc = std::make_shared<Allocation>(allocator_.allocate(req));
    if (alloc->placed) {
      stats_.accept();
      const auto hold = static_cast<sim::TimePs>(
          job_rng_.exponential(static_cast<double>(cfg_.mean_duration)));
      const auto clamped = std::max<sim::TimePs>(hold, 1);
      // Admit-or-drop with no fabric: placed jobs never wait and run at
      // full speed, so the tails record the degenerate truth (wait 0,
      // slowdown 1, fct = hold) rather than staying silently empty.
      stats_.record_wait(0.0);
      stats_.record_slowdown(1.0);
      stats_.record_fct(static_cast<double>(clamped) /
                        static_cast<double>(sim::kPsPerMs));
      queue_.schedule_after(clamped,
                            [this, alloc]() { allocator_.release(*alloc); });
    }
    stats_.sample(allocator_);
    schedule_next_arrival();
  });
}

void JobStreamSim::advance_to(sim::TimePs t) { queue_.run(t); }

void JobStreamSim::finish() { queue_.run(); }

JobSimReport JobStreamSim::report() const {
  JobSimReport report = stats_.report();
  report.events = queue_.stats();
  return report;
}

JobSimReport run_job_stream(const rack::RackConfig& rack, AllocationPolicy policy,
                            const workloads::UsageModel& usage, const JobSimConfig& cfg) {
  JobStreamSim sim(rack, policy, usage, cfg);
  sim.finish();
  return sim.report();
}

}  // namespace photorack::disagg
