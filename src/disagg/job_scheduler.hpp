#pragma once

#include <cstdint>

#include "disagg/allocator.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "workloads/usage.hpp"

namespace photorack::disagg {

/// Acceptance reported for a stream that offered no jobs at all.  An empty
/// stream rejects nothing, so the vacuous value is 1.0 — chosen explicitly
/// (rather than 0/0 = NaN) so downstream aggregation over sweeps that
/// include a degenerate horizon stays NaN-free.  Callers that must tell
/// "accepted everything" from "offered nothing" check `offered` directly.
inline constexpr double kEmptyStreamAcceptance = 1.0;

/// Streaming tail summary of one job-stream metric, read off a
/// sim::QuantileSketch.  When count == 0 the quantiles report 0.0 — a
/// deliberate sentinel (an empty stream has no tail) kept NaN-free for the
/// same sweep-aggregation reason as kEmptyStreamAcceptance.
struct TailStats {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// The one p50/p99/p999 read-off of a sketch, shared by every stream that
/// reports tails (jobs here, training steps in cosim::MlStreamStats).
[[nodiscard]] TailStats tails_of(const sim::QuantileSketch& sketch);

struct JobSimReport {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  double mean_cpu_utilization = 0.0;
  double mean_gpu_utilization = 0.0;
  double mean_memory_utilization = 0.0;
  double mean_marooned_cpu = 0.0;     // fraction of rack CPUs idle-but-held
  double mean_marooned_memory = 0.0;  // fraction of rack memory idle-but-held

  // --- tail telemetry (sketch-backed, O(1) memory at any job count) ---
  TailStats wait_ms;   // queue wait: placement time - arrival time, in ms
  TailStats slowdown;  // (wait + actual hold) / base hold; >= 1
  /// The job's hold time in ms (its stretched service time), recorded once
  /// per flow the job opens — so a job's weight here is its flow count.  It
  /// is not a per-flow completion time; the name stays because external
  /// readers (perfbench) use it.
  TailStats fct_ms;

  // --- censoring (set by simulators with a horizon; see RackCosim) ---
  /// Jobs admitted to the backlog but not yet placed when the report was
  /// taken.  Their wait-so-far IS included in wait_ms (right-censored
  /// lower bounds), so a backed-up queue cannot hide behind survivorship.
  std::uint64_t censored_waiting = 0;
  /// Jobs placed and still holding resources when the report was taken
  /// (their recorded wait/slowdown/fct are final, not censored).
  std::uint64_t censored_running = 0;

  /// Event-loop activity of the simulator that produced this report
  /// (always-on sim::EventQueue counters; zero for reports assembled
  /// outside an event loop).
  sim::EventQueueStats events;

  [[nodiscard]] double acceptance() const {
    return offered ? static_cast<double>(accepted) / static_cast<double>(offered)
                   : kEmptyStreamAcceptance;
  }
};

/// Job-stream telemetry of the §II-A stream: the offered/accepted
/// counters, the PASTA utilization probes taken at each arrival, and the
/// JobSimReport assembly.  cosim::RackCosim keeps one per rack, and a
/// cluster total is a merge() of them.
class JobStreamStats {
 public:
  void offer() { ++offered_; }
  void accept() { ++accepted_; }
  /// Sample the allocator state (call at every arrival — PASTA probe).
  void sample(const RackAllocator& allocator);
  /// Tail telemetry, recorded when the value becomes known (wait and
  /// slowdown at placement, the hold time as fct once per flow at
  /// admission).  Sketch-backed: O(1) memory regardless of job count, and
  /// exact to merge, so the reported quantiles do not depend on how a
  /// campaign was sharded.
  void record_wait(double ms) { wait_ms_.add(ms); }
  void record_slowdown(double x) { slowdown_.add(x); }
  void record_fct(double ms) { fct_ms_.add(ms); }
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] JobSimReport report() const;
  /// Fold another stream's telemetry into this one (counter sums, mean and
  /// sketch merges).  Sketch merges are exact and order-independent, so a
  /// cluster report aggregated rack-by-rack carries the same tails as one
  /// stream that saw every job — sharding never moves a quantile.
  void merge(const JobStreamStats& other);

 private:
  std::uint64_t offered_ = 0;
  std::uint64_t accepted_ = 0;
  sim::RunningStats cpu_util_, gpu_util_, mem_util_, marooned_cpu_, marooned_mem_;
  sim::QuantileSketch wait_ms_, slowdown_, fct_ms_;
};

/// One §II-A-shaped job demand: breadth in nodes plus the request it implies.
struct JobDraw {
  JobRequest request;
  int breadth = 1;
};

/// Draw one job's demands from the usage distributions, in a fixed RNG
/// order.  The single definition of the §II-A demand shape: every policy
/// and feedback mode of cosim::RackCosim offers exactly these draws, which
/// is what keeps static-vs-disaggregated comparisons controlled.
[[nodiscard]] JobDraw draw_job_request(sim::Rng& rng, const workloads::UsageModel& usage,
                                       const rack::NodeConfig& node, int max_job_nodes);

}  // namespace photorack::disagg
