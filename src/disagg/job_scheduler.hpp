#pragma once

#include <cstdint>
#include <functional>

#include "disagg/allocator.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "workloads/usage.hpp"

namespace photorack::disagg {

/// Job-stream comparison of static-node vs disaggregated allocation: jobs
/// with usage-distribution-shaped demands arrive Poisson, hold, and leave.
/// The interesting outputs are acceptance ratio and how much capacity the
/// static policy maroons (§I / §II-A motivation).
struct JobSimConfig {
  double arrivals_per_ms = 4.0;
  sim::TimePs mean_duration = 20 * sim::kPsPerMs;
  sim::TimePs sim_time = 2000 * sim::kPsPerMs;
  std::uint64_t seed = 7;
  int max_job_nodes = 16;  // job breadth drawn in [1, max]
};

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

/// Job-stream telemetry shared by every simulator that offers the §II-A
/// stream (JobStreamSim and cosim::RackCosim): the offered/accepted
/// counters, the PASTA utilization probes taken at each arrival, and the
/// JobSimReport assembly.  One definition keeps the simulators' reports
/// field-for-field comparable — the controlled closed-vs-open comparisons
/// depend on it.
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

/// Stepwise job-stream simulation against one rack policy.  advance_to(t)
/// processes arrivals and departures strictly before t, finish() drains the
/// departures of jobs still holding resources after the arrival horizon, and
/// report() snapshots the statistics at any point in between.  The rack
/// co-simulation engine layers fabric traffic on the same event loop; this
/// class is the open-loop (no contention feedback) core.
class JobStreamSim {
 public:
  JobStreamSim(const rack::RackConfig& rack, AllocationPolicy policy,
               const workloads::UsageModel& usage, JobSimConfig cfg = {});

  // Queued event handlers capture `this`; a copied or moved instance would
  // leave them pointing at the original object.
  JobStreamSim(const JobStreamSim&) = delete;
  JobStreamSim& operator=(const JobStreamSim&) = delete;

  /// Process every event strictly before time `t`.
  void advance_to(sim::TimePs t);
  /// Drain all remaining events (job departures past the arrival horizon).
  void finish();

  [[nodiscard]] sim::TimePs now() const { return queue_.now(); }
  [[nodiscard]] JobSimReport report() const;
  [[nodiscard]] const RackAllocator& allocator() const { return allocator_; }

 private:
  RackAllocator allocator_;
  workloads::UsageModel usage_;
  JobSimConfig cfg_;
  rack::RackConfig rack_;
  sim::EventQueue queue_;
  sim::Rng arrival_rng_;
  sim::Rng job_rng_;
  JobStreamStats stats_;

  [[nodiscard]] JobRequest make_request();
  void schedule_next_arrival();
};

/// Run the same deterministic job stream against one rack policy
/// (run-to-completion convenience over JobStreamSim).
[[nodiscard]] JobSimReport run_job_stream(const rack::RackConfig& rack,
                                          AllocationPolicy policy,
                                          const workloads::UsageModel& usage,
                                          const JobSimConfig& cfg = {});

/// One §II-A-shaped job demand: breadth in nodes plus the request it implies.
struct JobDraw {
  JobRequest request;
  int breadth = 1;
};

/// Draw one job's demands from the usage distributions, in a fixed RNG
/// order.  Shared by JobStreamSim and cosim::RackCosim — both simulators
/// MUST offer the same demand shape or their comparisons stop being
/// controlled, so this is the single definition.
[[nodiscard]] JobDraw draw_job_request(sim::Rng& rng, const workloads::UsageModel& usage,
                                       const rack::NodeConfig& node, int max_job_nodes);

}  // namespace photorack::disagg
