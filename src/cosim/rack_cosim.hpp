#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collectives/collective.hpp"
#include "collectives/runner.hpp"
#include "disagg/allocator.hpp"
#include "disagg/job_scheduler.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_scheduler.hpp"
#include "net/flow_sim.hpp"
#include "obs/obs.hpp"
#include "phot/power.hpp"
#include "rack/chips.hpp"
#include "sim/enum_codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "traffic/arrival.hpp"
#include "workloads/usage.hpp"

namespace photorack::cosim {

/// What happens to a job the rack cannot place at arrival.
enum class AdmissionPolicy {
  kDrop,   ///< reject immediately (the classic loss system; wait is always 0)
  kQueue,  ///< hold in a bounded FIFO backlog; place in order as jobs finish
};

/// Canonical CLI/axis/registry spelling of AdmissionPolicy.
const sim::EnumCodec<AdmissionPolicy>& admission_policy_codec();

/// Canonical spelling of CosimConfig::contention_feedback: "closed" (stretch
/// durations by measured contention) | "open" (flows occupy the fabric but
/// never slow jobs).
const sim::EnumCodec<bool>& feedback_codec();

/// Closed-loop rack co-simulation (§II-A telemetry × §IV fabric × §VI-C
/// power, evaluated *together* under one live job stream).
///
/// One sim::EventQueue drives three coupled layers:
///
///   jobs    — Poisson arrivals whose demands come from workloads::UsageModel
///   fabric  — each placed job opens CPU↔memory (and GPU↔memory) flows on a
///             net::WavelengthFabric through net::FlowEngine
///   power   — every allocation change steps a phot::EnergyTrace at the
///             utilization-scaled rack power level
///
/// The loop closes through contention: a job's measured satisfied fraction
/// (reserved / requested fabric bandwidth at admission) stretches its
/// residual duration, so congested racks hold resources longer, which
/// raises occupancy, which lowers acceptance.  contention_feedback = false
/// opens the loop: the same job stream with durations never stretched.
struct CosimConfig {
  // --- job stream (the §II-A demand shape, disagg::draw_job_request) ---
  double arrivals_per_ms = 4.0;
  sim::TimePs mean_duration = 20 * sim::kPsPerMs;
  sim::TimePs sim_time = 400 * sim::kPsPerMs;
  std::uint64_t seed = 7;
  int max_job_nodes = 8;  // job breadth drawn in [1, max]

  // --- open-loop traffic engine ---
  /// Arrival-process shape (poisson|mmpp|diurnal|trace).  The base rate
  /// stays on arrivals_per_ms; every stochastic process matches it in
  /// long-run mean, so load sweeps compare like against like.  The default
  /// Poisson process reproduces the pre-engine gap stream byte for byte.
  traffic::ArrivalConfig arrival;
  /// Unplaceable jobs: drop (default, the historical behavior) or hold in a
  /// bounded FIFO backlog — under queueing, job WAIT becomes a real
  /// production metric instead of identically zero.
  AdmissionPolicy admission = AdmissionPolicy::kDrop;
  /// Backlog bound for kQueue; arrivals beyond it are dropped.
  int queue_cap = 64;

  // --- contention feedback ---
  /// true: closed loop — residual duration is stretched by 1/satisfied.
  /// false: open loop — flows still occupy the fabric (statistics accrue)
  /// but durations are never stretched.  Same seed ⇒ identical job plans in
  /// both modes, so closed-vs-open is a controlled comparison.
  bool contention_feedback = true;
  /// Floor on the per-job speed fraction (caps the stretch at 1/floor), so
  /// one fully blocked flow cannot pin a job forever.
  double min_speed_fraction = 0.05;

  // --- co-sim fabric geometry (the "net" registry section) ---
  /// The fabric's MCM count is deliberately smaller than the paper's
  /// 350-MCM rack: job traffic concentrates on the handful of memory-pool
  /// MCMs a rack slice actually spans, which is where the contention the
  /// loop feeds back on lives.
  net::FabricSliceConfig fabric;

  // --- traffic model ---
  /// Every placed job opens one CPU↔memory flow per node of breadth, with
  /// demand drawn from workloads::FlowDemandModel::cpu_memory() × this
  /// scale; GPU jobs add one GPU↔memory flow per node at gpu_traffic_mult ×
  /// the same distribution.
  double traffic_scale = 1.0;
  double gpu_traffic_mult = 4.0;

  // --- power model (§VI-C, made utilization-aware) ---
  /// Idle fraction of each part's full power; the remainder scales linearly
  /// with that pool's utilization.
  double idle_power_fraction = 0.30;
  phot::BaselineRackPower baseline{};  // nodes/gpus_per_node resynced to rack

  // --- fault injection (the "fault" registry section) ---
  /// Deterministic fault timeline + resilience policy.  Disabled by default;
  /// when disabled the engine is never constructed, no events are scheduled
  /// and every output byte matches a build without the feature.
  fault::FaultConfig fault;

  // --- ML training jobs (the "ml" registry section) ---
  /// Collective-communication training stream (src/collectives).  Disabled
  /// by default; when disabled (or mix_fraction == 0) no plan ever branches
  /// to the ML path, no extra RNG draws happen, and every output byte
  /// matches a build without the feature.
  collectives::MlConfig ml;
};

/// Tail telemetry of the training-job stream (all zero when `ml.*` is off).
struct MlStats {
  bool enabled = false;
  std::uint64_t jobs_offered = 0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t steps = 0;             // training steps finished
  std::uint64_t collective_phases = 0; // flow phases executed across all steps
  disagg::TailStats step_ms;           // per-step wall time (compute + collective)
  disagg::TailStats coll_frac;         // collective time / step time, in [0,1]
  disagg::TailStats straggler;         // per-collective straggler stretch, >= 1
};

/// Sketch-backed accumulator behind MlStats; merges are exact and
/// order-independent so cluster aggregation never moves a quantile
/// (same contract as disagg::JobStreamStats).
class MlStreamStats {
 public:
  void offer() { ++offered_; }
  void accept() { ++accepted_; }
  void complete() { ++completed_; }
  void record_step(double step_ms, double coll_frac, double straggler, int phases);
  void merge(const MlStreamStats& other);
  [[nodiscard]] MlStats report() const;

 private:
  std::uint64_t offered_ = 0, accepted_ = 0, completed_ = 0;
  std::uint64_t steps_ = 0, phases_ = 0;
  sim::QuantileSketch step_ms_, coll_frac_, straggler_;
};

struct CosimReport {
  disagg::JobSimReport jobs;   // offered/accepted/utilization means
  net::FlowSimReport flows;    // satisfaction, indirection, blocking
  double mean_speed_fraction = 1.0;  // mean per-job satisfied fraction
  double mean_stretch = 1.0;         // mean duration multiplier (>= 1)
  double max_stretch = 1.0;
  double energy_joules = 0.0;
  double mean_power_w = 0.0;
  double peak_power_w = 0.0;
  double photonic_power_w = 0.0;  // constant lasers-on fabric overhead
  sim::TimePs completed_at = 0;   // queue time when the report was taken
  fault::FaultStats fault;        // all-zero defaults when faults are off
  MlStats ml;                     // all-zero defaults when ml.* is off
};

/// Everything a CosimReport is derived from, kept as raw mergeable state:
/// each section holds sums, sketches and moment accumulators, never
/// finished ratios, so merge() is exact and a cluster total is a fold of
/// its racks' tallies.  The merge rules, each written once in merge():
///   - counters and energies sum;
///   - ratios pool their raw numerators and denominators (net::FlowTally);
///   - sketches and RunningStats merge;
///   - completed_at and the event-queue pending_peak take the max;
///   - availability and MTTR pool their timelines' raw sums (downtime over
///     component-time, repair time over repairs), so each rack weighs in
///     by its components and its repairs.
/// Merging into an empty tally is exact (a RunningStats copy, integer
/// sketch buckets, 0.0 + x), so a one-rack fold reports that rack bit for
/// bit.
struct CosimTally {
  disagg::JobStreamStats jobs;             // censored waits folded in
  std::uint64_t censored_waiting = 0;      // backlog entries folded into jobs
  std::uint64_t censored_running = 0;      // jobs still holding resources
  sim::EventQueueStats events;
  net::FlowTally flows;
  sim::RunningStats speed, stretch;        // per placed HPC job
  double energy_joules = 0.0, mean_power_w = 0.0, peak_power_w = 0.0;
  double photonic_power_w = 0.0;
  sim::TimePs completed_at = 0;
  fault::FaultStats fault;                 // availability/MTTR come from `timeline`
  fault::TimelineSums timeline;            // all zero when faults are off
  bool ml_enabled = false;
  MlStreamStats ml;

  void merge(const CosimTally& other);
  [[nodiscard]] CosimReport report() const;
};

class RackCosim {
 public:
  /// `obs` attaches passive observability (trace spans per job/flow, a
  /// periodic metrics sampler, profiler scopes on the hot paths).  The
  /// default null bundle costs one pointer test per site; attaching never
  /// changes placement, routing, RNG draws, or any reported statistic —
  /// campaign outputs are byte-identical with and without it (pinned by
  /// test_obs).
  RackCosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
            const workloads::UsageModel& usage, CosimConfig cfg = {},
            obs::Obs obs = {});

  // Queued event handlers capture `this`; a copied or moved instance would
  // leave them pointing at the original object.
  RackCosim(const RackCosim&) = delete;
  RackCosim& operator=(const RackCosim&) = delete;

  /// Process every event strictly before time `t`.
  void advance_to(sim::TimePs t);
  /// Drain everything: completions of jobs still running past the arrival
  /// horizon (stretched durations can run far beyond sim_time).
  void finish();

  [[nodiscard]] sim::TimePs now() const { return queue_.now(); }
  [[nodiscard]] CosimReport report() const;
  [[nodiscard]] const disagg::RackAllocator& allocator() const { return allocator_; }
  [[nodiscard]] double fabric_utilization() const { return engine_.fabric_utilization(); }
  [[nodiscard]] std::uint64_t live_jobs() const { return live_map_.size(); }
  [[nodiscard]] std::size_t queued_jobs() const { return backlog_.size(); }

  // Everything one job will do, drawn up front from the job's own RNG child
  // stream at arrival — *before* placement.  Acceptance therefore never
  // perturbs later jobs' draws: the offered stream is identical across
  // policies and feedback modes, which is what makes closed-vs-open and
  // static-vs-disaggregated controlled comparisons.  (An arrival that a
  // full backlog refuses unread draws only its kind; the rest of its stream
  // is its own, so that moves no other job.)  Public so a cluster
  // coordinator (cluster::ClusterCosim) can carry a plan from the rack that
  // drew it to the rack that runs it.
  struct JobPlan {
    disagg::JobRequest request;
    int breadth = 1;
    sim::TimePs base_hold = 1;
    std::vector<net::FlowSpec> flows;

    /// The cluster spill-over tag.  The defaults mean a rack-local job and
    /// are inert (cap 1.0 multiplies speed by exactly 1.0, link -1 never
    /// fires the close handler), so a standalone rack is bit-identical to
    /// one built before spill-over existed.
    struct Remote {
      double speed_cap = 1.0;  // inter-rack grant / requested Gb/s
      int link = -1;           // InterRackFabric link id; -1 = local
      double gbps = 0.0;       // reserved inter-rack bandwidth
    };
    Remote remote;

    /// Training-job plan (src/collectives): inert for HPC jobs (is_ml =
    /// false, all other fields never read), so a rack without `ml.*` runs
    /// the historical job path byte for byte.  Fully drawn at arrival like
    /// everything else in the plan, so spilling an ML job to another rack
    /// carries its collective schedule with it.
    struct MlPlan {
      bool is_ml = false;
      /// Pattern, fabric MCM per rank and gradient bytes per step; the rack
      /// that places the job sets the rates.
      collectives::CollectiveSpec collective;
      int steps = 0;
      sim::TimePs compute = 0;     // per-step compute segment (jitter folded in)
    };
    MlPlan ml;
  };

  /// Offered a job the rack cannot admit (drop-mode placement failure or a
  /// full kQueue backlog).  Return true to take ownership — the rack then
  /// counts the job as offered-but-not-accepted locally and neither drops
  /// nor traces it.  Called inside the event loop; a cluster coordinator
  /// must only record the request (per-rack outbox) and act at a barrier.
  using SpillHandler =
      std::function<bool(const JobPlan& plan, sim::TimePs arrived)>;
  /// A spilled job released its inter-rack reservation: on completion or
  /// revocation (placed = true) or because it could not be admitted at the
  /// target rack either (placed = false — the spill was lost).
  using RemoteCloseHandler =
      std::function<void(int link, double gbps, sim::TimePs at, bool placed)>;

  void set_spill_handler(SpillHandler h) { spill_ = std::move(h); }
  void set_remote_close_handler(RemoteCloseHandler h) {
    remote_close_ = std::move(h);
  }

  /// Deliver a job spilled from another rack: at `deliver_at` (the spill
  /// time plus the inter-rack hop) the plan joins this rack's admission
  /// path exactly like a local arrival, except the job is NOT offered here
  /// (its origin already counted it) and keeps its original `arrived` time
  /// so wait statistics include the transfer.  If this rack cannot admit it
  /// either, the remote-close handler fires with placed = false.
  /// Precondition: `plan` carries the inter-rack tag (remote.link >= 0) —
  /// admission tells a spilled job from a local arrival by that tag alone.
  void inject_remote_job(JobPlan plan, sim::TimePs deliver_at,
                         sim::TimePs arrived);

  /// Timestamp of this rack's next pending event (INT64_MAX when drained) —
  /// the quantity a conservative-window cluster loop takes the minimum of.
  [[nodiscard]] sim::TimePs next_event_time() { return queue_.next_time(); }

  /// The raw state report() is read from, as of now: the live accumulators
  /// plus this instant's snapshot sections (censored backlog waits, event
  /// counters, flows, energy).  A cluster folds these with merge().
  [[nodiscard]] CosimTally tally() const;

 private:
  /// A planned job waiting in the kQueue backlog for resources.  `retries`
  /// carries fault-requeue state: a re-admitted victim (retries > 0) keeps
  /// its original arrival time and is never double-counted in the
  /// acceptance / wait statistics.
  struct PendingJob {
    JobPlan plan;
    sim::TimePs arrived = 0;
    int retries = 0;
  };

  /// A running job the fault engine can find, revoke, degrade or complete.
  /// Only populated state the completion/fault paths need; keyed by a
  /// cosim-local id so the completion event is cancellable on revocation.
  struct LiveJob {
    JobPlan plan;
    disagg::Allocation alloc;
    std::vector<std::uint64_t> flow_ids;  // parallel to plan.flows; 0 once closed
    sim::TimePs arrived = 0;          // original arrival (survives requeues)
    sim::TimePs placed_at = 0;        // this segment's placement time
    sim::TimePs segment_start = 0;    // last (re)stretch point
    double speed = 1.0;               // clamped satisfied fraction in force
    double remaining_base = 0.0;      // unstretched work left at segment_start
    std::uint64_t completion = 0;     // cancellable completion event id
    int retries = 0;
    int home_node = -1;               // disagg: node whose CPUs host the job
    std::vector<int> bound_nodes;     // static: exclusively owned nodes

    // --- training-job state (null/zero for HPC jobs) ---
    /// The job's collective, restarted at every step; behind a unique_ptr so
    /// the runner's queued phase event survives LiveJob moves (unordered_map
    /// rehash).
    std::unique_ptr<collectives::CollectiveRunner> runner;
    int ml_step = 0;                  // steps finished so far
    sim::TimePs step_started = 0;     // current step's compute-segment start
  };

  rack::RackConfig rack_;
  CosimConfig cfg_;
  workloads::UsageModel usage_;
  workloads::FlowDemandModel demand_;
  disagg::RackAllocator allocator_;
  std::unique_ptr<net::WavelengthFabric> fabric_;
  net::FlowEngine engine_;
  sim::EventQueue queue_;
  sim::Rng base_rng_;
  sim::Rng arrival_rng_;
  std::unique_ptr<traffic::ArrivalProcess> arrival_process_;
  std::uint64_t next_job_index_ = 0;

  std::deque<PendingJob> backlog_;
  /// The live report state: job and ML streams, speed/stretch moments and
  /// fault counters accumulate here in place; tally() adds the snapshots.
  CosimTally tally_;
  phot::EnergyTrace energy_;
  double photonic_w_ = 0.0;

  /// The training jobs' compiled collective, shared by their runners; null
  /// until the first training job is placed.
  std::shared_ptr<const collectives::CompiledCollective> collective_;

  /// Every placed job, keyed by a cosim-local id: each placement fills it,
  /// completion and revocation erase it.
  std::unordered_map<std::uint64_t, LiveJob> live_map_;
  std::uint64_t next_live_id_ = 1;

  // --- fault engine (all empty / untouched when cfg_.fault.enabled=false) ---
  std::unique_ptr<fault::FaultScheduler> fault_sched_;
  /// One rack node as a node fault sees it: whether it is down, and the live
  /// jobs its crash revokes, in placement (= id) order.  A static job is
  /// listed on every node it owns (exclusively, so a static node is free
  /// while its list is empty); a disaggregated job on its home node only.
  struct NodeDeps {
    bool down = false;
    std::vector<std::uint64_t> jobs;
  };
  std::vector<NodeDeps> nodes_;
  std::size_t next_home_ = 0;

  // --- cluster hooks (null for a standalone rack — zero behavior change) ---
  SpillHandler spill_;
  RemoteCloseHandler remote_close_;

  // --- observability (null by default; see attach contract on the ctor) ---
  obs::Obs obs_{};
  obs::Profiler::ScopeId sc_arrival_ = 0, sc_allocate_ = 0, sc_release_ = 0,
                         sc_sketch_ = 0, sc_fault_ = 0;
  /// Registered metric ids, valid only while obs_.metrics is attached.
  /// backlog_depth doubles as the censored-waiting count and live_jobs as
  /// the censored-running count (same quantities the report censors on).
  struct MetricIds {
    obs::MetricsRegistry::Id backlog_depth = 0, live_jobs = 0, fabric_util = 0,
                             pair_util_max = 0, pair_util_mean = 0,
                             satisfied_frac = 0, power_w = 0, energy_j = 0,
                             offered = 0, accepted = 0, wait_ms = 0;
    // Registered (and sampled) only when cfg_.fault.enabled, so the metrics
    // CSV schema is unchanged for fault-free runs.
    obs::MetricsRegistry::Id faults = 0, repairs = 0, interrupted = 0, killed = 0;
  };
  MetricIds m_{};

  /// A job's first draw: whether it is a training job.  No draw at all
  /// when `ml.*` is off or its mix is 0 or 1.
  [[nodiscard]] bool draws_ml(sim::Rng& rng) const;
  /// The rest of the job's plan, drawn from the same stream after its kind.
  [[nodiscard]] JobPlan make_plan(sim::Rng& rng, bool ml) const;
  [[nodiscard]] JobPlan make_ml_plan(sim::Rng& rng) const;
  [[nodiscard]] double compute_power_w() const;
  void step_energy();
  void schedule_next_arrival();
  void on_arrival();
  [[nodiscard]] bool backlog_full() const {
    return backlog_.size() >= static_cast<std::size_t>(cfg_.queue_cap);
  }
  /// The one admission decision.  Local arrivals, spilled deliveries
  /// (plan.remote.link >= 0) and fault retries (retries > 0) differ only in
  /// what happens when the rack refuses them.
  void admit(JobPlan plan, sim::TimePs arrived, int retries);
  /// admit() at time `at`, against a view refreshed then: how fault retries
  /// and spilled deliveries re-enter admission.
  void admit_at(sim::TimePs at, JobPlan plan, sim::TimePs arrived, int retries);
  /// A local arrival nobody takes: traced, and the power trace steps as on
  /// every admission.
  void drop_arrival();
  /// Place `offered` now if the allocator can; on success it moves into the
  /// live job, on refusal it is left as it was.
  bool try_start(JobPlan& offered, sim::TimePs arrived, int retries);
  /// Duration multiplier at `speed`: 1/speed closed loop, 1 open loop.
  [[nodiscard]] double stretch(double speed) const {
    return cfg_.contention_feedback ? 1.0 / speed : 1.0;
  }
  /// An HPC job's speed: the satisfied share of what its open flows ask for
  /// (`no_flows` when none is open), times its inter-rack grant cap,
  /// clamped to [min_speed_fraction, 1].
  [[nodiscard]] double flow_speed(const LiveJob& job, double no_flows) const;
  /// Run the job's remaining base work at `speed` from now: schedules its
  /// completion and returns the stretched hold.
  sim::TimePs schedule_completion(std::uint64_t job_id, LiveJob& job, double speed);
  void complete_job(std::uint64_t job_id);
  /// The one teardown, shared by completion and revocation.
  LiveJob teardown(std::uint64_t job_id, bool revoke);
  void drain_backlog();

  // --- training-job step loop (reachable only for is_ml plans) ---
  void start_ml_step(std::uint64_t job_id);
  void on_ml_collective_done(std::uint64_t job_id,
                             const collectives::CollectiveResult& result);
  void setup_obs();
  void take_sample();
  void schedule_next_sample();

  // --- fault paths (reachable only when cfg_.fault.enabled) ---
  void on_fault(const fault::FaultEvent& ev);
  [[nodiscard]] std::vector<std::uint64_t> victims_of(const fault::FaultEvent& ev) const;
  void revoke_job(std::uint64_t job_id, const fault::FaultEvent& ev);
  void resume_degraded(std::uint64_t job_id, const fault::FaultEvent& ev);
  void schedule_retry(JobPlan plan, sim::TimePs arrived, int retries);
  void bind_nodes(std::uint64_t job_id);
  void unbind_nodes(std::uint64_t job_id, const LiveJob& job);
  // Fault capacity effects ride the fabric's composable factor stack
  // (push_pair_factor / pop_pair_factor), so overlapping faults on the same
  // pair — an MCM crash atop a degraded laser — compose multiplicatively
  // and each repair removes exactly its own contribution.  `fail` pushes,
  // repair pops the same factors in the same pair order.
  void scale_fabric(const fault::FaultEvent& ev, bool fail);
  void close_remote(const JobPlan& plan, bool placed);
};

/// Run-to-completion convenience over RackCosim.
[[nodiscard]] CosimReport run_rack_cosim(const rack::RackConfig& rack,
                                         disagg::AllocationPolicy policy,
                                         const workloads::UsageModel& usage,
                                         const CosimConfig& cfg = {},
                                         obs::Obs obs = {});

}  // namespace photorack::cosim
