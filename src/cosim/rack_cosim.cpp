#include "cosim/rack_cosim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sim/table.hpp"
#include "workloads/ml_profiles.hpp"

namespace photorack::cosim {

const sim::EnumCodec<AdmissionPolicy>& admission_policy_codec() {
  static const sim::EnumCodec<AdmissionPolicy> codec(
      "admission policy", {{"drop", AdmissionPolicy::kDrop},
                           {"queue", AdmissionPolicy::kQueue}});
  return codec;
}

const sim::EnumCodec<bool>& feedback_codec() {
  static const sim::EnumCodec<bool> codec("feedback", {{"closed", true}, {"open", false}});
  return codec;
}

namespace {

double to_ms(sim::TimePs t) {
  return static_cast<double>(t) / static_cast<double>(sim::kPsPerMs);
}

CosimConfig validated(CosimConfig cfg, const rack::RackConfig& rack) {
  if (cfg.fabric.mcms < 2) throw std::invalid_argument("RackCosim: need >= 2 MCMs");
  if (cfg.fabric.lambdas_per_pair < 1)
    throw std::invalid_argument("RackCosim: need >= 1 wavelength per pair");
  if (cfg.fabric.gbps_per_wavelength.value <= 0.0)
    throw std::invalid_argument("RackCosim: wavelength rate must be positive");
  if (cfg.arrivals_per_ms <= 0.0)
    throw std::invalid_argument("RackCosim: arrival rate must be positive");
  if (cfg.mean_duration <= 0)
    throw std::invalid_argument("RackCosim: mean_duration must be positive");
  if (cfg.sim_time < 0)
    throw std::invalid_argument("RackCosim: sim_time must be non-negative");
  if (cfg.min_speed_fraction <= 0.0 || cfg.min_speed_fraction > 1.0)
    throw std::invalid_argument("RackCosim: min_speed_fraction must be in (0,1]");
  if (cfg.traffic_scale < 0.0 || cfg.gpu_traffic_mult < 0.0)
    throw std::invalid_argument("RackCosim: traffic scales must be non-negative");
  if (cfg.idle_power_fraction < 0.0 || cfg.idle_power_fraction > 1.0)
    throw std::invalid_argument("RackCosim: idle_power_fraction must be in [0,1]");
  if (cfg.admission == AdmissionPolicy::kQueue && cfg.queue_cap < 1)
    throw std::invalid_argument("RackCosim: queue_cap must be >= 1 under queueing");
  if (cfg.ml.enabled) {
    if (cfg.ml.accelerators < 2)
      throw std::invalid_argument("RackCosim: ml.accelerators must be >= 2");
    if (cfg.ml.steps < 1)
      throw std::invalid_argument("RackCosim: ml.steps must be >= 1");
    if (cfg.ml.gradient_mb < 0.0)
      throw std::invalid_argument("RackCosim: ml.gradient_mb must be >= 0");
    if (cfg.ml.compute_ms < 0.0)
      throw std::invalid_argument("RackCosim: ml.compute_ms must be >= 0");
    if (cfg.ml.mix_fraction < 0.0 || cfg.ml.mix_fraction > 1.0)
      throw std::invalid_argument("RackCosim: ml.mix_fraction must be in [0,1]");
    if (cfg.ml.demand_gbps <= 0.0)
      throw std::invalid_argument("RackCosim: ml.demand_gbps must be positive");
    if (cfg.ml.electronic_derate <= 0.0 || cfg.ml.electronic_derate > 1.0)
      throw std::invalid_argument("RackCosim: ml.electronic_derate must be in (0,1]");
    if (cfg.ml.jitter_frac < 0.0)
      throw std::invalid_argument("RackCosim: ml.jitter_frac must be >= 0");
  }
  // The power trace describes the rack the allocator manages.
  cfg.baseline.nodes = rack.nodes;
  cfg.baseline.gpus_per_node = rack.node.gpus;
  return cfg;
}

/// What one training job asks for: a gang of `accelerators` GPUs plus the
/// host-side footprint from the per-accelerator profile.
disagg::JobRequest ml_request(const collectives::MlConfig& ml) {
  const auto prof = workloads::MlAcceleratorProfile::a100_like();
  disagg::JobRequest req;
  req.cpus = static_cast<int>(std::ceil(prof.cpus_per_accel * ml.accelerators));
  req.gpus = ml.accelerators;
  req.memory_gb = prof.job_memory_gb(ml.accelerators, ml.gradient_mb);
  req.nic_gbps = prof.nic_gbps_per_accel * ml.accelerators;
  return req;
}

/// Refuse a job shape the empty rack cannot place: such a run offers every
/// job of that shape, accepts none and still exits cleanly.  Every job needs
/// a CPU, and the ml.* knobs fix a training gang, so one request stands for
/// every training job.  The NIC pool needs no check: a rank asks for far
/// less than a GPU's share of a node's NICs.
void check_job_shapes(const CosimConfig& cfg, const rack::RackConfig& rack,
                      const disagg::PoolState& pools) {
  if (rack.node.cpus < 1)
    throw std::invalid_argument("RackCosim: rack.node.cpus = " +
                                std::to_string(rack.node.cpus) +
                                ", but every job needs a CPU");
  if (!cfg.ml.enabled || cfg.ml.mix_fraction <= 0.0) return;
  const disagg::JobRequest req = ml_request(cfg.ml);
  const std::string job = "RackCosim: ml.accelerators = " + std::to_string(cfg.ml.accelerators);
  if (req.gpus > pools.gpus_total)
    throw std::invalid_argument(job + " exceeds rack.nodes * rack.node.gpus = " +
                                std::to_string(pools.gpus_total));
  if (req.cpus > pools.cpus_total)
    throw std::invalid_argument(job + " needs " + std::to_string(req.cpus) +
                                " CPUs, more than rack.nodes * rack.node.cpus = " +
                                std::to_string(pools.cpus_total));
  if (req.memory_gb > pools.memory_gb_total)
    throw std::invalid_argument(job + " with ml.gradient_mb = " +
                                sim::fmt_double(cfg.ml.gradient_mb) + " needs " +
                                sim::fmt_double(req.memory_gb) +
                                " GB of memory, more than the rack's " +
                                sim::fmt_double(pools.memory_gb_total) + " GB");
}

/// Whether a flow rides the component a fabric fault took down: an MCM crash
/// severs every flow touching that endpoint, a link cut only the flows on
/// its directed (src, dst) pair.
bool flow_touches(const net::FlowSpec& spec, const fault::FaultEvent& ev) {
  return ev.cls == fault::ComponentClass::kMcm ? (spec.src == ev.a || spec.dst == ev.a)
                                               : (spec.src == ev.a && spec.dst == ev.b);
}

}  // namespace

void MlStreamStats::record_step(double step_ms, double coll_frac, double straggler,
                                int phases) {
  ++steps_;
  phases_ += static_cast<std::uint64_t>(phases);
  step_ms_.add(step_ms);
  coll_frac_.add(coll_frac);
  straggler_.add(straggler);
}

void MlStreamStats::merge(const MlStreamStats& other) {
  offered_ += other.offered_;
  accepted_ += other.accepted_;
  completed_ += other.completed_;
  steps_ += other.steps_;
  phases_ += other.phases_;
  step_ms_.merge(other.step_ms_);
  coll_frac_.merge(other.coll_frac_);
  straggler_.merge(other.straggler_);
}

MlStats MlStreamStats::report() const {
  MlStats out;
  out.jobs_offered = offered_;
  out.jobs_accepted = accepted_;
  out.jobs_completed = completed_;
  out.steps = steps_;
  out.collective_phases = phases_;
  out.step_ms = disagg::tails_of(step_ms_);
  out.coll_frac = disagg::tails_of(coll_frac_);
  out.straggler = disagg::tails_of(straggler_);
  return out;
}

RackCosim::RackCosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
                     const workloads::UsageModel& usage, CosimConfig cfg,
                     obs::Obs obs)
    : rack_(rack),
      cfg_(validated(cfg, rack)),
      usage_(usage),
      demand_(workloads::FlowDemandModel::cpu_memory()),
      allocator_(rack, policy),
      fabric_(std::make_unique<net::WavelengthFabric>(cfg_.fabric.mcms,
                                                      net::slice_awgr_plan(cfg_.fabric))),
      // Same child-stream layout as FlowSimulator: router seed is the
      // first draw of child(1), arrivals come from child(2).
      engine_(*fabric_, cfg_.fabric.piggyback_interval, sim::Rng(cfg_.seed).child(1)()),
      base_rng_(cfg_.seed),
      arrival_rng_(base_rng_.child(2)),
      // Built after validation: throws std::invalid_argument on bad shape
      // knobs (and std::runtime_error on an unreadable trace file).
      arrival_process_(
          traffic::make_arrival_process(cfg_.arrival, cfg_.arrivals_per_ms)),
      obs_(obs) {
  check_job_shapes(cfg_, rack_, allocator_.pools());
  tally_.ml_enabled = cfg_.ml.enabled;
  // Before the t=0 metrics sample below, which needs its columns.
  setup_obs();

  // §VI-C overhead at co-sim scale: every wavelength the fabric lights burns
  // transceiver energy whether or not a flow uses it (lasers always on).
  phot::PhotonicPowerConfig photonic;
  photonic.mcms = cfg_.fabric.mcms;
  photonic.wavelengths_per_mcm = cfg_.fabric.lambdas_per_pair * cfg_.fabric.mcms;
  photonic.gbps_per_wavelength = cfg_.fabric.gbps_per_wavelength;
  photonic_w_ = phot::photonic_power_overhead(photonic, cfg_.baseline).total.value;

  step_energy();
  if (obs_.metrics) {
    take_sample();  // the t=0 row: idle pools, lasers-on floor power
    schedule_next_sample();
  }
  if (cfg_.fault.enabled) {
    // The fault timeline is a pure function of (fault config, geometry,
    // seed): derived here, armed as plain queue events.  Disabled runs skip
    // this block entirely — no events, no RNG draws, no state vectors — so
    // their event sequence numbers and output bytes are unchanged.
    fault_sched_ = std::make_unique<fault::FaultScheduler>(
        cfg_.fault, cfg_.fabric.mcms, rack_.nodes, cfg_.seed, cfg_.sim_time);
    nodes_.resize(static_cast<std::size_t>(rack_.nodes));
    tally_.fault.enabled = true;
    tally_.timeline = fault_sched_->sums(cfg_.sim_time);
    fault_sched_->arm(queue_, [this](const fault::FaultEvent& ev) { on_fault(ev); });
  }
  schedule_next_arrival();
}

void RackCosim::setup_obs() {
  if (!obs_.any()) return;
  engine_.attach_obs(obs_);
  if (obs_.profiler) {
    sc_arrival_ = obs_.profiler->scope("cosim.arrival");
    sc_allocate_ = obs_.profiler->scope("disagg.allocate");
    sc_release_ = obs_.profiler->scope("disagg.release");
    sc_sketch_ = obs_.profiler->scope("stats.sketch_insert");
    // Registered only when faults are on so fault-free profile output keeps
    // its historical scope set.
    if (cfg_.fault.enabled) sc_fault_ = obs_.profiler->scope("fault.inject");
  }
  if (obs_.metrics) {
    // backlog_depth doubles as the censored-waiting count and live_jobs as
    // the censored-running count (the quantities the report censors on).
    // The fault columns exist only when faults are on, so a fault-free
    // run's metrics schema does not carry them.
    std::vector<std::string> columns = {
        "backlog_depth", "live_jobs", "fabric_util", "pair_util_max", "pair_util_mean",
        "satisfied_frac", "power_w", "energy_j", "offered", "accepted", "wait_ms_p50",
        "wait_ms_p99"};
    if (cfg_.fault.enabled)
      columns.insert(columns.end(), {"faults", "repairs", "interrupted", "killed"});
    obs_.metrics->set_columns(std::move(columns));
  }
}

void RackCosim::take_sample() {
  // Per-MCM-pair direct-wavelength utilization: the congestion picture the
  // aggregate number hides (one hot pair can block while the mean is low).
  double max_u = 0.0, sum_u = 0.0;
  int pairs = 0;
  for (int s = 0; s < cfg_.fabric.mcms; ++s)
    for (int d = 0; d < cfg_.fabric.mcms; ++d) {
      if (s == d) continue;
      const double cap = fabric_->direct_capacity(s, d);
      if (cap <= 0.0) continue;
      max_u = std::max(max_u, fabric_->allocated(s, d) / cap);
      sum_u += fabric_->allocated(s, d) / cap;
      ++pairs;
    }
  // Wait quantiles of the jobs placed so far; the report's wait tails also
  // fold in the backlog's censored waits (tally()).
  const sim::QuantileSketch& wait = tally_.jobs.wait_sketch();
  // In set_columns order (setup_obs).
  std::vector<double> row = {static_cast<double>(backlog_.size()),
                             static_cast<double>(live_map_.size()),
                             engine_.fabric_utilization(),
                             max_u,
                             pairs ? sum_u / pairs : 0.0,
                             engine_.report().satisfied_fraction,
                             compute_power_w() + photonic_w_,
                             energy_.joules(),
                             static_cast<double>(tally_.jobs.offered()),
                             static_cast<double>(tally_.jobs.accepted()),
                             wait.quantile_or(0.5, 0.0),
                             wait.quantile_or(0.99, 0.0)};
  if (cfg_.fault.enabled)
    row.insert(row.end(), {static_cast<double>(tally_.fault.faults),
                           static_cast<double>(tally_.fault.repairs),
                           static_cast<double>(tally_.fault.interrupted),
                           static_cast<double>(tally_.fault.killed)});
  obs_.metrics->sample(to_ms(queue_.now()), std::move(row));
}

void RackCosim::schedule_next_sample() {
  // Sampler events ride the sim queue but never touch sim state: they read,
  // emit a row, and reschedule.  Ticks stop at the arrival horizon so
  // finish() still drains.
  const sim::TimePs interval = obs_.metrics->interval();
  if (interval <= 0) return;
  if (interval >= cfg_.sim_time - queue_.now()) return;
  queue_.schedule_after(interval, [this]() {
    take_sample();
    schedule_next_sample();
  });
}

bool RackCosim::draws_ml(sim::Rng& rng) const {
  // The ML branch is decided FIRST, before any HPC draw, and the predicate
  // short-circuits without touching `rng` when ml is off (or mix is 0) —
  // so a rack with `ml.*` at defaults draws the historical HPC stream byte
  // for byte.
  return cfg_.ml.enabled && cfg_.ml.mix_fraction > 0.0 &&
         (cfg_.ml.mix_fraction >= 1.0 || rng.uniform() < cfg_.ml.mix_fraction);
}

RackCosim::JobPlan RackCosim::make_plan(sim::Rng& rng, bool ml) const {
  if (ml) return make_ml_plan(rng);
  JobPlan plan;
  // The one definition of the §II-A demand shape: every policy and
  // feedback mode draws identical job mixes, so closed-vs-open and
  // static-vs-disagg comparisons stay controlled.
  const disagg::JobDraw draw =
      disagg::draw_job_request(rng, usage_, rack_.node, cfg_.max_job_nodes);
  plan.request = draw.request;
  plan.breadth = draw.breadth;
  plan.base_hold = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(
             rng.exponential(static_cast<double>(cfg_.mean_duration))));

  // Fabric demand: one CPU↔memory flow per node of breadth; GPU jobs add a
  // heavier GPU↔memory flow per node.  Endpoints are uniform over the co-sim
  // MCMs — disaggregated placement scatters a job's resources rack-wide.
  auto draw_flow = [&](double scale) {
    net::FlowSpec spec;
    spec.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(cfg_.fabric.mcms)));
    spec.dst = static_cast<int>(
        (spec.src + 1 + rng.below(static_cast<std::uint64_t>(cfg_.fabric.mcms - 1))) %
        cfg_.fabric.mcms);
    spec.gbps = demand_.sample_gbps(rng) * scale;
    return spec;
  };
  plan.flows.reserve(static_cast<std::size_t>(plan.breadth) *
                     (plan.request.gpus > 0 ? 2 : 1));
  for (int i = 0; i < plan.breadth; ++i)
    plan.flows.push_back(draw_flow(cfg_.traffic_scale));
  if (plan.request.gpus > 0)
    for (int i = 0; i < plan.breadth; ++i)
      plan.flows.push_back(draw_flow(cfg_.traffic_scale * cfg_.gpu_traffic_mult));
  return plan;
}

RackCosim::JobPlan RackCosim::make_ml_plan(sim::Rng& rng) const {
  const collectives::MlConfig& ml = cfg_.ml;
  JobPlan plan;
  plan.ml.is_ml = true;
  collectives::CollectiveSpec& collective = plan.ml.collective;
  collective.pattern = ml.pattern;
  collective.bytes = ml.gradient_mb * 1e6;
  plan.ml.steps = ml.steps;

  const int per_node = std::max(1, rack_.node.gpus);
  plan.breadth = (ml.accelerators + per_node - 1) / per_node;
  plan.request = ml_request(ml);

  // Rank endpoints: distinct MCMs while they last (partial Fisher-Yates over
  // the endpoint range), then uniform wrap when a job has more ranks than
  // the fabric has endpoints — wrapped ranks share an MCM and exchange
  // locally, exactly like co-packaged accelerators.
  const int mcms = cfg_.fabric.mcms;
  std::vector<int> pool(static_cast<std::size_t>(mcms));
  std::iota(pool.begin(), pool.end(), 0);
  collective.endpoints.reserve(static_cast<std::size_t>(ml.accelerators));
  for (int i = 0; i < ml.accelerators; ++i) {
    if (i < mcms) {
      const std::size_t j = static_cast<std::size_t>(i) +
                            rng.below(static_cast<std::uint64_t>(mcms - i));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      collective.endpoints.push_back(pool[static_cast<std::size_t>(i)]);
    } else {
      collective.endpoints.push_back(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(mcms))));
    }
  }

  // Compute segment, stretched by the slowest rank's jitter draw — the
  // bulk-synchronous gate waits on the straggler.  No draws at jitter 0, so
  // jitter-free streams match a build without the knob.
  double jitter_mult = 1.0;
  if (ml.jitter_frac > 0.0)
    for (int i = 0; i < ml.accelerators; ++i)
      jitter_mult = std::max(jitter_mult, 1.0 + ml.jitter_frac * rng.uniform());
  plan.ml.compute = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(ml.compute_ms * jitter_mult *
                                  static_cast<double>(sim::kPsPerMs)));

  // base_hold anchors at the uncontended closed-form job time, so ML
  // slowdown keeps the HPC meaning: time in system over ideal service time.
  const double ideal_coll_s = collectives::lower_bound_seconds(
      ml.pattern, ml.accelerators, collective.bytes, ml.demand_gbps);
  const double ideal_ps =
      ml.steps * (static_cast<double>(plan.ml.compute) + ideal_coll_s * 1e12);
  plan.base_hold = std::max<sim::TimePs>(1, static_cast<sim::TimePs>(ideal_ps));
  return plan;
}

double RackCosim::compute_power_w() const {
  const auto& pools = allocator_.pools();
  const auto& base = cfg_.baseline;
  const double idle = cfg_.idle_power_fraction;
  auto level = [&](double utilization, double full_watts) {
    return full_watts * (idle + (1.0 - idle) * utilization);
  };
  const double nodes = static_cast<double>(base.nodes);
  return level(pools.cpu_utilization(), nodes * base.cpu_per_node.value) +
         level(pools.gpu_utilization(),
               nodes * base.gpus_per_node * base.gpu_each.value) +
         level(pools.memory_utilization(), nodes * base.memory_per_node.value);
}

void RackCosim::step_energy() {
  const double watts = compute_power_w() + photonic_w_;
  energy_.step_to(sim::to_s(queue_.now()), phot::Watts{watts});
  if (obs_.trace)
    obs_.trace->counter(obs::Track::kPower, "rack_power_w", queue_.now(), watts);
}

void RackCosim::schedule_next_arrival() {
  // The arrival process owns the gap law (the default Poisson process keeps
  // the historical scaled-gap stream byte for byte); the cosim owns the
  // stream discipline — every draw comes from arrival_rng_ (child(2)).
  // The horizon check is written as a subtraction so an exhausted trace's
  // kNoMoreArrivals sentinel cannot overflow `now + gap`.
  const sim::TimePs gap = arrival_process_->next_gap(queue_.now(), arrival_rng_);
  if (gap >= cfg_.sim_time - queue_.now()) return;
  queue_.schedule_after(gap, [this]() { on_arrival(); });
}

bool RackCosim::try_start(JobPlan& offered, sim::TimePs arrived, int retries) {
  disagg::Allocation alloc;
  {
    obs::ScopedTimer timer(obs_.profiler, sc_allocate_);
    alloc = allocator_.allocate(offered.request);
  }
  if (!alloc.placed) return false;
  // A fault-requeued job's acceptance, wait and contention tails were
  // recorded at FIRST placement and must not be double-counted.
  // Fault-free runs always record, so this path is the historical one byte
  // for byte.
  const bool record = retries == 0;
  if (record) tally_.jobs.accept();
  const std::uint64_t job_id = next_live_id_++;
  LiveJob& job = live_map_[job_id];
  job.plan = std::move(offered);
  const JobPlan& plan = job.plan;
  job.alloc = alloc;
  job.arrived = arrived;
  job.retries = retries;
  job.placed_at = queue_.now();
  const sim::TimePs wait = queue_.now() - arrived;
  if (cfg_.fault.enabled) bind_nodes(job_id);
  if (plan.ml.is_ml) {
    // Training jobs skip the HPC hold/stretch machinery entirely: their
    // lifetime is the event-driven step loop (compute segment, then a
    // collective on the live fabric), so contention acts through achieved
    // collective rates instead of a one-shot admission-time stretch.
    if (record) {
      tally_.ml.accept();
      {
        obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
        tally_.jobs.record_wait(to_ms(wait));
      }
    }
    if (obs_.trace)
      obs_.trace->instant(
          obs::Track::kJobs, "ml_placed", queue_.now(),
          {{"wait_ms", to_ms(wait)},
           {"ranks", static_cast<double>(plan.ml.collective.endpoints.size())}});
    collectives::CollectiveSpec& spec = job.plan.ml.collective;
    spec.demand_gbps = cfg_.ml.demand_gbps;
    // The electronic-baseline derate and a spilled job's inter-rack grant cap
    // compose multiplicatively on the achieved rate (local photonic jobs
    // carry exactly 1.0 for both).
    spec.rate_scale =
        std::clamp((cfg_.ml.electronic ? cfg_.ml.electronic_derate : 1.0) *
                       plan.remote.speed_cap,
                   cfg_.min_speed_fraction, 1.0);
    spec.min_rate_fraction = cfg_.min_speed_fraction;
    // Every training job of a rack runs the same collective, so it is
    // compiled once, at the first placement (a rack that places no training
    // job never compiles), and shared by every runner.
    const int ranks = static_cast<int>(spec.endpoints.size());
    if (!collective_ || !collective_->compiled_for(spec.pattern, ranks, spec.bytes))
      collective_ = std::make_shared<const collectives::CompiledCollective>(
          spec.pattern, ranks, spec.bytes);
    job.runner =
        std::make_unique<collectives::CollectiveRunner>(engine_, queue_, spec, collective_);
    start_ml_step(job_id);
    return true;
  }
  job.flow_ids.reserve(plan.flows.size());
  for (const auto& spec : plan.flows) job.flow_ids.push_back(engine_.open(spec, queue_.now()));
  const double speed = flow_speed(job, 1.0);
  job.remaining_base = static_cast<double>(plan.base_hold);
  const sim::TimePs hold = schedule_completion(job_id, job, speed);
  // Tails are recorded at placement, when wait and hold are both known —
  // NOT at completion, so mid-run reports carry no survivorship bias from
  // long jobs still running.  Slowdown folds queueing and contention into
  // one number: time-in-system over uncontended service time.
  if (record) {
    tally_.speed.add(speed);
    tally_.stretch.add(stretch(speed));
    {
      obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
      tally_.jobs.record_wait(to_ms(wait));
      tally_.jobs.record_slowdown(static_cast<double>(wait + hold) /
                                  static_cast<double>(plan.base_hold));
      tally_.jobs.record_fct(to_ms(hold), plan.flows.size());
    }
  }
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kJobs, "placed", queue_.now(),
                        {{"wait_ms", to_ms(wait)}, {"speed", speed}});
  return true;
}

double RackCosim::flow_speed(const LiveJob& job, double no_flows) const {
  double requested = 0.0, satisfied = 0.0;
  for (const std::uint64_t id : job.flow_ids) {
    if (id == 0) continue;
    const net::RouteResult& route = engine_.result(id);
    requested += route.requested;
    satisfied += route.satisfied();
  }
  const double floor = cfg_.min_speed_fraction;
  const double local =
      requested > 0.0 ? std::clamp(satisfied / requested, floor, 1.0) : no_flows;
  // Spilled jobs run behind a finite inter-rack pipe: the grant fraction
  // caps speed multiplicatively.  A local job's cap is 1.0: `x * 1.0` and
  // re-clamping an in-range value are both exact, so a local job's speed is
  // its flows' share bit for bit.
  return std::clamp(local * job.plan.remote.speed_cap, floor, 1.0);
}

sim::TimePs RackCosim::schedule_completion(std::uint64_t job_id, LiveJob& job,
                                           double speed) {
  const auto hold = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(job.remaining_base * stretch(speed)));
  job.speed = speed;
  job.segment_start = queue_.now();
  job.completion =
      queue_.schedule_after(hold, [this, job_id]() { complete_job(job_id); });
  return hold;
}

void RackCosim::start_ml_step(std::uint64_t job_id) {
  LiveJob& job = live_map_.at(job_id);
  job.step_started = queue_.now();
  // The compute event reuses the cancellable completion slot, so revoking a
  // mid-compute victim kills it exactly like an HPC completion; during the
  // collective this id is stale-but-fired and cancel is a safe no-op (the
  // runner's abort covers the live phase event).
  const auto compute = std::max<sim::TimePs>(1, job.plan.ml.compute);
  job.completion = queue_.schedule_after(compute, [this, job_id]() {
    live_map_.at(job_id).runner->start(
        [this, job_id](const collectives::CollectiveResult& result) {
          on_ml_collective_done(job_id, result);
        });
  });
}

void RackCosim::on_ml_collective_done(std::uint64_t job_id,
                                      const collectives::CollectiveResult& result) {
  LiveJob& job = live_map_.at(job_id);
  const double step_ms = to_ms(queue_.now() - job.step_started);
  const double coll_ms = to_ms(result.elapsed);
  {
    obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
    tally_.ml.record_step(step_ms, step_ms > 0.0 ? coll_ms / step_ms : 0.0,
                          result.straggler_stretch, result.phases);
  }
  if (obs_.trace)
    obs_.trace->complete(obs::Track::kJobs, "ml_step", job.step_started,
                         queue_.now(),
                         {{"coll_ms", coll_ms},
                          {"straggler", result.straggler_stretch}});
  ++job.ml_step;
  if (job.ml_step < job.plan.ml.steps)
    start_ml_step(job_id);
  else
    complete_job(job_id);
}

RackCosim::LiveJob RackCosim::teardown(std::uint64_t job_id, bool revoke) {
  const auto it = live_map_.find(job_id);
  if (it == live_map_.end())
    throw std::logic_error("teardown: job already revoked or completed");
  LiveJob job = std::move(it->second);
  live_map_.erase(it);
  const sim::TimePs now = queue_.now();
  // A revoked job's pending completion must die with it: a stale completion
  // firing on a revoked id would double-release the allocation.  On the
  // completion path the event has already fired and the cancel counts
  // nothing.
  queue_.cancel(job.completion);
  // A mid-collective victim also holds phase flows and a pending phase
  // event inside its runner; abort tears both down before the release.
  if (job.runner) job.runner->abort();
  for (const std::uint64_t id : job.flow_ids)
    if (id != 0) engine_.close(id, now);
  if (revoke) {
    allocator_.revoke(job.alloc);
  } else {
    obs::ScopedTimer timer(obs_.profiler, sc_release_);
    allocator_.release(job.alloc);
  }
  unbind_nodes(job_id, job);
  // A spill hands back its inter-rack reservation whichever way it ends and
  // drops the tag: a retry re-enters THIS rack's admission path as an
  // untagged local job, so the grant can never be released twice.
  close_remote(job.plan, /*placed=*/true);
  job.plan.remote = {};
  return job;
}

void RackCosim::complete_job(std::uint64_t job_id) {
  const LiveJob job = teardown(job_id, /*revoke=*/false);
  if (cfg_.fault.enabled) ++tally_.fault.goodput_jobs;
  if (job.plan.ml.is_ml) {
    // ML slowdown is known only at completion (steps ran at live collective
    // speeds, not an admission-time stretch); revoked jobs never reach here,
    // so a fault-requeued training job still records exactly once.
    tally_.ml.complete();
    obs::ScopedTimer timer(obs_.profiler, sc_sketch_);
    tally_.jobs.record_slowdown(static_cast<double>(queue_.now() - job.arrived) /
                                static_cast<double>(job.plan.base_hold));
  }
  if (obs_.trace)
    obs_.trace->complete(obs::Track::kJobs, "job", job.placed_at, queue_.now(),
                         {{"breadth", static_cast<double>(job.plan.breadth)},
                          {"speed", job.speed}});
  drain_backlog();
  step_energy();
}

void RackCosim::close_remote(const JobPlan& plan, bool placed) {
  if (plan.remote.link >= 0 && remote_close_)
    remote_close_(plan.remote.link, plan.remote.gbps, queue_.now(), placed);
}

void RackCosim::drain_backlog() {
  if (backlog_.empty()) return;
  engine_.refresh_view(queue_.now());
  // Strict FIFO: stop at the first job that does not fit, even if a
  // narrower one behind it would — backfilling would reorder the queue and
  // make wait tails incomparable across policies.
  while (!backlog_.empty() &&
         try_start(backlog_.front().plan, backlog_.front().arrived,
                   backlog_.front().retries))
    backlog_.pop_front();
}

// The timeline alternates fail/repair strictly per component, so every fail
// here is matched by exactly one later repair: an MCM flag is never set
// twice, a pair's factor stack never holds two entries from the same
// component instance, and when a pair's last fault repairs, the empty
// product restores exactly 1.0.  The fabric's scales and capacity depend
// only on which faults are live, so the order of the pairs is not part of
// the output.
void RackCosim::scale_fabric(const fault::FaultEvent& ev, bool fail) {
  auto scale = [&](int src, int dst, double factor) {
    if (fail)
      fabric_->push_pair_factor(src, dst, factor);
    else
      fabric_->pop_pair_factor(src, dst, factor);
  };
  switch (ev.cls) {
    case fault::ComponentClass::kMcm:
      // A crashed MCM severs every pair touching it, both directions.
      fabric_->set_mcm_down(ev.a, fail);
      break;
    case fault::ComponentClass::kLink:
      scale(ev.a, ev.b, 0.0);
      break;
    case fault::ComponentClass::kLaser:
      // A degraded comb laser dims only the wavelengths its own port
      // transmits.
      for (int d = 0; d < cfg_.fabric.mcms; ++d)
        if (d != ev.a) scale(ev.a, d, cfg_.fault.degrade_fraction);
      break;
    case fault::ComponentClass::kNode:
      break;  // node capacity lives in the allocator (see on_fault)
  }
}

void RackCosim::bind_nodes(std::uint64_t job_id) {
  LiveJob& job = live_map_.at(job_id);
  if (allocator_.policy() == disagg::AllocationPolicy::kStaticNodes) {
    // Pin the grant to concrete free nodes, first-fit, so a node fault has
    // exact victims instead of probabilistic ones.  The allocator already
    // guaranteed enough free nodes; disagreement here is a sequencing bug.
    job.bound_nodes.reserve(static_cast<std::size_t>(job.alloc.nodes));
    for (int n = 0; n < rack_.nodes &&
                    static_cast<int>(job.bound_nodes.size()) < job.alloc.nodes;
         ++n) {
      NodeDeps& node = nodes_[static_cast<std::size_t>(n)];
      if (node.down || !node.jobs.empty()) continue;
      node.jobs.push_back(job_id);
      job.bound_nodes.push_back(n);
    }
    if (static_cast<int>(job.bound_nodes.size()) != job.alloc.nodes)
      throw std::logic_error("bind_nodes: allocator and node map disagree");
  } else {
    // Round-robin home node: the place whose pooled CPUs host this job's
    // threads.  Pooled memory/NIC capacity has no single home — that is the
    // disaggregation dividend the blast-radius campaign measures.
    for (int tries = 0; tries < rack_.nodes; ++tries) {
      const int cand =
          static_cast<int>(next_home_++ % static_cast<std::size_t>(rack_.nodes));
      if (!nodes_[static_cast<std::size_t>(cand)].down) {
        job.home_node = cand;
        nodes_[static_cast<std::size_t>(cand)].jobs.push_back(job_id);
        break;
      }
    }
  }
}

void RackCosim::unbind_nodes(std::uint64_t job_id, const LiveJob& job) {
  // Jobs join their lists in id order (ids only grow) and erase keeps it.
  auto leave = [&](int n) {
    auto& jobs = nodes_[static_cast<std::size_t>(n)].jobs;
    jobs.erase(std::find(jobs.begin(), jobs.end(), job_id));
  };
  for (const int n : job.bound_nodes) leave(n);
  if (job.home_node >= 0) leave(job.home_node);
}

std::vector<std::uint64_t> RackCosim::victims_of(const fault::FaultEvent& ev) const {
  // Victims are visited in id order, so the timeline's effects are
  // bit-reproducible.
  switch (ev.cls) {
    case fault::ComponentClass::kNode:
      return nodes_[static_cast<std::size_t>(ev.a)].jobs;
    case fault::ComponentClass::kLaser:
      return {};  // capacity-only: degrades future placements, strands no one
    case fault::ComponentClass::kMcm:
    case fault::ComponentClass::kLink:
      break;
  }
  // Blast-radius asymmetry: only disaggregated jobs depend on the fabric to
  // reach their memory.  A static job's flows model traffic that is
  // node-local in that regime, so fabric faults pass it by.
  if (allocator_.policy() != disagg::AllocationPolicy::kDisaggregated) return {};
  // A fabric fault strikes whichever flows ride its component, and placements
  // outnumber such faults about nine to one, so the live jobs are scanned here
  // rather than indexed by pair at every placement.
  const auto touches = [&ev](const net::FlowSpec& spec) { return flow_touches(spec, ev); };
  std::vector<std::uint64_t> out;
  for (const auto& [id, job] : live_map_) {
    bool hit = false;
    for (std::size_t i = 0; i < job.flow_ids.size() && !hit; ++i)
      hit = job.flow_ids[i] != 0 && touches(job.plan.flows[i]);
    // A training job touches the fabric only during collective phases;
    // mid-compute its runner has no open flows and a fabric fault passes it
    // by.
    if (!hit && job.runner) hit = std::ranges::any_of(job.runner->open_specs(), touches);
    if (hit) out.push_back(id);
  }
  // live_map_ iteration order is unspecified.
  std::sort(out.begin(), out.end());
  return out;
}

void RackCosim::revoke_job(std::uint64_t job_id, const fault::FaultEvent& ev) {
  LiveJob job = teardown(job_id, /*revoke=*/true);
  const sim::TimePs now = queue_.now();
  ++tally_.fault.interrupted;
  tally_.fault.work_lost_ms += to_ms(now - job.placed_at);
  if (obs_.trace)
    obs_.trace->instant(
        obs::Track::kFaults, "revoke", now,
        {{"job", static_cast<double>(job_id)},
         {"cls", static_cast<double>(static_cast<int>(ev.cls))}});
  if (cfg_.fault.policy == fault::ResiliencePolicy::kKill) {
    ++tally_.fault.killed;
    if (obs_.trace) obs_.trace->instant(obs::Track::kFaults, "kill", now);
  } else {
    // kRequeue, and kDegrade victims that cannot run degraded (node crash).
    schedule_retry(std::move(job.plan), job.arrived, job.retries + 1);
  }
}

void RackCosim::resume_degraded(std::uint64_t job_id, const fault::FaultEvent& ev) {
  LiveJob& job = live_map_.at(job_id);
  const sim::TimePs now = queue_.now();
  // Bank the progress made at the old speed before re-stretching the rest.
  const double done_base =
      static_cast<double>(now - job.segment_start) / stretch(job.speed);
  job.remaining_base = std::max(0.0, job.remaining_base - done_base);
  // Drop the flows stranded on the dead component; survivors keep their
  // admission-time reservations.
  for (std::size_t i = 0; i < job.flow_ids.size(); ++i) {
    if (job.flow_ids[i] == 0 || !flow_touches(job.plan.flows[i], ev)) continue;
    engine_.close(job.flow_ids[i], now);
    job.flow_ids[i] = 0;
  }
  // A job whose every flow died crawls at the floor speed — an empty sum
  // must not read as full speed.  A spilled job keeps its inter-rack cap:
  // losing local flows never widens the pipe between racks.
  const double speed = flow_speed(job, cfg_.min_speed_fraction);
  queue_.cancel(job.completion);
  schedule_completion(job_id, job, speed);
  ++tally_.fault.degraded;
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kFaults, "degrade", now,
                        {{"job", static_cast<double>(job_id)}, {"speed", speed}});
}

void RackCosim::schedule_retry(JobPlan plan, sim::TimePs arrived, int retries) {
  if (retries > cfg_.fault.max_retries) {
    ++tally_.fault.killed;
    if (obs_.trace)
      obs_.trace->instant(obs::Track::kFaults, "retries_exhausted", queue_.now());
    return;
  }
  // Exponential backoff, capped: base, 2*base, 4*base, ... up to the cap.
  const double factor = std::ldexp(1.0, std::min(retries - 1, 60));
  const double backoff_ms =
      std::min(cfg_.fault.backoff_cap_ms, cfg_.fault.backoff_base_ms * factor);
  const auto delay = std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(backoff_ms * static_cast<double>(sim::kPsPerMs)));
  ++tally_.fault.requeued;
  admit_at(queue_.now() + delay, std::move(plan), arrived, retries);
}

void RackCosim::on_fault(const fault::FaultEvent& ev) {
  obs::ScopedTimer timer(obs_.profiler, sc_fault_);
  const sim::TimePs now = queue_.now();
  const bool fail = ev.kind == fault::FaultKind::kFail;
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kFaults, fail ? "fail" : "repair", now,
                        {{"cls", static_cast<double>(static_cast<int>(ev.cls))},
                         {"a", static_cast<double>(ev.a)},
                         {"b", static_cast<double>(ev.b)}});
  ++(fail ? tally_.fault.faults : tally_.fault.repairs);
  // Capacity first, victims second: a victim's surviving flows must be
  // judged against the post-fault fabric.  Node capacity is the exception
  // — static victims have to be revoked before their nodes can retire, and
  // a repaired node must be back before the backlog drains onto it.
  scale_fabric(ev, fail);
  if (!fail && ev.cls == fault::ComponentClass::kNode) {
    allocator_.bring_nodes_online(1);
    nodes_[static_cast<std::size_t>(ev.a)].down = false;
  }
  engine_.refresh_view(now);
  if (fail) {
    for (const std::uint64_t id : victims_of(ev)) {
      // A crashed node cannot run degraded — its CPUs are gone.  Fabric
      // faults can: drop the dead flows and re-stretch the remainder.
      // Training jobs cannot either: a collective with a dead phase flow is
      // a broken gradient exchange, so ML victims always revoke.
      const bool degrade = cfg_.fault.policy == fault::ResiliencePolicy::kDegrade &&
                           ev.cls != fault::ComponentClass::kNode &&
                           !live_map_.at(id).plan.ml.is_ml;
      if (degrade)
        resume_degraded(id, ev);
      else
        revoke_job(id, ev);
    }
    if (ev.cls == fault::ComponentClass::kNode) {
      allocator_.take_nodes_offline(1);
      nodes_[static_cast<std::size_t>(ev.a)].down = true;
    }
  } else {
    drain_backlog();  // restored capacity may admit backlogged work
  }
  step_energy();
}

void RackCosim::admit(JobPlan plan, sim::TimePs arrived, int retries) {
  const sim::TimePs now = queue_.now();
  const bool queued = cfg_.admission == AdmissionPolicy::kQueue;
  const bool retry = retries > 0;
  const bool spilled = plan.remote.link >= 0;
  // kQueue holds every origin in one bounded FIFO on the same queue_cap (no
  // reserved headroom for retries or spills); kDrop places directly, and a
  // drop-mode rack's backlog stays identically empty even under fault churn.
  bool admitted;
  if (queued) {
    admitted = !backlog_full();
    if (admitted) {
      if (obs_.trace && !retry && !spilled)  // fresh arrivals only
        obs_.trace->instant(obs::Track::kJobs, "enqueue", now);
      backlog_.push_back(PendingJob{std::move(plan), arrived, retries});
      drain_backlog();
    }
  } else {
    admitted = try_start(plan, arrived, retries);
  }
  if (!admitted) {
    // Refused: the outcome depends only on where the job came from.
    if (retry) {
      // A fault victim must not wait where arrivals are turned away (queue:
      // killed); under drop it backs off and tries again.
      if (queued)
        ++tally_.fault.killed;
      else
        schedule_retry(std::move(plan), arrived, retries + 1);
    } else if (spilled) {
      // A second refusal is final: the spill is lost and the inter-rack
      // grant goes back unused.
      close_remote(plan, /*placed=*/false);
      if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "spill_lost", now);
    } else if (spill_ && spill_(plan, now)) {
      // A local arrival is offered to the spill handler before it is
      // dropped; it stays in `offered` here and is accepted (or lost)
      // wherever it lands, so cluster-wide acceptance stays conservative.
      if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "spill", now);
    } else {
      drop_arrival();
      return;
    }
  }
  // Step the trace on EVERY admission, refused ones included: the level
  // changes on any placement (a retry's too), and the integration point
  // must advance to the last event or the tail of the horizon silently
  // drops out of the total (an all-rejected stream still burns idle +
  // lasers-on photonic power).
  step_energy();
}

void RackCosim::drop_arrival() {
  if (obs_.trace)
    obs_.trace->instant(obs::Track::kJobs,
                        cfg_.admission == AdmissionPolicy::kQueue ? "queue_drop" : "reject",
                        queue_.now());
  step_energy();
}

void RackCosim::on_arrival() {
  obs::ScopedTimer timer(obs_.profiler, sc_arrival_);
  engine_.refresh_view(queue_.now());
  tally_.jobs.offer();
  if (obs_.trace) obs_.trace->instant(obs::Track::kJobs, "arrival", queue_.now());
  // Per-job child stream keyed by arrival index: a job's demands, duration
  // and flow layout are a pure function of (seed, index), independent of
  // every placement decision before it.
  sim::Rng job_rng = base_rng_.child(16 + next_job_index_++);
  const bool ml = draws_ml(job_rng);
  if (ml) tally_.ml.offer();
  // A full backlog with nowhere to spill refuses the job unread, so it
  // draws only its kind: the rest of its own stream is never read, and no
  // other job's draws move.
  if (cfg_.admission == AdmissionPolicy::kQueue && backlog_full() && !spill_)
    drop_arrival();
  else
    admit(make_plan(job_rng, ml), queue_.now(), 0);
  tally_.jobs.sample(allocator_);
  schedule_next_arrival();
}

void RackCosim::inject_remote_job(JobPlan plan, sim::TimePs deliver_at,
                                  sim::TimePs arrived) {
  // Admitted like a local arrival (its acceptance, wait and tails are
  // accounted where it runs) but NOT offered here — the origin rack already
  // counted the offer, so cluster totals add up.
  admit_at(deliver_at, std::move(plan), arrived, 0);
}

void RackCosim::admit_at(sim::TimePs at, JobPlan plan, sim::TimePs arrived, int retries) {
  // The event fires once, so the closure hands its plan on instead of
  // copying it.
  queue_.schedule_at(at, [this, plan = std::move(plan), arrived, retries]() mutable {
    engine_.refresh_view(queue_.now());
    // Only a delivered spill carries the tag: teardown resets a retry's.
    if (obs_.trace && plan.remote.link >= 0)
      obs_.trace->instant(obs::Track::kJobs, "remote_arrival", queue_.now());
    admit(std::move(plan), arrived, retries);
  });
}

void RackCosim::advance_to(sim::TimePs t) { queue_.run(t); }

void RackCosim::finish() { queue_.run(); }

CosimTally RackCosim::tally() const {
  CosimTally t = tally_;
  // Censored-jobs accounting: jobs still in the backlog have a wait that is
  // only a LOWER bound, but leaving them out entirely is worse — a backed-up
  // queue would report the rosy tails of the jobs that escaped it.  Fold
  // each queued job's wait-so-far into the snapshot's wait sketch.
  // Fault-requeued entries (retries > 0) are skipped: their wait was
  // recorded at FIRST placement, and folding them again would both
  // double-count the job in the wait sketch and break the invariant
  //   wait count == accepted + censored_waiting
  // that ties the sketch to the acceptance counters.
  for (const PendingJob& pending : backlog_) {
    if (pending.retries > 0) continue;
    ++t.censored_waiting;
    t.jobs.record_wait(to_ms(queue_.now() - pending.arrived));
  }
  t.censored_running = live_map_.size();
  t.events = queue_.stats();
  t.flows = engine_.tally();
  t.energy_joules = energy_.joules();
  t.mean_power_w = energy_.mean_power().value;
  t.peak_power_w = energy_.peak_power().value;
  t.photonic_power_w = photonic_w_;
  t.completed_at = queue_.now();
  return t;
}

CosimReport RackCosim::report() const { return tally().report(); }

void CosimTally::merge(const CosimTally& other) {
  jobs.merge(other.jobs);
  censored_waiting += other.censored_waiting;
  censored_running += other.censored_running;
  events.scheduled += other.events.scheduled;
  events.dispatched += other.events.dispatched;
  events.cancelled += other.events.cancelled;
  events.pending_peak = std::max(events.pending_peak, other.events.pending_peak);
  flows.merge(other.flows);
  speed.merge(other.speed);
  stretch.merge(other.stretch);
  // Racks draw concurrently: cluster power is the sum of rack means, and
  // the peak bound the sum of rack peaks.
  energy_joules += other.energy_joules;
  mean_power_w += other.mean_power_w;
  peak_power_w += other.peak_power_w;
  photonic_power_w += other.photonic_power_w;
  completed_at = std::max(completed_at, other.completed_at);
  fault.enabled = fault.enabled || other.fault.enabled;
  fault.faults += other.fault.faults;
  fault.repairs += other.fault.repairs;
  fault.interrupted += other.fault.interrupted;
  fault.requeued += other.fault.requeued;
  fault.degraded += other.fault.degraded;
  fault.killed += other.fault.killed;
  fault.goodput_jobs += other.fault.goodput_jobs;
  fault.work_lost_ms += other.fault.work_lost_ms;
  timeline.merge(other.timeline);
  ml_enabled = ml_enabled || other.ml_enabled;
  ml.merge(other.ml);
}

CosimReport CosimTally::report() const {
  CosimReport report;
  report.jobs = jobs.report();
  report.jobs.censored_waiting = censored_waiting;
  report.jobs.censored_running = censored_running;
  report.jobs.events = events;
  report.flows = flows.report();
  report.mean_speed_fraction = speed.count() ? speed.mean() : 1.0;
  report.mean_stretch = stretch.count() ? stretch.mean() : 1.0;
  report.max_stretch = stretch.count() ? stretch.max() : 1.0;
  report.energy_joules = energy_joules;
  report.mean_power_w = mean_power_w;
  report.peak_power_w = peak_power_w;
  report.photonic_power_w = photonic_power_w;
  report.completed_at = completed_at;
  report.fault = fault;
  report.fault.availability = timeline.availability();
  report.fault.mean_mttr_ms = timeline.mean_mttr_ms();
  report.ml = ml.report();
  report.ml.enabled = ml_enabled;
  return report;
}

CosimReport run_rack_cosim(const rack::RackConfig& rack, disagg::AllocationPolicy policy,
                           const workloads::UsageModel& usage, const CosimConfig& cfg,
                           obs::Obs obs) {
  RackCosim sim(rack, policy, usage, cfg, obs);
  sim.finish();
  return sim.report();
}

}  // namespace photorack::cosim
