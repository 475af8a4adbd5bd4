// perfbench — end-to-end and per-layer benchmark of the rack and cluster
// co-simulation, driven through the library's public API.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//
// One invocation runs one workload.  A workload is a fixed number of
// independent simulation instances, each with its own seed derived from
// --seed.  Running one instance builds its config through the registry,
// constructs a cosim::RackCosim or cluster::ClusterCosim, runs it to
// completion and takes its report.  A cycle runs every instance once, between
// two runs of a host-speed probe; cycles repeat until `--seconds` have
// passed.  The end-to-end times are rescaled by the probe to a reference host
// speed (Cycle::to_ref says why) and reduced to their median over the
// cycles.  --trace 0 reports the end-to-end metrics from unprofiled cycles.
// --trace 1 alternates profiled and unprofiled cycles and reports the
// per-layer metrics: the benchmark's own timers around each call,
// the obs::Profiler scopes (inclusive: cosim.arrival contains net.flow_open,
// net.view_refresh, disagg.allocate and stats.sketch_insert; in cluster mode
// they see rack 0 only), the always-on report counters, and two
// out-of-program layer drivers (drivers.hpp).
//
// Every instance run is checked (check_rack) and digested over every report
// field.  Untimed identity checks follow: seed + 1 must change the digest,
// and a cluster at one worker must reproduce it.  The last stdout line is
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <iostream>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster_cosim.hpp"
#include "config/bindings.hpp"
#include "cosim/rack_cosim.hpp"
#include "drivers.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace photorack;
using perfbench::quantile;

constexpr int kMinCycles = 3;
constexpr int kSetupsPerCycle = 8;
// Thread CPU seconds of one probe_s() on the reference host, a 4-core Xeon
// VM; end-to-end times are reported as if measured at that host's speed.
constexpr double kProbeRefS = 0.020;
constexpr double kDrainedUtil = 1e-9;
constexpr auto kPolicy = disagg::AllocationPolicy::kDisaggregated;

struct Workload {
  std::string name;
  bool cluster = false;
  int instances = 1;  // independent simulations per cycle, one seed each
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// The four canonical workloads; the reasons behind each are in README.md.
/// Horizons are short so that one timed instance takes 50-150 ms, and the
/// instance count restores the input size.  rack_faults is the exception: it
/// arms its whole fault timeline at construction, so its pending-event depth
/// grows with the horizon, and it runs one long instance to keep the deep heap.
const std::vector<Workload>& workload_table() {
  static const std::vector<Workload> table = {
      {"rack_hpc_queue", false, 8,
       {{"cosim.horizon_ms", "1000"}, {"cosim.admission", "queue"}}},
      {"rack_ml_mixed", false, 16,
       {{"cosim.horizon_ms", "500"},
        {"ml.enabled", "true"},
        {"ml.mix_fraction", "0.5"},
        {"ml.jitter_frac", "2"},
        {"ml.pattern", "ring"}}},
      {"rack_faults", false, 1,
       {{"cosim.horizon_ms", "20000"},
        {"cosim.admission", "queue"},
        {"fault.enabled", "true"},
        {"fault.policy", "requeue"},
        {"fault.mcm_mtbf_ms", "60"},
        {"fault.node_mtbf_ms", "60"},
        {"fault.link_mtbf_ms", "60"},
        {"fault.laser_mtbf_ms", "60"}}},
      {"cluster8_spill", true, 4,
       {{"cosim.horizon_ms", "250"},
        {"cosim.admission", "queue"},
        {"cluster.racks", "8"},
        {"cluster.spill", "least"}}},
  };
  return table;
}

/// Cluster worker threads for the timed cycles: one per core, at most 4.
int timed_workers() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

/// Seed of instance `k`: child stream k of the benchmark seed.
std::uint64_t instance_seed(std::uint64_t seed, int k) {
  return sim::Rng(seed).child(static_cast<std::uint64_t>(k))();
}

struct Setup {
  rack::RackConfig rack;
  cosim::CosimConfig cfg;
  cluster::ClusterConfig cluster;
  workloads::UsageModel usage = workloads::UsageModel::cori();
};

Setup build_setup(const Workload& w, std::uint64_t seed, int workers) {
  config::ConfigTree tree{config::registry()};
  for (const auto& [path, value] : w.overrides) tree.set(path, value);
  tree.set("cosim.seed", std::to_string(seed));
  Setup s;
  s.cfg = tree.build<cosim::CosimConfig>("cosim");
  s.cfg.fabric = tree.build<net::FabricSliceConfig>("net");
  s.cfg.fault = tree.build<fault::FaultConfig>("fault");
  s.cfg.ml = tree.build<collectives::MlConfig>("ml");
  s.rack = tree.build<rack::RackConfig>("rack");
  if (w.cluster) {
    s.cluster = tree.build<cluster::ClusterConfig>("cluster");
    s.cluster.workers = workers;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Report digest: FNV-1a over every report field, doubles by bit pattern.

class Digest {
 public:
  template <class T>
  void add(T v) {
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      const double d = v;
      std::memcpy(&bits, &d, sizeof bits);
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void fold(Digest& d, const disagg::TailStats& t) {
  d.add(t.count);
  d.add(t.p50);
  d.add(t.p99);
  d.add(t.p999);
}

void fold(Digest& d, const cosim::CosimReport& r) {
  const auto& j = r.jobs;
  d.add(j.offered);
  d.add(j.accepted);
  d.add(j.mean_cpu_utilization);
  d.add(j.mean_gpu_utilization);
  d.add(j.mean_memory_utilization);
  d.add(j.mean_marooned_cpu);
  d.add(j.mean_marooned_memory);
  fold(d, j.wait_ms);
  fold(d, j.slowdown);
  fold(d, j.fct_ms);
  d.add(j.censored_waiting);
  d.add(j.censored_running);
  d.add(j.events.scheduled);
  d.add(j.events.dispatched);
  d.add(j.events.cancelled);
  d.add(j.events.pending_peak);
  const auto& f = r.flows;
  d.add(f.flows);
  d.add(f.fully_satisfied);
  d.add(f.offered_gbps_mean);
  d.add(f.satisfied_fraction);
  d.add(f.direct_fraction);
  d.add(f.indirect_fraction);
  d.add(f.stale_mispicks);
  d.add(f.second_hops);
  d.add(f.mean_intermediates);
  d.add(f.peak_utilization);
  d.add(r.mean_speed_fraction);
  d.add(r.mean_stretch);
  d.add(r.max_stretch);
  d.add(r.energy_joules);
  d.add(r.mean_power_w);
  d.add(r.peak_power_w);
  d.add(r.photonic_power_w);
  d.add(r.completed_at);
  const auto& ft = r.fault;
  d.add(ft.enabled);
  d.add(ft.faults);
  d.add(ft.repairs);
  d.add(ft.interrupted);
  d.add(ft.requeued);
  d.add(ft.degraded);
  d.add(ft.killed);
  d.add(ft.goodput_jobs);
  d.add(ft.work_lost_ms);
  d.add(ft.availability);
  d.add(ft.mean_mttr_ms);
  const auto& ml = r.ml;
  d.add(ml.enabled);
  d.add(ml.jobs_offered);
  d.add(ml.jobs_accepted);
  d.add(ml.jobs_completed);
  d.add(ml.steps);
  d.add(ml.collective_phases);
  fold(d, ml.step_ms);
  fold(d, ml.coll_frac);
  fold(d, ml.straggler);
}

void fold(Digest& d, const cluster::ClusterReport& r) {
  for (const auto& rack : r.racks) fold(d, rack);
  fold(d, r.total);
  d.add(r.spilled);
  d.add(r.spill_failed);
  d.add(r.barriers);
  d.add(r.interconnect_power_w);
  d.add(r.interconnect_energy_j);
  d.add(r.interconnect_utilization);
}

// ---------------------------------------------------------------------------
// One instance run.

/// Timers, always-on counters and check outcome of one rack, one instance
/// run or (summed with +=) a whole cycle.  pending_peak is the deepest
/// single rack queue.
struct Rep {
  double construct_s = 0.0;  // construction (set-up is sampled on its own)
  double advance_s = 0.0;    // advance_to + finish, or ClusterCosim::run
  double report_s = 0.0;     // report()
  double cpu_s = 0.0;        // process CPU time over advance + report
  [[nodiscard]] double run_s() const { return advance_s + report_s; }

  std::uint64_t digest = 0;
  std::vector<std::string> violations;

  sim::EventQueueStats events;
  disagg::AllocatorCounters alloc;
  std::uint64_t offered = 0, stale_mispicks = 0, second_hops = 0;
  std::uint64_t interrupted = 0, requeued = 0;
  bool ml = false;
  std::uint64_t ml_steps = 0, ml_phases = 0;
  std::uint64_t barriers = 0, spilled = 0, spill_failed = 0;

  /// Sums timers and counters; digest and violations stay per instance.
  Rep& operator+=(const Rep& o) {
    construct_s += o.construct_s;
    advance_s += o.advance_s;
    report_s += o.report_s;
    cpu_s += o.cpu_s;
    events.scheduled += o.events.scheduled;
    events.dispatched += o.events.dispatched;
    events.cancelled += o.events.cancelled;
    events.pending_peak = std::max(events.pending_peak, o.events.pending_peak);
    alloc.attempts += o.alloc.attempts;
    alloc.placements += o.alloc.placements;
    alloc.revocations += o.alloc.revocations;
    offered += o.offered;
    stale_mispicks += o.stale_mispicks;
    second_hops += o.second_hops;
    interrupted += o.interrupted;
    requeued += o.requeued;
    ml = ml || o.ml;
    ml_steps += o.ml_steps;
    ml_phases += o.ml_phases;
    barriers += o.barriers;
    spilled += o.spilled;
    spill_failed += o.spill_failed;
    return *this;
  }
};

/// Full-precision decimal; non-finite values print as 0 (JSON has no NaN).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// The clock every timing is read on.  Set-up and a rack run do all their
/// work on the calling thread, so they are timed in that thread's CPU time,
/// which leaves out the time the host gives to other load.  A cluster run
/// spreads racks over worker threads and its parallel speedup shows only in
/// wall time, so it is timed on the monotonic wall clock.
double now_s(bool wall) {
  return clock_s(wall ? CLOCK_MONOTONIC : CLOCK_THREAD_CPUTIME_ID);
}

volatile double probe_sink = 0.0;

/// Host-speed probe: a fixed mix of the operations an event-driven
/// simulation spends its time in (a binary heap of timestamps, a hash map of
/// live ids, floating-point arithmetic), built on the standard library only,
/// so no change to the library under test changes its cost.  Returns its
/// thread CPU seconds.
double probe_s() {
  const double t0 = now_s(false);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, double> live;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 25'000; ++i) heap.push(next() >> 24);
  double acc = 0.0;
  for (int i = 0; i < 150'000; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + (next() >> 44));
    const auto [it, fresh] = live.try_emplace(next() & 0xffffU, 0.0);
    if (fresh) {
      it->second = static_cast<double>(t) * 1e-9;
    } else {
      acc += std::sqrt(it->second + static_cast<double>(t));
      live.erase(it);
    }
  }
  probe_sink = acc;
  return now_s(false) - t0;
}

/// One cycle: every instance run once, and the host speed around it.
struct Cycle {
  std::vector<Rep> runs;
  double probe_s = 0.0;  // mean of the probes just before and just after

  /// Rescales a host time taken during this cycle to the reference host
  /// speed.  The host is a shared VM whose speed drifts by 25-30% over tens
  /// of seconds, for thread CPU time as much as for wall time, because other
  /// tenants share its cores and caches.  Such a drift slows the probe as
  /// much as the program, so time / probe time stays put while both move.
  [[nodiscard]] double to_ref(double s) const { return s * kProbeRefS / probe_s; }
};

/// Post-finish invariants of one drained rack; one line per violation.
void check_rack(const cosim::RackCosim& rc, const cosim::CosimReport& r,
                const std::string& where, std::vector<std::string>& out) {
  const auto& ev = r.jobs.events;
  if (ev.scheduled != ev.dispatched + ev.cancelled)
    out.push_back(where + ": events scheduled != dispatched + cancelled");
  const auto& p = rc.allocator().pools();
  if (p.cpus_used != 0 || p.gpus_used != 0 || p.memory_gb_used != 0.0 ||
      p.nic_gbps_used != 0.0)
    out.push_back(where + ": allocator pools not drained");
  if (rc.allocator().live_allocations() != 0)
    out.push_back(where + ": live allocations remain");
  // Per-pair allocations are running sums of doubles, so a drained fabric
  // keeps rounding residue; 1e-9 is the slack release_direct itself allows.
  if (std::abs(rc.fabric_utilization()) > kDrainedUtil)
    out.push_back(where + ": fabric utilization " + number(rc.fabric_utilization()) +
                  " after finish");
  if (r.ml.jobs_completed > r.ml.jobs_accepted)
    out.push_back(where + ": ML jobs completed > accepted");
}

/// Per-rack counters of one drained rack.
Rep rack_counters(const cosim::RackCosim& rc, const cosim::CosimReport& r) {
  Rep rep;
  rep.alloc = rc.allocator().counters();
  rep.events = r.jobs.events;
  rep.stale_mispicks = r.flows.stale_mispicks;
  rep.second_hops = r.flows.second_hops;
  return rep;
}

/// Counters every report carries, rack or cluster total.
void add_total(Rep& rep, const cosim::CosimReport& total) {
  rep.offered = total.jobs.offered;
  rep.interrupted = total.fault.interrupted;
  rep.requeued = total.fault.requeued;
  rep.ml = total.ml.enabled;
  rep.ml_steps = total.ml.steps;
  rep.ml_phases = total.ml.collective_phases;
}

Rep run_once(const Workload& w, std::uint64_t seed, int workers, obs::Obs obs) {
  Rep rep;
  Digest digest;
  const Setup s = build_setup(w, seed, workers);
  const bool wall = w.cluster;
  const double t1 = now_s(wall);
  double t2 = 0.0, t3 = 0.0, t4 = 0.0, cpu0 = 0.0;
  if (w.cluster) {
    cluster::ClusterCosim sim(s.rack, kPolicy, s.usage, s.cluster, s.cfg, obs);
    t2 = now_s(wall);
    cpu0 = process_cpu_s();
    sim.run();
    t3 = now_s(wall);
    const cluster::ClusterReport report = sim.report();
    t4 = now_s(wall);
    rep.cpu_s = process_cpu_s() - cpu0;
    for (int r = 0; r < sim.racks(); ++r) {
      const auto& rr = report.racks[static_cast<std::size_t>(r)];
      rep += rack_counters(sim.rack(r), rr);
      check_rack(sim.rack(r), rr, "rack " + std::to_string(r), rep.violations);
    }
    if (report.spilled < report.spill_failed)
      rep.violations.push_back("cluster: spilled < spill_failed");
    add_total(rep, report.total);
    rep.barriers = report.barriers;
    rep.spilled = report.spilled;
    rep.spill_failed = report.spill_failed;
    fold(digest, report);
  } else {
    cosim::RackCosim sim(s.rack, kPolicy, s.usage, s.cfg, obs);
    t2 = now_s(wall);
    cpu0 = process_cpu_s();
    sim.advance_to(s.cfg.sim_time);
    sim.finish();
    t3 = now_s(wall);
    const cosim::CosimReport report = sim.report();
    t4 = now_s(wall);
    rep.cpu_s = process_cpu_s() - cpu0;
    rep += rack_counters(sim, report);
    check_rack(sim, report, "rack", rep.violations);
    add_total(rep, report);
    fold(digest, report);
  }
  rep.construct_s = t2 - t1;
  rep.advance_s = t3 - t2;
  rep.report_s = t4 - t3;
  rep.digest = digest.value();
  return rep;
}

Cycle run_cycle(const Workload& w, std::uint64_t seed, int workers, obs::Obs obs) {
  Cycle cycle;
  const double before = probe_s();
  for (int k = 0; k < w.instances; ++k)
    cycle.runs.push_back(run_once(w, instance_seed(seed, k), workers, obs));
  cycle.probe_s = 0.5 * (before + probe_s());
  return cycle;
}

std::uint64_t cycle_digest(const Cycle& cycle) {
  Digest d;
  for (const auto& r : cycle.runs) d.add(r.digest);
  return d.value();
}

/// One Rep for a whole cycle: timers and counters summed over instances.
Rep combine(const Cycle& cycle) {
  Rep t;
  for (const auto& r : cycle.runs) t += r;
  return t;
}

/// The run_s estimate: the median over cycles of a cycle's run_s, summed
/// over its instances and rescaled to the reference host speed.
double median_run_s(const std::vector<Cycle>& cycles) {
  std::vector<double> v;
  for (const auto& c : cycles) v.push_back(c.to_ref(combine(c).run_s()));
  return quantile(v, 0.5);
}

/// Appends `n` set-up samples per instance to `samples[k]`: back-to-back
/// config builds + constructions with nothing run (destruction untimed).
/// Taken a few at a time after every cycle, so they spread over the whole
/// run like the run timings do, and rescaled by the probes of the cycle
/// `after`.  Set-up runs on the calling thread alone, so it is timed in
/// thread CPU time.
void sample_setup(const Workload& w, std::uint64_t seed, int workers, int n,
                  const Cycle& after, std::vector<std::vector<double>>& samples) {
  samples.resize(static_cast<std::size_t>(w.instances));
  for (int k = 0; k < w.instances; ++k) {
    for (int i = 0; i < n; ++i) {
      const double t0 = now_s(false);
      const Setup s = build_setup(w, instance_seed(seed, k), workers);
      std::unique_ptr<cluster::ClusterCosim> cluster_sim;
      std::unique_ptr<cosim::RackCosim> rack_sim;
      if (w.cluster)
        cluster_sim = std::make_unique<cluster::ClusterCosim>(s.rack, kPolicy, s.usage,
                                                              s.cluster, s.cfg);
      else
        rack_sim = std::make_unique<cosim::RackCosim>(s.rack, kPolicy, s.usage, s.cfg);
      samples[static_cast<std::size_t>(k)].push_back(after.to_ref(now_s(false) - t0));
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// a / b, or 0 when the base is 0 (the JSON result needs a number).
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Per-layer values of one profiled cycle (the drivers and the trace
/// overhead are added by the caller).
std::vector<Metric> layer_metrics(const Rep& t, const obs::Profiler& prof, bool cluster,
                                  int workers) {
  const std::string src = cluster ? "profiler, rack 0 only, inclusive" : "profiler, inclusive";
  const auto scope = [&](const char* name) -> const obs::Profiler::Entry* {
    for (const auto& e : prof.entries())
      if (e.name == name) return &e;
    return nullptr;
  };
  const auto ns = [&](const char* name) {
    const auto* e = scope(name);
    return e ? e->ns_per_op() : 0.0;
  };
  const auto calls = [&](const char* name) {
    const auto* e = scope(name);
    return e ? static_cast<double>(e->count) : 0.0;
  };
  const auto total_ns = [&](const char* name) {
    const auto* e = scope(name);
    return e ? static_cast<double>(e->total_ns) : 0.0;
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"cosim.construct_ms", t.construct_s * 1e3, "ms", "benchmark timer"},
      {"cosim.advance_s", t.advance_s, "s", "benchmark timer"},
      {"cosim.report_ms", t.report_s * 1e3, "ms", "benchmark timer"},
      {"cosim.arrival_ns", ns("cosim.arrival"), "ns", src},
      {"cosim.arrival.calls", calls("cosim.arrival"), "count", src},
      {"net.flow_open_ns", ns("net.flow_open"), "ns", src},
      {"net.flow_open.calls", calls("net.flow_open"), "count", src},
      {"net.view_refresh_ns", ns("net.view_refresh"), "ns", src},
      {"net.view_refresh.calls", calls("net.view_refresh"), "count", src},
      {"net.flow_open_share", ratio(total_ns("net.flow_open"), t.run_s() * 1e9), "ratio",
       src + ", over the whole run_s"},
      {"net.stale_mispicks", n(t.stale_mispicks), "count", "report"},
      {"net.second_hops", n(t.second_hops), "count", "report"},
      {"disagg.allocate_ns", ns("disagg.allocate"), "ns", src},
      {"disagg.attempts", n(t.alloc.attempts), "count", "allocator counters"},
      {"disagg.placements", n(t.alloc.placements), "count", "allocator counters"},
      {"disagg.place_ratio", ratio(n(t.alloc.placements), n(t.alloc.attempts)), "ratio",
       "allocator counters"},
      {"disagg.release_ns", ns("disagg.release"), "ns", src},
      {"disagg.revocations", n(t.alloc.revocations), "count", "allocator counters"},
      {"stats.sketch_insert_ns", ns("stats.sketch_insert"), "ns", src},
      {"stats.sketch_insert.calls", calls("stats.sketch_insert"), "count", src},
      {"sim.events_scheduled", n(t.events.scheduled), "count", "report"},
      {"sim.events_dispatched", n(t.events.dispatched), "count", "report"},
      {"sim.events_cancelled", n(t.events.cancelled), "count", "report"},
      {"sim.cancel_frac", ratio(n(t.events.cancelled), n(t.events.scheduled)), "ratio",
       "report"},
      {"sim.pending_peak", n(t.events.pending_peak), "count", "report, deepest rack"},
      {"collectives.steps", n(t.ml_steps), "count", "report"},
      {"collectives.phases", n(t.ml_phases), "count", "report"},
      {"fault.inject_ns", ns("fault.inject"), "ns", src},
      {"fault.inject.calls", calls("fault.inject"), "count", src},
      {"fault.interrupted", n(t.interrupted), "count", "report"},
      {"fault.requeued", n(t.requeued), "count", "report"},
      {"cluster.barriers", n(t.barriers), "count", "report"},
      {"cluster.events_per_barrier", ratio(n(t.events.dispatched), n(t.barriers)),
       "events/barrier", "report"},
      {"cluster.cpu_util", cluster ? ratio(t.cpu_s, t.run_s() * workers) : 0.0, "ratio",
       "process CPU s / (run_s x workers)"},
      {"cluster.spilled", n(t.spilled), "count", "report"},
      {"cluster.spill_ok_frac", ratio(n(t.spilled - t.spill_failed), n(t.spilled)), "ratio",
       "report"},
  };
}


std::vector<Metric> end_to_end(const std::vector<Cycle>& cycles, const Rep& totals,
                               const std::vector<std::vector<double>>& setups) {
  const double run_s = median_run_s(cycles);
  double setup_s = 0.0;
  for (const auto& v : setups) setup_s += quantile(v, 0.5);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", setup_s, "s", "config build + construction, all instances"},
      {"run_s", run_s, "s", "run to completion + report(), all instances"},
      {"events_per_s", ratio(static_cast<double>(totals.events.dispatched), run_s), "1/s", ""},
      {"jobs_per_s", ratio(static_cast<double>(totals.offered), run_s), "1/s", "offered jobs"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""},
  };
}

std::vector<Metric> per_layer(const Workload& w, std::uint64_t seed, int workers,
                              const std::vector<Cycle>& profiled,
                              const std::vector<obs::Profiler>& profiles,
                              const std::vector<Cycle>& plain, const Rep& totals) {
  // Each metric's median over the profiled cycles (counters repeat exactly,
  // so for them that is the value).  Times here are host time, not rescaled.
  std::vector<std::vector<Metric>> rows;
  for (std::size_t i = 0; i < profiled.size(); ++i)
    rows.push_back(layer_metrics(combine(profiled[i]), profiles[i], w.cluster, workers));
  std::vector<Metric> out = rows.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> v;
    for (const auto& row : rows) v.push_back(row[m].value);
    out[m].value = quantile(v, 0.5);
  }

  const double cancel_frac = ratio(static_cast<double>(totals.events.cancelled),
                                   static_cast<double>(totals.events.scheduled));
  out.push_back({"sim.event_ns",
                 perfbench::event_queue_ns(totals.events.pending_peak, cancel_frac, seed), "ns",
                 "driver: EventQueue at pending_peak depth and cancel_frac"});

  perfbench::CollectiveStep step;
  if (totals.ml) step = perfbench::collective_step(build_setup(w, seed, 1).cfg);
  out.push_back({"collectives.flows_per_phase",
                 ratio(static_cast<double>(step.flows), step.phases), "flows/phase",
                 "driver: one step at the workload's ml.* shape"});
  out.push_back({"collectives.step_ns", step.ns, "ns",
                 "driver: runner build + run on a fresh FlowEngine"});

  out.push_back({"obs.trace_overhead_frac",
                 ratio(median_run_s(profiled), median_run_s(plain)) - 1.0, "ratio",
                 "profiled run_s / unprofiled run_s - 1"});

  std::vector<double> probes;
  for (const auto* cycles : {&profiled, &plain})
    for (const auto& c : *cycles) probes.push_back(c.probe_s);
  out.push_back({"host.probe_ms", quantile(probes, 0.5) * 1e3, "ms",
                 "host-speed probe, thread CPU; " + number(kProbeRefS * 1e3) +
                     " ms on the reference host"});
  return out;
}

// ---------------------------------------------------------------------------
// Command line and output.

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--trace") a.trace = std::stoi(v) != 0;
    else throw std::invalid_argument("unknown option '" + arg + "'");
  }
  return a;
}

/// attempted / failed tally over every checked run.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  void run(const Rep& rep, std::uint64_t want_digest) {
    std::vector<std::string> why = rep.violations;
    if (rep.digest != want_digest) why.push_back("digest differs from the first cycle");
    record(why);
  }
  void identity(bool ok, const std::string& what) {
    record(ok ? std::vector<std::string>{} : std::vector<std::string>{what});
  }

 private:
  void record(const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    failures.insert(failures.end(), why.begin(), why.end());
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Workload* w = nullptr;
  try {
    args = parse_args(argc, argv);
    for (const auto& cand : workload_table())
      if (cand.name == args.workload) w = &cand;
    if (w == nullptr) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace 0|1\n";
    return 2;
  }

  try {
    const int workers = w->cluster ? timed_workers() : 1;
    (void)config::registry();  // built once per process, outside every timer
    Tally tally;

    // Warm-up cycle: fills caches and pins each instance's reference
    // digest.  It is checked and counted, not timed.
    const Cycle ref = run_cycle(*w, args.seed, workers, {});
    for (const auto& r : ref.runs) tally.run(r, r.digest);
    const Rep totals = combine(ref);

    std::vector<Cycle> plain, profiled;
    std::vector<obs::Profiler> profiles;
    std::vector<std::vector<double>> setups;  // per instance, set-up only
    const double start = now_s(true);
    for (int i = 0;; ++i) {
      const bool enough = static_cast<int>(plain.size()) >= kMinCycles &&
                          (!args.trace || static_cast<int>(profiled.size()) >= kMinCycles);
      if (enough && now_s(true) - start >= args.seconds) break;
      const bool prof = args.trace && i % 2 == 0;
      obs::Profiler profiler;
      Cycle cycle = run_cycle(*w, args.seed, workers,
                              obs::Obs{nullptr, nullptr, prof ? &profiler : nullptr});
      for (std::size_t k = 0; k < cycle.runs.size(); ++k)
        tally.run(cycle.runs[k], ref.runs[k].digest);
      if (prof) {
        profiled.push_back(std::move(cycle));
        profiles.push_back(std::move(profiler));
      } else {
        sample_setup(*w, args.seed, workers, kSetupsPerCycle, cycle, setups);
        plain.push_back(std::move(cycle));
      }
    }

    // Untimed identity checks.
    const std::uint64_t digest = cycle_digest(ref);
    const Cycle next = run_cycle(*w, args.seed + 1, workers, {});
    for (const auto& r : next.runs) tally.run(r, r.digest);
    tally.identity(cycle_digest(next) != digest, "seed + 1 gives the same digest");
    std::cout << "digest " << w->name << " seed " << args.seed << ": " << hex(digest)
              << "\ndigest " << w->name << " seed " << args.seed + 1 << ": "
              << hex(cycle_digest(next)) << "\n";
    if (w->cluster) {
      const Cycle serial = run_cycle(*w, args.seed, 1, {});
      for (std::size_t k = 0; k < serial.runs.size(); ++k)
        tally.run(serial.runs[k], ref.runs[k].digest);
      tally.identity(cycle_digest(serial) == digest,
                     "digest at workers=1 differs from workers=" + std::to_string(workers));
      std::cout << "digest " << w->name << " seed " << args.seed
                << " workers=1: " << hex(cycle_digest(serial)) << " (timed at workers="
                << workers << ")\n";
    }

    const std::vector<Metric> metrics =
        args.trace ? per_layer(*w, args.seed, workers, profiled, profiles, plain, totals)
                   : end_to_end(plain, totals, setups);

    std::cout << "workload " << w->name << ", seed " << args.seed << ", " << w->instances
              << " instances, " << (args.trace ? "per-layer" : "end-to-end") << ", "
              << plain.size() << " unprofiled + " << profiled.size() << " profiled cycles\n";
    for (const auto& f : tally.failures) std::cout << "FAIL " << f << "\n";
    std::cout << "attempted " << tally.attempted << ", failed " << tally.failed
              << ", failed_frac "
              << number(ratio(static_cast<double>(tally.failed),
                              static_cast<double>(tally.attempted)))
              << "\n";
    for (const auto& m : metrics) {
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit;
      if (!m.note.empty()) std::cout << "  (" << m.note << ")";
      std::cout << "\n";
    }

    std::string json = "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
