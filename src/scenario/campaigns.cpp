#include "scenario/campaigns.hpp"

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "cluster/cluster_cosim.hpp"
#include "collectives/collective.hpp"
#include "config/bindings.hpp"
#include "core/rack_system.hpp"
#include "cosim/rack_cosim.hpp"
#include "cosim/report_fields.hpp"
#include "cpusim/miss_profile.hpp"
#include "cpusim/runner.hpp"
#include "gpusim/gpu_runner.hpp"
#include "obs/obs.hpp"
#include "phot/links.hpp"
#include "phot/power.hpp"
#include "rack/mcm.hpp"
#include "rack/rack_builder.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"
#include "workloads/gpu_profiles.hpp"

namespace photorack::scenario {

SweepGrid Campaign::default_grid() const {
  SweepGrid grid;
  for (const Axis& ax : axes) grid.axis(ax.name, ax.values);
  return grid;
}

namespace {

// ---------------------------------------------------------------------------
// Free-axis helpers shared by the campaign evaluators.  Enum-valued free
// axes (policy, feedback) parse through the layers' canonical EnumCodecs;
// everything config-struct-shaped arrives via ScenarioSpec::resolve<T>().
// ---------------------------------------------------------------------------

const workloads::CpuBenchmark& find_cpu_benchmark(const std::string& full_name) {
  for (const auto& bench : workloads::cpu_benchmarks())
    if (bench.full_name() == full_name) return bench;
  throw std::out_of_range("no CPU benchmark named '" + full_name + "'");
}

const gpusim::AppProfile& find_gpu_app(const std::string& name) {
  for (const auto& app : workloads::gpu_apps())
    if (app.name == name) return app;
  throw std::out_of_range("no GPU application named '" + name + "'");
}

std::vector<std::string> all_cpu_benchmark_names() {
  std::vector<std::string> names;
  for (const auto& bench : workloads::cpu_benchmarks()) names.push_back(bench.full_name());
  return names;
}

std::vector<std::string> all_gpu_app_names() {
  std::vector<std::string> names;
  for (const auto& app : workloads::gpu_apps()) names.push_back(app.name);
  return names;
}

std::vector<std::string> num_values(const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(num_to_string(v));
  return out;
}

// ---------------------------------------------------------------------------
// CPU latency-sensitivity point (figs 6, 7, 8, 11, 12 and §VI-E all reduce
// to this).  Each scenario is self-contained: it simulates its own extra=0
// baseline, so a spec's row never depends on another spec having run.
// ---------------------------------------------------------------------------

const std::vector<std::string> kCpuColumns = {
    "suite",   "input",    "bench",       "core", "extra_ns", "baseline_ns",
    "time_ns", "slowdown", "llc_miss_rate", "ipc"};

/// Single-flight memo: concurrent get()s of one key share one in-flight
/// computation via a shared_future, so parallel sweep workers never
/// duplicate a recording (the PR 2 memo they replace allowed that).  With
/// a nonzero capacity, completed entries beyond it are LRU-evicted — an
/// eviction at worst recomputes later and, the computations being
/// bit-deterministic, never changes results.  A failed computation is
/// removed (matched by entry id, in case eviction already dropped it) so a
/// later get() retries; every sharer of the failed flight rethrows.
template <typename Key, typename Value>
class SingleFlightCache {
 public:
  explicit SingleFlightCache(std::size_t capacity = 0) : capacity_(capacity) {}

  template <typename Compute>
  Value get(const Key& key, Compute&& compute) {
    std::shared_future<Value> fut;
    std::promise<Value> prom;
    std::uint64_t id = 0;
    bool owner = false;
    {
      std::lock_guard lock(mu_);
      ++tick_;
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.last_use = tick_;
        fut = it->second.fut;
      } else {
        owner = true;
        id = tick_;
        fut = prom.get_future().share();
        if (capacity_ != 0) evict_locked();
        entries_.emplace(key, Entry{fut, tick_, id});
      }
    }
    if (owner) {
      try {
        prom.set_value(compute());
      } catch (...) {
        prom.set_exception(std::current_exception());
        std::lock_guard lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == id) entries_.erase(it);
      }
    }
    return fut.get();  // rethrows a computation failure to every sharer
  }

 private:
  struct Entry {
    std::shared_future<Value> fut;
    std::uint64_t last_use = 0;
    std::uint64_t id = 0;
  };

  void evict_locked() {
    while (entries_.size() >= capacity_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          continue;  // never evict an in-flight computation
        if (victim == entries_.end() || it->second.last_use < victim->second.last_use)
          victim = it;
      }
      if (victim == entries_.end()) return;  // everything in flight
      entries_.erase(victim);
    }
  }

  std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t capacity_;
};

/// Process-wide cache of recorded CPU miss profiles: one instrumented
/// simulation per (benchmark, full cpusim config, seed) serves the baseline
/// AND every extra_ns grid point as an O(misses) replay, bit-identical to
/// simulating each point from scratch.  The config enters the key as the
/// registry's canonical snapshot string, so ANY --set cpusim.* override
/// (hierarchy geometry, core width, prefetcher...) records its own profile
/// instead of aliasing the default one.  Bounded: grid order keeps one
/// benchmark's latency points adjacent, so a handful of live profiles
/// bounds memory.
std::shared_ptr<const cpusim::MissProfile> cpu_profile(
    const workloads::CpuBenchmark& bench, const cpusim::SimConfig& cfg,
    const workloads::TraceConfig& trace_cfg) {
  using Key = std::tuple<std::string, std::string, std::uint64_t>;
  static SingleFlightCache<Key, std::shared_ptr<const cpusim::MissProfile>> cache(12);
  const Key key{bench.full_name(), config::registry().snapshot("cpusim", cfg),
                trace_cfg.seed};
  return cache.get(key, [&] {
    workloads::SyntheticTrace trace(trace_cfg);
    return std::make_shared<const cpusim::MissProfile>(
        cpusim::record_miss_profile(trace, cfg));
  });
}

std::vector<ResultRow> eval_cpu_point(const ScenarioSpec& spec) {
  const auto& bench = find_cpu_benchmark(spec.at("bench"));

  cpusim::SimConfig cfg = spec.resolve<cpusim::SimConfig>("cpusim");
  const double extra = cfg.dram.extra_ns;

  workloads::TraceConfig trace_cfg = bench.trace;
  // base_seed == 0 keeps the registry seed (the paper's numbers); otherwise
  // the scenario re-seeds itself.
  if (spec.base_seed != 0) trace_cfg.seed = spec.derived_seed();

  // One profile per (bench, config-at-extra=0): the recording is
  // latency-independent, so the baseline and the perturbed point are both
  // replays of it.
  cfg.dram.extra_ns = 0.0;
  const auto profile = cpu_profile(bench, cfg, trace_cfg);
  const cpusim::SimResult baseline = cpusim::replay_profile(*profile, 0.0);
  const cpusim::SimResult result =
      extra != 0.0 ? cpusim::replay_profile(*profile, extra) : baseline;

  ResultRow row;
  row.cells = {bench.suite,
               bench.input,
               bench.full_name(),
               spec.at("cpusim.core.kind"),
               num_to_string(extra),
               num_to_string(baseline.time_ns),
               num_to_string(result.time_ns),
               num_to_string(result.time_ns / baseline.time_ns - 1.0),
               num_to_string(result.llc_miss_rate),
               num_to_string(result.ipc)};
  return {std::move(row)};
}

std::vector<Axis> cpu_axes(std::vector<std::string> cores, std::vector<double> extras) {
  return {{"bench", all_cpu_benchmark_names()},
          {"cpusim.core.kind", std::move(cores)},
          {"cpusim.dram.extra_ns", num_values(extras)},
          {"cpusim.warmup", {"1000000"}},
          {"cpusim.measured", {"2000000"}}};
}

// ---------------------------------------------------------------------------
// GPU latency-sensitivity point (figs 9, 10, 11, 12 and §VI-E).
// ---------------------------------------------------------------------------

const std::vector<std::string> kGpuColumns = {
    "app",     "suite",    "extra_ns",     "derate",            "baseline_us",
    "time_us", "slowdown", "l2_miss_rate", "hbm_txn_per_instr", "mem_instr_fraction"};

/// GPU counterpart of the CPU profile cache: the per-kernel L2 simulation
/// is independent of extra_hbm_ns and the bandwidth derate (the axes the
/// GPU campaigns sweep), so one AppMissProfile per (app, base config)
/// serves every grid point.  The base config (latency axes zeroed) keys
/// the cache via its registry snapshot, so --set gpusim.* geometry
/// overrides record their own profiles.  Profiles are a few doubles each,
/// so unbounded (capacity 0).
std::shared_ptr<const gpusim::AppMissProfile> gpu_app_profile(
    const gpusim::AppProfile& app, const gpusim::GpuConfig& base) {
  using Key = std::pair<std::string, std::string>;
  static SingleFlightCache<Key, std::shared_ptr<const gpusim::AppMissProfile>> cache;
  const Key key{app.name, config::registry().snapshot("gpusim", base)};
  return cache.get(key, [&] {
    return std::make_shared<const gpusim::AppMissProfile>(
        gpusim::record_app_profile(app, base));
  });
}

std::vector<ResultRow> eval_gpu_point(const ScenarioSpec& spec) {
  const auto& app = find_gpu_app(spec.at("app"));

  gpusim::GpuConfig gpu = spec.resolve<gpusim::GpuConfig>("gpusim");
  // Baseline is always the photonic configuration of the same device: zero
  // extra latency, full HBM bandwidth, so a derated point's slowdown counts
  // both the latency and the lost bandwidth.
  gpusim::GpuConfig base = gpu;
  base.extra_hbm_ns = 0.0;
  base.hbm_bandwidth_derate = 1.0;

  const auto profile = gpu_app_profile(app, base);
  const double baseline_us = gpusim::replay_app(app, *profile, base).time_us;
  const gpusim::AppResult result = gpusim::replay_app(app, *profile, gpu);

  ResultRow row;
  row.cells = {app.name,
               app.suite,
               spec.at("gpusim.extra_hbm_ns"),
               spec.at("gpusim.hbm_bandwidth_derate"),
               num_to_string(baseline_us),
               num_to_string(result.time_us),
               num_to_string(result.time_us / baseline_us - 1.0),
               num_to_string(result.l2_miss_rate),
               num_to_string(result.hbm_txn_per_instr),
               num_to_string(result.mem_instr_fraction)};
  return {std::move(row)};
}

std::vector<Axis> gpu_axes(std::vector<double> extras, std::vector<double> derates) {
  return {{"app", all_gpu_app_names()},
          {"gpusim.extra_hbm_ns", num_values(extras)},
          {"gpusim.hbm_bandwidth_derate", num_values(derates)}};
}

// ---------------------------------------------------------------------------
// Table I: links needed (and transceiver power) per technology for a given
// MCM escape bandwidth.
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable1Columns = {
    "link", "escape_gbs", "links", "power_w", "link_gbps", "co_packaged"};

std::vector<ResultRow> eval_table1_point(const ScenarioSpec& spec) {
  const auto& link = phot::link_by_name(spec.at("link"));
  const phot::GBps escape{spec.num("escape_gbs")};
  ResultRow row;
  row.cells = {link.name,
               spec.at("escape_gbs"),
               num_to_string(link.links_for_escape(escape)),
               num_to_string(link.power_for_escape(escape).value),
               num_to_string(link.bandwidth.value),
               link.co_packaged ? "yes" : "no"};
  return {std::move(row)};
}

std::vector<Axis> table1_axes() {
  std::vector<std::string> names;
  for (const auto& link : phot::table1_links()) names.push_back(link.name);
  return {{"link", std::move(names)}, {"escape_gbs", {"2000"}}};
}

// ---------------------------------------------------------------------------
// Table III: MCM packing under a configurable escape budget.  One scenario
// emits one row per chip type (the table's shape), so sweeping the MCM
// geometry axes yields the full packing design space.
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable3Columns = {
    "fibers",        "lambdas",        "gbps",       "chip",       "chips_per_mcm",
    "mcm_count",     "chip_escape_gbs", "chip_share_gbs", "total_mcms"};

std::vector<ResultRow> eval_table3_point(const ScenarioSpec& spec) {
  const rack::McmConfig mcm = spec.resolve<rack::McmConfig>("mcm");
  const rack::RackConfig rack = spec.resolve<rack::RackConfig>("rack");
  const rack::McmPlan plan = rack::pack_rack(rack, mcm);

  std::vector<ResultRow> rows;
  for (const auto& p : plan.types) {
    ResultRow row;
    row.cells = {spec.at("mcm.fibers"),
                 spec.at("mcm.wavelengths_per_fiber"),
                 spec.at("mcm.gbps_per_wavelength"),
                 rack::to_string(p.type),
                 num_to_string(p.chips_per_mcm),
                 num_to_string(p.mcm_count),
                 num_to_string(p.per_chip_escape.value),
                 num_to_string(p.per_chip_share.value),
                 num_to_string(plan.total_mcms)};
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Axis> table3_axes() {
  return {{"mcm.fibers", {"32"}},
          {"mcm.wavelengths_per_fiber", {"64"}},
          {"mcm.gbps_per_wavelength", {"25"}}};
}

// ---------------------------------------------------------------------------
// §VI-C: photonic power overhead per fabric choice.
// ---------------------------------------------------------------------------

const std::vector<std::string> kSec6cColumns = {
    "fabric",     "transceivers_w", "switches_w", "total_w",
    "baseline_w", "overhead",       "added_latency_ns"};

std::vector<ResultRow> eval_sec6c_point(const ScenarioSpec& spec) {
  const config::SystemParams sys = spec.resolve<config::SystemParams>("system");
  const core::RackSystem system(sys.fabric, spec.resolve<rack::RackConfig>("rack"),
                                spec.resolve<rack::McmConfig>("mcm"),
                                spec.resolve<phot::PhotonicPowerConfig>("phot"));
  const phot::PowerBreakdown power = system.power_overhead();
  const phot::BaselineRackPower baseline;
  ResultRow row;
  row.cells = {spec.at("system.fabric"),
               num_to_string(power.transceivers.value),
               num_to_string(power.switches.value),
               num_to_string(power.total.value),
               num_to_string(baseline.total().value),
               num_to_string(power.overhead_vs_baseline),
               num_to_string(system.added_memory_latency_ns())};
  return {std::move(row)};
}

std::vector<Axis> sec6c_axes() { return {{"system.fabric", {"awgr"}}}; }

// ---------------------------------------------------------------------------
// Rack co-simulation campaigns: the closed loop of jobs × fabric × power
// evaluated together (§II-A telemetry, §IV routing, §VI-C power).  Every
// evaluator is a pure function of its spec — the co-sim seeds itself from
// the spec, so sweeps stay bit-identical for any --jobs level.
// ---------------------------------------------------------------------------

/// Shared axis → CosimConfig resolution.  base_seed == 0 keeps the engine's
/// default seed (one canonical trajectory per grid point); any other value
/// re-seeds from the spec id for independent replications.
cosim::CosimConfig cosim_config_from(const ScenarioSpec& spec) {
  cosim::CosimConfig cfg = config::cosim_config(spec.tree());
  if (spec.base_seed != 0) cfg.seed = spec.derived_seed();
  return cfg;
}

/// A co-sim campaign's CSV layout, each column named exactly once: leading
/// cells echo spec axes, later cells are report fields by their
/// cosim::report_fields() name.  "header=source" renames a column ("offered=
/// ml_offered"); a bare name is both.  Field columns the campaign computes
/// outside the report are looked up in CosimResult::extra first.
struct CosimLayout {
  std::vector<std::string> axes;
  std::vector<std::string> fields;
};

std::string header_of(const std::string& column) {
  return column.substr(0, column.find('='));
}

std::string source_of(const std::string& column) {
  const std::size_t eq = column.find('=');
  return eq == std::string::npos ? column : column.substr(eq + 1);
}

/// One evaluated co-sim scenario: its report plus any campaign-computed
/// cells, keyed by column header.
struct CosimResult {
  cosim::CosimReport report;
  std::map<std::string, double> extra;
};

/// A co-sim campaign whose header list and row cells both come from one
/// layout, so a header and its cell cannot drift apart.
Campaign cosim_campaign(std::string name, std::string description,
                        std::string paper_ref, CosimLayout layout,
                        std::vector<Axis> axes,
                        std::function<CosimResult(const ScenarioSpec&)> run) {
  std::vector<std::string> columns;
  for (const auto& col : layout.axes) columns.push_back(header_of(col));
  for (const auto& col : layout.fields) columns.push_back(header_of(col));
  auto evaluate = [layout = std::move(layout),
                   run = std::move(run)](const ScenarioSpec& spec) {
    const CosimResult result = run(spec);
    ResultRow row;
    for (const auto& col : layout.axes) row.cells.push_back(spec.at(source_of(col)));
    for (const auto& col : layout.fields) {
      const auto extra = result.extra.find(header_of(col));
      const double value = extra != result.extra.end()
                               ? extra->second
                               : cosim::report_field(source_of(col)).get(result.report);
      row.cells.push_back(num_to_string(value));
    }
    return std::vector<ResultRow>{std::move(row)};
  };
  return Campaign{std::move(name),    std::move(description), std::move(paper_ref),
                  std::move(columns), std::move(axes),        std::move(evaluate)};
}

disagg::AllocationPolicy policy_of(const ScenarioSpec& spec) {
  return disagg::allocation_policy_codec().parse(spec.at("policy"));
}

/// One rack co-sim run of the spec.  A per-scenario observability bundle
/// (null sinks unless --set obs.* turned something on) is discarded with
/// the run: campaign rows never carry obs data, and attaching it must leave
/// every row byte-identical — the contract test_obs pins at this seam.
cosim::CosimReport eval_cosim(const ScenarioSpec& spec, disagg::AllocationPolicy policy,
                              const cosim::CosimConfig& cfg) {
  obs::ObsBundle obs_bundle(spec.resolve<obs::ObsConfig>("obs"));
  return cosim::run_rack_cosim(spec.resolve<rack::RackConfig>("rack"), policy,
                               workloads::UsageModel::cori(), cfg, obs_bundle.handles());
}

CosimResult eval_disagg(const ScenarioSpec& spec) {
  const cosim::CosimConfig cfg = cosim_config_from(spec);
  return {eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated, cfg), {}};
}

CosimResult eval_per_policy(const ScenarioSpec& spec) {
  return {eval_cosim(spec, policy_of(spec), cosim_config_from(spec)), {}};
}

std::vector<Axis> cosim_acceptance_axes() {
  return {{"policy", {"static", "disagg"}},
          {"cosim.arrivals_per_ms", {"2", "4", "8"}},
          {"cosim.horizon_ms", {"200"}}};
}

std::vector<Axis> cosim_contention_axes() {
  return {{"cosim.contention_feedback", {"open", "closed"}},
          {"cosim.arrivals_per_ms", {"2", "4", "8", "16"}},
          {"cosim.horizon_ms", {"200"}}};
}

std::vector<Axis> cosim_energy_axes() {
  return {{"policy", {"static", "disagg"}},
          {"cosim.arrivals_per_ms", {"2", "8"}},
          {"cosim.horizon_ms", {"200"}}};
}

std::vector<Axis> cosim_tails_axes() {
  return {{"cosim.arrival.process", {"poisson", "mmpp", "diurnal"}},
          {"cosim.admission", {"queue"}},
          {"cosim.arrivals_per_ms", {"4", "12"}},
          {"cosim.horizon_ms", {"200"}}};
}

std::vector<Axis> cosim_availability_axes() {
  return {{"cosim.admission", {"drop", "queue"}},
          {"fault.policy", {"kill", "requeue", "degrade"}},
          {"fault.enabled", {"true"}},
          {"fault.mcm_mtbf_ms", {"40", "160", "640"}},
          {"fault.node_mtbf_ms", {"320"}},
          {"cosim.horizon_ms", {"200"}}};
}

std::vector<Axis> cosim_blast_radius_axes() {
  return {{"policy", {"static", "disagg"}},
          {"fault.enabled", {"true"}},
          {"fault.mcm_mtbf_ms", {"60", "240"}},
          {"fault.node_mtbf_ms", {"240"}},
          {"fault.policy", {"requeue"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"200"}}};
}

// ---------------------------------------------------------------------------
// ML collective campaigns (src/collectives): training jobs whose step time
// is gated by the slowest collective flow, on the photonic fabric vs an
// electronic baseline (fig12-style framing via Kumar et al., PAPERS.md).
// The "fabric" axis is free: the evaluator maps electronic onto the
// unregistered MlConfig::electronic switch so the comparison is one row
// pair per pattern/gradient point.
// ---------------------------------------------------------------------------

CosimResult eval_ml_collectives(const ScenarioSpec& spec) {
  cosim::CosimConfig cfg = cosim_config_from(spec);
  const std::string fabric = spec.at("fabric");
  if (fabric == "electronic")
    cfg.ml.electronic = true;
  else if (fabric != "photonic")
    throw std::invalid_argument("unknown fabric '" + fabric +
                                "' (want photonic|electronic)");
  // Closed-form uncontended collective time at the effective per-flow rate:
  // the lower bound the measured step times are judged against.
  const double effective_gbps =
      cfg.ml.demand_gbps * (cfg.ml.electronic ? cfg.ml.electronic_derate : 1.0);
  const double ideal_coll_ms =
      1e3 * collectives::lower_bound_seconds(cfg.ml.pattern, cfg.ml.accelerators,
                                             cfg.ml.gradient_mb * 1e6,
                                             effective_gbps);
  return {eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated, cfg),
          {{"accelerators", static_cast<double>(cfg.ml.accelerators)},
           {"compute_ms", cfg.ml.compute_ms},
           {"ideal_coll_ms", ideal_coll_ms}}};
}

std::vector<Axis> ml_collectives_axes() {
  return {{"fabric", {"photonic", "electronic"}},
          {"ml.pattern", {"ring", "alltoall", "ps", "broadcast"}},
          {"ml.gradient_mb", {"8", "64"}},
          {"ml.enabled", {"true"}},
          {"cosim.arrivals_per_ms", {"0.05"}},
          {"cosim.horizon_ms", {"120"}}};
}

CosimResult eval_ml_vs_hpc(const ScenarioSpec& spec) {
  cosim::CosimConfig cfg = cosim_config_from(spec);
  const std::string workload = spec.at("workload");
  if (workload == "ml") {
    cfg.ml.enabled = true;
    cfg.ml.mix_fraction = 1.0;
  } else if (workload != "hpc") {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (want hpc|ml)");
  }
  return {eval_cosim(spec, disagg::AllocationPolicy::kDisaggregated, cfg), {}};
}

std::vector<Axis> ml_vs_hpc_axes() {
  return {{"workload", {"hpc", "ml"}},
          {"cosim.arrivals_per_ms", {"1", "4"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"120"}}};
}

std::vector<Axis> ml_mixed_rack_axes() {
  return {{"ml.enabled", {"true"}},
          {"ml.mix_fraction", {"0.2", "0.5"}},
          {"cosim.arrivals_per_ms", {"4"}},
          {"cosim.admission", {"queue"}},
          {"cosim.horizon_ms", {"120"}}};
}

// ---------------------------------------------------------------------------
// Cluster co-simulation: rack-scale vs cluster-scale disaggregation (Ajibola
// et al. framing from PAPERS.md).  spill=none keeps every rack an island —
// overflow is lost but the inter-rack uplinks stay dark; next/least light
// the uplinks and trade interconnect watts for cluster-wide acceptance.
// Rows are deterministic at any --jobs level AND any cluster worker count
// (the conservative-window loop; byte-compared in CI's cluster smoke step).
// The report fields are the cluster total's; the cluster-only cells ride in
// CosimResult::extra.
// ---------------------------------------------------------------------------

CosimResult eval_cluster_energy(const ScenarioSpec& spec) {
  const auto report = cluster::run_cluster_cosim(
      spec.resolve<rack::RackConfig>("rack"), policy_of(spec),
      workloads::UsageModel::cori(), spec.resolve<cluster::ClusterConfig>("cluster"),
      cosim_config_from(spec));
  return {report.total,
          {{"spilled", static_cast<double>(report.spilled)},
           {"spill_failed", static_cast<double>(report.spill_failed)},
           {"interconnect_kw", report.interconnect_power_w / 1e3},
           {"barriers", static_cast<double>(report.barriers)}}};
}

std::vector<Axis> cluster_energy_axes() {
  return {{"policy", {"disagg"}},
          {"cluster.spill", {"none", "next", "least"}},
          {"cluster.racks", {"4"}},
          {"cosim.arrivals_per_ms", {"6", "12"}},
          {"cosim.horizon_ms", {"120"}}};
}

std::vector<Campaign> make_campaigns() {
  std::vector<Campaign> all;

  all.push_back(Campaign{
      "fig6",
      "CPU slowdown per benchmark at +35 ns LLC<->memory latency",
      "Fig 6 (Section VI-B1)",
      kCpuColumns,
      cpu_axes({"inorder", "ooo"}, {35.0}),
      eval_cpu_point});

  all.push_back(Campaign{
      "fig8",
      "CPU slowdown sensitivity to +25/30/35 ns added latency",
      "Fig 8 (Section VI-B2)",
      kCpuColumns,
      cpu_axes({"inorder"}, {25.0, 30.0, 35.0}),
      eval_cpu_point});

  all.push_back(Campaign{
      "fig9",
      "GPU slowdown per application at +25/30/35 ns LLC<->HBM latency",
      "Fig 9 (Section VI-B3)",
      kGpuColumns,
      gpu_axes({25.0, 30.0, 35.0}, {1.0}),
      eval_gpu_point});

  all.push_back(Campaign{
      "table1",
      "Links and transceiver power per technology for the MCM escape budget",
      "Table I (Section III)",
      kTable1Columns,
      table1_axes(),
      eval_table1_point});

  all.push_back(Campaign{
      "table3",
      "MCM packing of the Perlmutter-like rack per chip type",
      "Table III (Section V-A)",
      kTable3Columns,
      table3_axes(),
      eval_table3_point});

  all.push_back(Campaign{
      "sec6c",
      "Photonic fabric power overhead vs the baseline rack",
      "Section VI-C",
      kSec6cColumns,
      sec6c_axes(),
      eval_sec6c_point});

  all.push_back(cosim_campaign(
      "cosim_acceptance",
      "Closed-loop job acceptance per policy under rising load",
      "Sections II-A and VI (co-simulation)",
      {{"policy", "arrivals_per_ms=cosim.arrivals_per_ms", "horizon_ms=cosim.horizon_ms"},
       {"offered", "accepted", "acceptance", "mean_cpu_util", "mean_mem_util",
        "marooned_mem", "mean_speed"}},
      cosim_acceptance_axes(), eval_per_policy));

  all.push_back(cosim_campaign(
      "cosim_contention",
      "Contention feedback: open vs closed loop on the shared fabric",
      "Section IV-A (co-simulation)",
      {{"feedback=cosim.contention_feedback", "arrivals_per_ms=cosim.arrivals_per_ms",
        "horizon_ms=cosim.horizon_ms"},
       {"acceptance", "satisfied_frac", "indirect_frac", "blocking", "mean_speed",
        "mean_stretch", "peak_fabric_util"}},
      cosim_contention_axes(), eval_disagg));

  all.push_back(cosim_campaign(
      "cosim_energy",
      "Time-integrated rack energy under the live job stream",
      "Section VI-C (co-simulation)",
      {{"policy", "arrivals_per_ms=cosim.arrivals_per_ms", "horizon_ms=cosim.horizon_ms"},
       {"accepted", "energy_kj", "mean_kw", "peak_kw", "photonic_kw", "kj_per_job"}},
      cosim_energy_axes(), eval_per_policy));

  all.push_back(cosim_campaign(
      "cosim_tails",
      "Tail latency (wait/slowdown/FCT p50/p99/p999) per arrival process",
      "production traffic engine (open-loop arrivals, queued admission)",
      {{"process=cosim.arrival.process", "admission=cosim.admission",
        "arrivals_per_ms=cosim.arrivals_per_ms", "horizon_ms=cosim.horizon_ms"},
       {"offered", "accepted", "acceptance", "wait_p50_ms", "wait_p99_ms", "wait_p999_ms",
        "slowdown_p50", "slowdown_p99", "slowdown_p999", "fct_p50_ms", "fct_p99_ms",
        "fct_p999_ms", "censored_waiting", "censored_running"}},
      cosim_tails_axes(), eval_disagg));

  all.push_back(cosim_campaign(
      "cosim_availability",
      "Availability and goodput under the seed-derived fault timeline",
      "fault injection & resilience engine (deterministic MTBF sweep)",
      {{"admission=cosim.admission", "resilience=fault.policy",
        "mcm_mtbf_ms=fault.mcm_mtbf_ms", "horizon_ms=cosim.horizon_ms"},
       {"offered", "accepted", "faults", "repairs", "interrupted", "requeued", "degraded",
        "killed", "goodput", "availability", "work_lost_ms", "mttr_ms"}},
      cosim_availability_axes(), eval_disagg));

  all.push_back(cosim_campaign(
      "cosim_blast_radius",
      "Fault blast radius: static node-local vs disaggregated fabric-bound",
      "fault injection & resilience engine (identical timeline per policy)",
      {{"policy", "mcm_mtbf_ms=fault.mcm_mtbf_ms"},
       {"offered", "accepted", "faults", "interrupted", "requeued", "killed", "goodput",
        "availability", "work_lost_ms"}},
      cosim_blast_radius_axes(), eval_per_policy));

  // The offered/accepted/completed/steps headers here count ML jobs.
  all.push_back(cosim_campaign(
      "ml_collectives",
      "Training-step time per collective pattern: photonic vs electronic fabric",
      "ML collectives on the wavelength fabric (Kumar et al., fig12-style)",
      {{"fabric", "pattern=ml.pattern", "gradient_mb=ml.gradient_mb"},
       {"accelerators", "compute_ms", "offered=ml_offered", "accepted=ml_accepted",
        "completed=ml_completed", "steps=ml_steps", "step_p50_ms", "step_p99_ms",
        "coll_frac_p50", "straggler_p99", "ideal_coll_ms"}},
      ml_collectives_axes(), eval_ml_collectives));

  all.push_back(cosim_campaign(
      "ml_vs_hpc",
      "Pure ML job streams vs the paper's HPC mix on one rack",
      "ML collectives on the wavelength fabric (workload comparison)",
      {{"workload", "arrivals_per_ms=cosim.arrivals_per_ms"},
       {"offered", "accepted", "acceptance", "wait_p99_ms", "slowdown_p99", "step_p99_ms",
        "satisfied_frac", "energy_kj"}},
      ml_vs_hpc_axes(), eval_ml_vs_hpc));

  all.push_back(cosim_campaign(
      "ml_mixed_rack",
      "HPC+ML sharing one rack: interference at rising ML mix fractions",
      "ML collectives on the wavelength fabric (mixed tenancy)",
      {{"mix_fraction=ml.mix_fraction", "arrivals_per_ms=cosim.arrivals_per_ms"},
       {"offered", "ml_offered", "accepted", "ml_accepted", "wait_p99_ms", "step_p50_ms",
        "step_p99_ms", "straggler_p99", "mean_stretch", "energy_kj"}},
      ml_mixed_rack_axes(), eval_disagg));

  all.push_back(cosim_campaign(
      "cluster_energy",
      "Rack-scale vs cluster-scale disaggregation: acceptance and energy",
      "multi-rack cluster co-simulation (deterministic parallel event loop)",
      {{"policy", "spill=cluster.spill", "racks=cluster.racks",
        "arrivals_per_ms=cosim.arrivals_per_ms"},
       {"offered", "accepted", "acceptance", "spilled", "spill_failed", "energy_kj",
        "interconnect_kw", "kj_per_job", "barriers"}},
      cluster_energy_axes(), eval_cluster_energy));

  return all;
}

}  // namespace

const std::vector<Campaign>& campaigns() {
  static const std::vector<Campaign> registry = make_campaigns();
  return registry;
}

const Campaign& campaign_by_name(const std::string& name) {
  for (const auto& campaign : campaigns())
    if (campaign.name == name) return campaign;
  std::string known;
  for (const auto& campaign : campaigns()) {
    if (!known.empty()) known += ", ";
    known += campaign.name;
  }
  throw std::out_of_range("unknown campaign '" + name + "' (known: " + known + ")");
}

}  // namespace photorack::scenario
