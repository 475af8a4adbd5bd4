// The one table mapping dotted registry paths onto the layers' config
// structs.  Every knob registered here is addressable from any campaign
// axis, `photorack_sweep --set`, `photorack_cosim --set`, discoverable via
// `photorack_sweep --params`, and recorded in every run manifest.
#include "config/bindings.hpp"

#include "cluster/cluster_cosim.hpp"
#include "collectives/collective.hpp"
#include "cosim/rack_cosim.hpp"
#include "cpusim/runner.hpp"
#include "disagg/allocator.hpp"
#include "fault/fault_model.hpp"
#include "gpusim/gpu_config.hpp"
#include "net/fabric.hpp"
#include "obs/obs.hpp"
#include "phot/power.hpp"
#include "rack/chips.hpp"
#include "rack/mcm.hpp"
#include "sim/time.hpp"

namespace photorack::config {

namespace {

using cosim::CosimConfig;
using cpusim::SimConfig;
using gpusim::GpuConfig;
using net::FabricSliceConfig;
using obs::ObsConfig;
using phot::PhotonicPowerConfig;
using rack::McmConfig;
using rack::RackConfig;

void register_system(ParamRegistry& reg) {
  reg.section<SystemParams>("system", "config::SystemParams", "whole-design choices")
      .bind_enum("fabric", &SystemParams::fabric, rack::fabric_kind_codec(),
                 "rack interconnect design (Section V-B)");
}

void register_rack(ParamRegistry& reg) {
  reg.section<RackConfig>("rack", "rack::RackConfig",
                          "baseline rack being disaggregated (Section V)")
      .bind("nodes", &RackConfig::nodes, "compute nodes per rack", {1, 4096})
      .bind(
          "node.cpus", [](RackConfig& c) -> int& { return c.node.cpus; },
          "CPUs per node", {0, 64})
      .bind(
          "node.gpus", [](RackConfig& c) -> int& { return c.node.gpus; },
          "GPUs per node", {0, 64})
      .bind(
          "node.nics", [](RackConfig& c) -> int& { return c.node.nics; },
          "NICs per node", {0, 64})
      .bind(
          "node.hbm_stacks", [](RackConfig& c) -> int& { return c.node.hbm_stacks; },
          "HBM stacks per node (one per GPU)", {0, 64})
      .bind(
          "node.ddr4_modules",
          [](RackConfig& c) -> int& { return c.node.ddr4_modules; },
          "DDR4 modules per node (one per channel)", {0, 64})
      .bind(
          "node.ddr4_per_module",
          [](RackConfig& c) -> phot::GBps& { return c.node.ddr4_per_module; },
          "per-module DDR4 bandwidth", {0.1, 1e4})
      .bind(
          "node.hbm_per_stack",
          [](RackConfig& c) -> phot::GBps& { return c.node.hbm_per_stack; },
          "per-stack HBM bandwidth", {0.1, 1e5})
      .bind(
          "node.nvlink_per_gpu",
          [](RackConfig& c) -> phot::GBps& { return c.node.nvlink_per_gpu; },
          "NVLink bandwidth per GPU", {0.1, 1e5})
      .bind(
          "node.pcie_per_link",
          [](RackConfig& c) -> phot::GBps& { return c.node.pcie_per_link; },
          "PCIe bandwidth per link", {0.1, 1e4})
      .bind(
          "node.nic_per_port",
          [](RackConfig& c) -> phot::GBps& { return c.node.nic_per_port; },
          "NIC bandwidth per port", {0.1, 1e4});
}

void register_mcm(ParamRegistry& reg) {
  reg.section<McmConfig>("mcm", "rack::McmConfig",
                         "photonic MCM escape configuration (Section V-A)")
      .bind("fibers", &McmConfig::fibers, "fibers per MCM", {1, 1024})
      .bind("wavelengths_per_fiber", &McmConfig::wavelengths_per_fiber,
            "DWDM wavelengths per fiber", {1, 1024})
      .bind("gbps_per_wavelength", &McmConfig::gbps_per_wavelength,
            "per-wavelength line rate (Table III)", {0.1, 1e4});
}

void register_cpusim(ParamRegistry& reg) {
  reg.section<SimConfig>("cpusim", "cpusim::SimConfig",
                         "CPU timing simulation (Section VI-B1)")
      .bind("warmup", &SimConfig::warmup_instructions,
            "cache/DRAM warmup instructions (not measured)", {0, 1e10})
      .bind("measured", &SimConfig::measured_instructions,
            "measured instructions per run", {1, 1e10})
      .bind("prewarm_working_set", &SimConfig::prewarm_working_set,
            "pre-walk the trace footprint before timing")
      .bind("prewarm_cap_bytes", &SimConfig::prewarm_cap_bytes,
            "cap on prewarmed footprint bytes", {0, 1e12})
      .bind_enum(
          "core.kind", [](SimConfig& c) -> cpusim::CoreKind& { return c.core.kind; },
          cpusim::core_kind_codec(), "core timing model")
      .bind(
          "core.freq_ghz", [](SimConfig& c) -> double& { return c.core.freq_ghz; },
          "core clock", {0.1, 20})
      .bind(
          "core.width", [](SimConfig& c) -> int& { return c.core.width; },
          "OOO issue width", {1, 16})
      .bind(
          "core.rob", [](SimConfig& c) -> int& { return c.core.rob; },
          "OOO reorder-buffer window (instructions)", {1, 4096})
      .bind(
          "core.mshrs", [](SimConfig& c) -> int& { return c.core.mshrs; },
          "max overlapped outstanding misses", {1, 256})
      .bind(
          "core.ooo_hit_exposure",
          [](SimConfig& c) -> double& { return c.core.ooo_hit_exposure; },
          "fraction of L2/LLC hit latency an OOO core exposes", {0, 1})
      .bind(
          "core.accelerator_burst",
          [](SimConfig& c) -> int& { return c.core.accelerator_burst; },
          "decoupled-accelerator misses per burst", {1, 1024})
      .bind(
          "core.accelerator_line_cycles",
          [](SimConfig& c) -> double& { return c.core.accelerator_line_cycles; },
          "per-line streaming cycles within a burst", {0, 1000})
      .bind(
          "core.prefetch.enabled",
          [](SimConfig& c) -> bool& { return c.core.prefetch.enabled; },
          "stride prefetcher (the Section VII mitigation)")
      .bind(
          "core.prefetch.streams",
          [](SimConfig& c) -> int& { return c.core.prefetch.streams; },
          "tracked prefetch streams", {1, 256})
      .bind(
          "core.prefetch.degree",
          [](SimConfig& c) -> int& { return c.core.prefetch.degree; },
          "prefetches issued per triggering miss", {0, 64})
      .bind(
          "core.prefetch.distance",
          [](SimConfig& c) -> int& { return c.core.prefetch.distance; },
          "strides ahead of the first prefetch", {0, 64})
      .bind(
          "core.prefetch.train_threshold",
          [](SimConfig& c) -> int& { return c.core.prefetch.train_threshold; },
          "consistent deltas before a stream trains", {1, 16})
      .bind(
          "l1.size_bytes",
          [](SimConfig& c) -> std::uint64_t& { return c.hierarchy.l1.size_bytes; },
          "L1 capacity", {1024, 1e9})
      .bind(
          "l1.ways", [](SimConfig& c) -> int& { return c.hierarchy.l1.ways; },
          "L1 associativity", {1, 64})
      .bind(
          "l1.latency_cycles",
          [](SimConfig& c) -> int& { return c.hierarchy.l1.latency_cycles; },
          "L1 load-to-use cycles", {1, 1000})
      .bind(
          "l2.size_bytes",
          [](SimConfig& c) -> std::uint64_t& { return c.hierarchy.l2.size_bytes; },
          "L2 capacity", {1024, 1e10})
      .bind(
          "l2.ways", [](SimConfig& c) -> int& { return c.hierarchy.l2.ways; },
          "L2 associativity", {1, 64})
      .bind(
          "l2.latency_cycles",
          [](SimConfig& c) -> int& { return c.hierarchy.l2.latency_cycles; },
          "L2 load-to-use cycles", {1, 1000})
      .bind(
          "llc.size_bytes",
          [](SimConfig& c) -> std::uint64_t& { return c.hierarchy.llc.size_bytes; },
          "LLC capacity", {1024, 1e11})
      .bind(
          "llc.ways", [](SimConfig& c) -> int& { return c.hierarchy.llc.ways; },
          "LLC associativity", {1, 64})
      .bind(
          "llc.latency_cycles",
          [](SimConfig& c) -> int& { return c.hierarchy.llc.latency_cycles; },
          "LLC load-to-use cycles", {1, 1000})
      .bind(
          "dram.banks", [](SimConfig& c) -> int& { return c.dram.banks; },
          "DRAM banks (row buffers)", {1, 1024})
      .bind(
          "dram.row_bytes",
          [](SimConfig& c) -> std::uint64_t& { return c.dram.row_bytes; },
          "DRAM row-buffer bytes", {64, 1e9})
      .bind(
          "dram.row_hit_ns", [](SimConfig& c) -> double& { return c.dram.row_hit_ns; },
          "open-row access latency", {0, 1e6})
      .bind(
          "dram.row_miss_ns",
          [](SimConfig& c) -> double& { return c.dram.row_miss_ns; },
          "precharge+activate access latency", {0, 1e6})
      .bind(
          "dram.extra_ns", [](SimConfig& c) -> double& { return c.dram.extra_ns; },
          "added LLC<->memory latency under study (Section VI-B)", {0, 1e6});
}

void register_gpusim(ParamRegistry& reg) {
  reg.section<GpuConfig>("gpusim", "gpusim::GpuConfig",
                         "A100-like GPU model (Section VI-B3)")
      .bind("sms", &GpuConfig::sms, "streaming multiprocessors", {1, 1024})
      .bind("freq_ghz", &GpuConfig::freq_ghz, "SM clock", {0.1, 10})
      .bind("l2_bytes", &GpuConfig::l2_bytes, "shared L2 capacity", {1024, 1e11})
      .bind("l2_ways", &GpuConfig::l2_ways, "L2 associativity", {1, 64})
      .bind("sector_bytes", &GpuConfig::sector_bytes,
            "memory transaction granularity", {1, 4096})
      .bind("hbm_bandwidth_gBps", &GpuConfig::hbm_bandwidth_gBps,
            "peak HBM bandwidth (GB/s)", {1, 1e6})
      .bind("l2_hit_latency_ns", &GpuConfig::l2_hit_latency_ns, "L2 hit latency",
            {0, 1e6})
      .bind("hbm_latency_ns", &GpuConfig::hbm_latency_ns, "HBM access latency",
            {0, 1e6})
      .bind("extra_hbm_ns", &GpuConfig::extra_hbm_ns,
            "added L2<->HBM latency under study (Fig 9)", {0, 1e6})
      .bind("hbm_bandwidth_derate", &GpuConfig::hbm_bandwidth_derate,
            "deliverable-bandwidth multiplier (Section VI-D)", {0.01, 1});
}

void register_net(ParamRegistry& reg) {
  reg.section<FabricSliceConfig>("net", "net::FabricSliceConfig",
                                 "co-sim-scale wavelength fabric (Section IV)")
      .bind("mcms", &FabricSliceConfig::mcms, "fabric MCM endpoints", {2, 4096})
      .bind("lambdas_per_pair", &FabricSliceConfig::lambdas_per_pair,
            "direct wavelengths per (src,dst) pair", {1, 64})
      .bind("gbps_per_wavelength", &FabricSliceConfig::gbps_per_wavelength,
            "per-wavelength line rate", {0.1, 1e4})
      .bind_scaled("piggyback_us", &FabricSliceConfig::piggyback_interval,
                   static_cast<double>(sim::kPsPerUs), "us",
                   "piggybacked-telemetry refresh interval", {0.001, 1e6});
}

void register_cosim(ParamRegistry& reg) {
  reg.section<CosimConfig>("cosim", "cosim::CosimConfig",
                           "closed-loop rack co-simulation")
      .bind("arrivals_per_ms", &CosimConfig::arrivals_per_ms,
            "mean job arrival rate (all processes match it long-run)",
            {0.001, 1e4})
      .bind_enum(
          "arrival.process",
          [](CosimConfig& c) -> traffic::ArrivalKind& { return c.arrival.kind; },
          traffic::arrival_kind_codec(), "open-loop arrival-process shape")
      .bind(
          "arrival.burst_mult",
          [](CosimConfig& c) -> double& { return c.arrival.burst_rate_mult; },
          "MMPP ON-state rate multiplier", {1, 1000})
      .bind(
          "arrival.burst_fraction",
          [](CosimConfig& c) -> double& { return c.arrival.burst_fraction; },
          "MMPP long-run fraction of time in the ON state", {1e-4, 0.999})
      .bind_scaled(
          "arrival.burst_ms",
          [](CosimConfig& c) -> sim::TimePs& { return c.arrival.burst_mean; },
          static_cast<double>(sim::kPsPerMs), "ms", "mean dwell of one MMPP burst",
          {0.001, 1e6})
      .bind(
          "arrival.diurnal_amplitude",
          [](CosimConfig& c) -> double& { return c.arrival.diurnal_amplitude; },
          "diurnal modulation amplitude: rate(t) = base*(1 + A sin)", {0, 0.999})
      .bind_scaled(
          "arrival.diurnal_period_ms",
          [](CosimConfig& c) -> sim::TimePs& { return c.arrival.diurnal_period; },
          static_cast<double>(sim::kPsPerMs), "ms", "diurnal modulation period",
          {0.001, 1e6})
      .bind(
          "arrival.trace_file",
          [](CosimConfig& c) -> std::string& { return c.arrival.trace_file; },
          "trace-replay file: one arrival timestamp in ms per line")
      .bind_enum("admission", &CosimConfig::admission,
                 cosim::admission_policy_codec(),
                 "unplaceable jobs: drop, or wait in a bounded FIFO")
      .bind("queue_cap", &CosimConfig::queue_cap,
            "FIFO backlog bound under queue admission", {1, 1000000})
      .bind_scaled("duration_ms", &CosimConfig::mean_duration,
                   static_cast<double>(sim::kPsPerMs), "ms", "mean job duration",
                   {0.001, 1e6})
      .bind_scaled("horizon_ms", &CosimConfig::sim_time,
                   static_cast<double>(sim::kPsPerMs), "ms", "job arrival horizon",
                   {0, 1e6})
      .bind("seed", &CosimConfig::seed, "base RNG seed of the co-simulation")
      .bind("max_job_nodes", &CosimConfig::max_job_nodes,
            "job breadth drawn in [1, max]", {1, 64})
      .bind_enum("contention_feedback", &CosimConfig::contention_feedback,
                 cosim::feedback_codec(),
                 "closed: stretch durations by contention; open: never stretch")
      .bind("min_speed_fraction", &CosimConfig::min_speed_fraction,
            "floor on per-job speed (caps stretch at 1/floor)", {0.001, 1})
      .bind("traffic_scale", &CosimConfig::traffic_scale,
            "scale on per-flow bandwidth demand", {0, 1000})
      .bind("gpu_traffic_mult", &CosimConfig::gpu_traffic_mult,
            "GPU-flow demand multiplier", {0, 1000})
      .bind("idle_power_fraction", &CosimConfig::idle_power_fraction,
            "idle fraction of each pool's full power", {0, 1});
}

void register_cluster(ParamRegistry& reg) {
  // `workers` is deliberately NOT registered: it changes wall-clock only
  // (cluster runs are bit-identical at any worker count), and registry knobs
  // are reserved for parameters that can move a result.
  reg.section<cluster::ClusterConfig>(
         "cluster", "cluster::ClusterConfig",
         "multi-rack cluster co-simulation (racks + inter-rack fabric)")
      .bind("racks", &cluster::ClusterConfig::racks,
            "independent rack event domains", {1, 256})
      .bind_enum("spill", &cluster::ClusterConfig::spill,
                 cluster::spill_policy_codec(),
                 "overflow placement: none, ring neighbor, or least-loaded")
      .bind("interconnect_gbps", &cluster::ClusterConfig::interconnect_gbps,
            "per directed rack-pair inter-rack link rate", {0.1, 1e6})
      .bind("hop_ns", &cluster::ClusterConfig::hop_ns,
            "one-way inter-rack latency (= sync window width)", {0, 1e9})
      .bind("pj_per_bit", &cluster::ClusterConfig::interconnect_pj_per_bit,
            "inter-rack transceiver energy while uplinks are lit", {0, 1e6});
}

void register_fault(ParamRegistry& reg) {
  // MTBF knobs accept 0 = "this component class never fails"; a class is
  // armed by giving it a positive MTBF *and* setting fault.enabled.  With
  // enabled=false the engine is never constructed, so every output byte
  // matches a fault-free build (pinned by test_fault).
  reg.section<fault::FaultConfig>("fault", "fault::FaultConfig",
                                  "deterministic fault injection & resilience")
      .bind("enabled", &fault::FaultConfig::enabled,
            "arm the seed-derived fault timeline")
      .bind_enum("policy", &fault::FaultConfig::policy,
                 fault::resilience_policy_codec(),
                 "victim handling: kill, requeue w/ backoff, or run degraded")
      .bind("mcm_mtbf_ms", &fault::FaultConfig::mcm_mtbf_ms,
            "mean time between MCM crash-stops (0 = never)", {0, 1e9})
      .bind("mcm_mttr_ms", &fault::FaultConfig::mcm_mttr_ms,
            "mean MCM repair time", {0.001, 1e9})
      .bind("node_mtbf_ms", &fault::FaultConfig::node_mtbf_ms,
            "mean time between node crash-stops (0 = never)", {0, 1e9})
      .bind("node_mttr_ms", &fault::FaultConfig::node_mttr_ms,
            "mean node repair time", {0.001, 1e9})
      .bind("link_mtbf_ms", &fault::FaultConfig::link_mtbf_ms,
            "mean time between wavelength-pair link cuts (0 = never)", {0, 1e9})
      .bind("link_mttr_ms", &fault::FaultConfig::link_mttr_ms,
            "mean link repair time", {0.001, 1e9})
      .bind("laser_mtbf_ms", &fault::FaultConfig::laser_mtbf_ms,
            "mean time between comb-laser degradations (0 = never)", {0, 1e9})
      .bind("laser_mttr_ms", &fault::FaultConfig::laser_mttr_ms,
            "mean laser repair time", {0.001, 1e9})
      .bind("degrade_fraction", &fault::FaultConfig::degrade_fraction,
            "pair capacity multiplier while a laser runs degraded", {0.001, 1})
      .bind("max_retries", &fault::FaultConfig::max_retries,
            "requeue attempts before a victim is killed", {0, 1000})
      .bind("backoff_base_ms", &fault::FaultConfig::backoff_base_ms,
            "first requeue backoff (doubles per retry)", {0.001, 1e6})
      .bind("backoff_cap_ms", &fault::FaultConfig::backoff_cap_ms,
            "requeue backoff ceiling", {0.001, 1e6});
}

void register_ml(ParamRegistry& reg) {
  // `electronic` is deliberately NOT registered: it is the campaign-level
  // fabric baseline switch (set by the free "fabric" axis), not a knob a
  // manifest should carry independently of that axis.  With enabled=false
  // (or mix_fraction=0) the ML branch never draws, so every output byte
  // matches a build without the section (pinned by test_collectives).
  reg.section<collectives::MlConfig>(
         "ml", "collectives::MlConfig",
         "ML training jobs: collectives on the wavelength fabric")
      .bind("enabled", &collectives::MlConfig::enabled,
            "admit training jobs into the co-sim job stream")
      .bind_enum("pattern", &collectives::MlConfig::pattern,
                 collectives::pattern_codec(),
                 "collective pattern of each training step")
      .bind("accelerators", &collectives::MlConfig::accelerators,
            "accelerators (collective ranks) per training job", {2, 4096})
      .bind("gradient_mb", &collectives::MlConfig::gradient_mb,
            "gradient payload per step, in MB", {0.001, 1e6})
      .bind("steps", &collectives::MlConfig::steps,
            "training steps per job", {1, 100000})
      .bind("compute_ms", &collectives::MlConfig::compute_ms,
            "per-step compute segment before the collective", {0, 1e6})
      .bind("mix_fraction", &collectives::MlConfig::mix_fraction,
            "fraction of arrivals that are ML jobs (1 = pure ML)", {0, 1})
      .bind("demand_gbps", &collectives::MlConfig::demand_gbps,
            "per-flow bandwidth demand of a collective phase", {0.1, 1e4})
      .bind("electronic_derate", &collectives::MlConfig::electronic_derate,
            "achieved-rate multiplier of the electronic baseline fabric",
            {0.001, 1})
      .bind("jitter_frac", &collectives::MlConfig::jitter_frac,
            "per-step compute jitter amplitude (straggler model)", {0, 10});
}

void register_phot(ParamRegistry& reg) {
  // Only the ASSUMPTION knobs are registered: the geometry fields (mcms,
  // wavelengths_per_mcm, gbps_per_wavelength) are derived from the built
  // rack design / fabric slice by every consumer, so registering them
  // would create --set paths the runs silently ignore.
  reg.section<PhotonicPowerConfig>("phot", "phot::PhotonicPowerConfig",
                                   "photonic power model (Section VI-C)")
      .bind("transceiver_pair_energy", &PhotonicPowerConfig::transceiver_pair_energy,
            "comb transceiver-pair energy, laser included", {0.01, 100})
      .bind("all_switches_power", &PhotonicPowerConfig::all_switches_power,
            "power budget for all parallel switches", {0, 1e6})
      .bind("lasers_always_on", &PhotonicPowerConfig::lasers_always_on,
            "paper's pessimistic always-on assumption");
}

void register_obs(ParamRegistry& reg) {
  // Passive instrumentation only: enabling any obs.* knob must leave every
  // campaign CSV/JSONL byte-identical (pinned by test_obs).
  reg.section<ObsConfig>("obs", "obs::ObsConfig",
                         "passive observability: trace/metrics/profile")
      .bind("trace.enabled", &ObsConfig::trace_enabled,
            "record a Chrome-trace-event timeline keyed on sim time")
      .bind("trace.ring", &ObsConfig::trace_ring,
            "flight-recorder mode: keep only the last N events (0 = unbounded)",
            {0, 1e9})
      .bind("metrics.enabled", &ObsConfig::metrics_enabled,
            "sample time-series metrics rows during the run")
      .bind_scaled("metrics.interval_ms", &ObsConfig::metrics_interval,
                   static_cast<double>(sim::kPsPerMs), "ms",
                   "metrics sampling period", {0.001, 1e6})
      .bind("profile.enabled", &ObsConfig::profile_enabled,
            "wall-clock self-profile of the simulator hot paths");
}

}  // namespace

const ParamRegistry& registry() {
  static const ParamRegistry* reg = [] {
    auto* r = new ParamRegistry();
    register_system(*r);
    register_rack(*r);
    register_mcm(*r);
    register_cpusim(*r);
    register_gpusim(*r);
    register_net(*r);
    register_cosim(*r);
    register_cluster(*r);
    register_fault(*r);
    register_ml(*r);
    register_obs(*r);
    register_phot(*r);
    return r;
  }();
  return *reg;
}

cosim::CosimConfig cosim_config(const ConfigTree& tree) {
  CosimConfig cfg = tree.build<CosimConfig>("cosim");
  cfg.fabric = tree.build<FabricSliceConfig>("net");
  cfg.fault = tree.build<fault::FaultConfig>("fault");
  cfg.ml = tree.build<collectives::MlConfig>("ml");
  return cfg;
}

}  // namespace photorack::config
