// photorack_cosim — closed-loop rack co-simulation (jobs × fabric × power).
//
//   photorack_cosim [--policy static|disagg] [--rate R] [--duration-ms D]
//                   [--horizon-ms H] [--seed S] [--mcms N] [--open-loop]
//                   [--traffic-scale X] [--racks N] [--spill P]
//                   [--set path=value] [--manifest file.json] [--quiet]
//
// Runs one co-simulation and prints the coupled report: acceptance and
// utilization from the allocator, satisfaction/indirection from the fabric,
// stretch from the contention feedback, and the integrated energy trace.
// Any cluster.* knob (--racks, --spill, --set cluster.*) switches to the
// multi-rack cluster co-simulation (the same report, aggregated across
// racks, plus spill/interconnect telemetry).
//
// Configuration goes through the config registry: the named flags in
// kFlagTable are sugar for `--set` on registry paths (--rate =
// cosim.arrivals_per_ms, --mcms = net.mcms, ...), and `--set` reaches ANY
// registered knob (`photorack_sweep --params` lists them); unknown paths and
// out-of-range values are rejected with suggestions before the run starts.
// --manifest writes the resolved parameter tree as a reproducibility
// sidecar once the run has finished.  For design-space sweeps over these
// knobs use the scenario engine: `photorack_sweep --campaign
// cosim_acceptance|...`.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster_cosim.hpp"
#include "config/bindings.hpp"
#include "config/manifest.hpp"
#include "cosim/rack_cosim.hpp"
#include "cosim/report_fields.hpp"
#include "obs/obs.hpp"
#include "scenario/result_sink.hpp"
#include "sim/table.hpp"

namespace {

using namespace photorack;

void print_usage(std::ostream& os) {
  os << "usage: photorack_cosim [options]\n"
        "\n"
        "options:\n"
        "  --policy static|disagg  allocation policy (default: disagg)\n"
        "  --rate <R>              job arrivals per ms (default: 4)\n"
        "  --duration-ms <D>       mean job duration in ms (default: 20)\n"
        "  --horizon-ms <H>        arrival horizon in ms (default: 400)\n"
        "  --seed <S>              base seed (default: 7)\n"
        "  --mcms <N>              co-sim fabric endpoints (default: 24)\n"
        "  --traffic-scale <X>     scale on per-flow demand (default: 1)\n"
        "  --open-loop             disable contention feedback (no stretch)\n"
        "  --arrival <process>     arrival process: poisson|mmpp|diurnal|trace\n"
        "                          (shape knobs: --set cosim.arrival.*)\n"
        "  --queue [cap]           FIFO-queue unplaceable jobs instead of\n"
        "                          dropping (optional backlog cap, default 64)\n"
        "  --racks <N>             cluster mode: N rack event domains run in\n"
        "                          parallel under barrier synchronization\n"
        "  --spill none|next|least cluster mode: where overflow jobs go\n"
        "                          (interconnect knobs: --set cluster.*)\n"
        "  --faults                arm the seed-derived fault timeline\n"
        "                          (rates/policy via --set fault.*)\n"
        "  --ml                    admit ML training jobs (collective-gated\n"
        "                          steps; shape knobs: --set ml.*)\n"
        "  --collective <P>        ML collective pattern, implies --ml:\n"
        "                          ring|alltoall|ps|broadcast\n"
        "  --mtbf-ms <M>           arm faults with MCM and node MTBF = M ms\n"
        "  --resilience <P>        victim policy: kill|requeue|degrade\n"
        "  --set <path>=<value>    set any registered cosim/net/rack/obs knob\n"
        "                          (repeatable; photorack_sweep --params lists)\n"
        "  --manifest <file>       write the resolved config tree as JSON\n"
        "  --trace <file>          record a Chrome-trace-event timeline (sim-time\n"
        "                          keyed; open in Perfetto / chrome://tracing;\n"
        "                          ring mode via --set obs.trace.ring=N)\n"
        "  --metrics <file>        write sampled time-series metrics rows\n"
        "                          (.jsonl for JSON lines, anything else CSV;\n"
        "                          period via --set obs.metrics.interval_ms=T)\n"
        "  --profile               print the wall-clock self-profile table\n"
        "  --quiet                 print only the one-line summary\n"
        "  --help                  this message\n"
        "\n"
        "Any cluster knob (--racks, --spill or --set cluster.*) selects cluster\n"
        "mode, with 4 racks unless cluster.racks is set.\n";
}

/// The flags that are sugar for registry paths: each row sets `path` to a
/// fixed value, or to the flag's argument where the value is kArg.  A flag
/// with several rows sets them in table order.
constexpr const char* kArg = nullptr;

struct FlagPath {
  const char* flag;
  const char* path;
  const char* value;
};

constexpr FlagPath kFlagTable[] = {
    {"--rate", "cosim.arrivals_per_ms", kArg},
    {"--duration-ms", "cosim.duration_ms", kArg},
    {"--horizon-ms", "cosim.horizon_ms", kArg},
    {"--seed", "cosim.seed", kArg},
    {"--mcms", "net.mcms", kArg},
    {"--traffic-scale", "cosim.traffic_scale", kArg},
    {"--open-loop", "cosim.contention_feedback", "open"},
    {"--arrival", "cosim.arrival.process", kArg},
    {"--racks", "cluster.racks", kArg},
    {"--spill", "cluster.spill", kArg},
    {"--faults", "fault.enabled", "true"},
    {"--mtbf-ms", "fault.enabled", "true"},
    {"--mtbf-ms", "fault.mcm_mtbf_ms", kArg},
    {"--mtbf-ms", "fault.node_mtbf_ms", kArg},
    {"--ml", "ml.enabled", "true"},
    {"--collective", "ml.enabled", "true"},
    {"--collective", "ml.pattern", kArg},
    {"--resilience", "fault.policy", kArg},
};

/// kFlagTable's rows for `flag`, in table order; empty for any other flag.
std::vector<FlagPath> table_rows(const std::string& flag) {
  std::vector<FlagPath> rows;
  for (const FlagPath& row : kFlagTable)
    if (flag == row.flag) rows.push_back(row);
  return rows;
}

struct CliOptions {
  disagg::AllocationPolicy policy = disagg::AllocationPolicy::kDisaggregated;
  config::ConfigTree tree{config::registry()};
  std::string manifest_path;
  std::string trace_path;
  std::string metrics_path;
  bool profile_table = false;
  bool quiet = false;
};

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (const std::vector<FlagPath> rows = table_rows(arg); !rows.empty()) {
      const bool takes_arg = std::any_of(rows.begin(), rows.end(),
                                         [](const FlagPath& r) { return r.value == kArg; });
      const std::string v = takes_arg ? value(arg.c_str()) : "";
      // Errors name the flag the user typed, then the path behind it.
      try {
        for (const FlagPath& r : rows) opt.tree.set(r.path, r.value == kArg ? v : r.value);
      } catch (const std::exception& e) {
        throw std::invalid_argument(arg + ": " + e.what());
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--policy") {
      opt.policy = disagg::allocation_policy_codec().parse(value("--policy"));
    } else if (arg == "--queue") {
      opt.tree.set("cosim.admission", "queue");
      // Optional cap: consume the next token only when it looks like one.
      if (i + 1 < argc && argv[i + 1][0] != '-')
        opt.tree.set("cosim.queue_cap", argv[++i]);
    } else if (arg == "--set") {
      const std::string kv = value("--set");
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size())
        throw std::invalid_argument("--set wants path=value, got '" + kv + "'");
      opt.tree.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--manifest") {
      opt.manifest_path = value("--manifest");
    } else if (arg == "--trace") {
      opt.trace_path = value("--trace");
    } else if (arg == "--metrics") {
      opt.metrics_path = value("--metrics");
    } else if (arg == "--profile") {
      opt.profile_table = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  try {
    opt = parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "photorack_cosim: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    const cosim::CosimConfig cfg = config::cosim_config(opt.tree);
    const rack::RackConfig rack = opt.tree.build<rack::RackConfig>("rack");
    // Any cluster.* override (--racks, --spill, --set cluster.*) selects the
    // multi-rack cluster co-simulation.
    const auto& overrides = opt.tree.overrides();
    const bool cluster = std::any_of(overrides.begin(), overrides.end(), [](const auto& ov) {
      return ov.first.rfind("cluster.", 0) == 0;
    });

    // Observability: --trace/--metrics/--profile are sugar that force the
    // matching obs.* enable; the shape knobs (ring size, sample period)
    // stay addressable through --set obs.*.  A trace or metrics knob set
    // without the file to write it to would record the run and discard it.
    obs::ObsConfig obs_cfg = opt.tree.build<obs::ObsConfig>("obs");
    if (obs_cfg.trace_enabled && opt.trace_path.empty())
      throw std::invalid_argument("obs.trace.enabled=true needs --trace <file>");
    if (obs_cfg.metrics_enabled && opt.metrics_path.empty())
      throw std::invalid_argument("obs.metrics.enabled=true needs --metrics <file>");
    if (!opt.trace_path.empty()) obs_cfg.trace_enabled = true;
    if (!opt.metrics_path.empty()) obs_cfg.metrics_enabled = true;
    if (opt.profile_table) obs_cfg.profile_enabled = true;
    obs::ObsBundle obs_bundle(obs_cfg);

    // Cluster mode reuses the rack report printer on the aggregated total;
    // the cluster-only telemetry (spill, barriers, interconnect) is appended
    // below.  Observability attaches to rack 0 in cluster mode.
    cosim::CosimReport report;
    cluster::ClusterReport cluster_report;
    if (cluster) {
      const auto ccfg = opt.tree.build<cluster::ClusterConfig>("cluster");
      cluster_report = cluster::run_cluster_cosim(rack, opt.policy,
                                                  workloads::UsageModel::cori(),
                                                  ccfg, cfg, obs_bundle.handles());
      report = cluster_report.total;
    } else {
      report = cosim::run_rack_cosim(rack, opt.policy, workloads::UsageModel::cori(),
                                     cfg, obs_bundle.handles());
    }

    // The manifest describes a run that happened: a configuration rejected
    // at construction leaves no sidecar behind.
    if (!opt.manifest_path.empty()) {
      config::Manifest manifest;
      manifest.tool = "photorack_cosim";
      manifest.campaign = "cosim";
      // The policy is a CLI argument, not a registry knob — record it as a
      // free axis so two runs differing only in --policy differ here too.
      manifest.axes.emplace_back(
          "policy",
          std::vector<std::string>{disagg::allocation_policy_codec().name(opt.policy)});
      for (const auto& [path, v] : opt.tree.overrides())
        manifest.overrides.emplace_back(path, std::vector<std::string>{v});
      // Single-valued overrides resolve into the params map too.
      for (const auto& ov : manifest.overrides) manifest.axes.push_back(ov);
      std::ofstream out(opt.manifest_path);
      if (!out)
        throw std::runtime_error("cannot open " + opt.manifest_path);
      out << manifest.to_json(config::registry()) << "\n";
      out.flush();
      if (!out)
        throw std::runtime_error("error writing manifest file '" + opt.manifest_path + "'");
    }

    if (!opt.trace_path.empty())
      obs_bundle.trace()->write_json_file(opt.trace_path);

    if (!opt.metrics_path.empty()) {
      std::ofstream out(opt.metrics_path, std::ios::binary);
      if (!out)
        throw std::runtime_error("cannot open metrics file '" + opt.metrics_path +
                                 "' for writing");
      // The writers of every campaign artifact: .jsonl gets JSON lines,
      // anything else RFC-4180 CSV.
      std::vector<scenario::ResultRow> rows;
      for (auto& cells : obs_bundle.metrics()->string_rows())
        rows.push_back({std::move(cells)});
      const auto columns = obs_bundle.metrics()->columns();
      if (opt.metrics_path.ends_with(".jsonl"))
        scenario::write_jsonl(out, columns, rows);
      else
        scenario::write_csv(out, columns, rows);
      out.flush();
      if (!out)
        throw std::runtime_error("error writing metrics file '" + opt.metrics_path +
                                 "'");
    }

    if (!opt.quiet) {
      // One row per report field, labelled "name (unit)"; the fault and ML
      // sections only when those subsystems ran.
      sim::Table table({"metric", "value"});
      for (const cosim::ReportField& f : cosim::report_fields()) {
        if ((f.section == "fault" && !report.fault.enabled) ||
            (f.section == "ml" && !report.ml.enabled))
          continue;
        const double v = f.get(report);
        table.add_row({std::string(f.name) + " (" + std::string(f.unit) + ")",
                       f.unit == "count"  ? sim::fmt_int(static_cast<long long>(v))
                       : f.unit == "frac" ? sim::fmt_pct(v)
                                          : sim::fmt_fixed(v, 3)});
      }
      if (cluster) {
        table.add_row({"racks",
                       sim::fmt_int(static_cast<long long>(cluster_report.racks.size()))});
        std::string acceptance;
        for (const auto& rr : cluster_report.racks) {
          if (!acceptance.empty()) acceptance += " / ";
          acceptance += sim::fmt_pct(rr.jobs.acceptance());
        }
        table.add_row({"per-rack acceptance", acceptance});
        table.add_row({"spilled (failed)",
                       sim::fmt_int(static_cast<long long>(cluster_report.spilled)) +
                           " (" +
                           sim::fmt_int(static_cast<long long>(cluster_report.spill_failed)) +
                           ")"});
        table.add_row({"sync barriers",
                       sim::fmt_int(static_cast<long long>(cluster_report.barriers))});
        table.add_row({"interconnect power (kW)",
                       sim::fmt_fixed(cluster_report.interconnect_power_w / 1e3, 2)});
        table.add_row({"interconnect utilization",
                       sim::fmt_pct(cluster_report.interconnect_utilization)});
      }
      if (obs_bundle.trace())
        table.add_row(
            {"trace events (dropped)",
             sim::fmt_int(static_cast<long long>(obs_bundle.trace()->recorded())) +
                 " (" +
                 sim::fmt_int(static_cast<long long>(obs_bundle.trace()->dropped())) +
                 ")"});
      if (obs_bundle.metrics())
        table.add_row({"metrics rows sampled",
                       sim::fmt_int(static_cast<long long>(
                           obs_bundle.metrics()->rows().size()))});
      table.print(std::cout);
    }

    if (obs_bundle.profiler()) {
      sim::Table prof({"scope", "count", "ns/op", "ops/s"});
      for (const auto& e : obs_bundle.profiler()->entries()) {
        if (e.count == 0) continue;
        prof.add_row({e.name, sim::fmt_int(static_cast<long long>(e.count)),
                      sim::fmt_fixed(e.ns_per_op(), 1),
                      sim::fmt_fixed(e.items_per_sec(), 0)});
      }
      std::cout << "\nself-profile (wall clock; observation only, never fed back):\n";
      prof.print(std::cout);
    }

    std::cerr << "photorack_cosim: " << report.jobs.offered << " jobs offered, "
              << report.jobs.accepted << " accepted, ";
    if (cluster)
      std::cerr << cluster_report.racks.size() << " racks, "
                << cluster_report.spilled << " spilled, ";
    std::cerr << "mean stretch " << sim::fmt_fixed(report.mean_stretch, 3) << ", "
              << sim::fmt_fixed(report.energy_joules / 1e3, 1) << " kJ over "
              << sim::fmt_fixed(sim::to_s(report.completed_at) * 1e3, 1) << " ms\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "photorack_cosim: " << e.what() << "\n";
    return 1;
  }
}
