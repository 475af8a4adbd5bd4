// photorack_sweep — declarative design-space sweeps over the paper's models.
//
//   photorack_sweep --list
//   photorack_sweep --params
//   photorack_sweep --campaign fig6 [--jobs N] [--seed S] [--out dir/]
//                   [--set path=v1,v2,...] [--quiet]
//
// Campaigns are named presets reproducing the paper's figures/tables.
// --set addresses ANY knob: a campaign grid axis (e.g. bench=...), or any
// parameter path from the config registry (--params lists them all) — e.g.
// `--set net.gbps_per_wavelength=32` or `--set cpusim.llc.size_bytes=...` —
// whether or not the campaign sweeps it.  Unknown paths are rejected with
// near-miss suggestions; out-of-range values are rejected before anything
// runs.  With --out, the sweep writes <dir>/<campaign>.sweep.csv,
// <dir>/<campaign>.jsonl and the <dir>/<campaign>.manifest.json sidecar
// (campaign id + seeds + full resolved parameter tree); rows are emitted in
// grid order, so output is byte-identical for every --jobs level and the
// same seed.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "config/bindings.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/table.hpp"

namespace {

using namespace photorack;

void print_usage(std::ostream& os) {
  os << "usage: photorack_sweep --campaign <name> [options]\n"
        "       photorack_sweep --list | --params\n"
        "\n"
        "options:\n"
        "  --campaign <name>      campaign to run (see --list)\n"
        "  --list                 list campaigns and their default grids\n"
        "  --params               list every registered parameter path\n"
        "                         (path, type, default, range, doc)\n"
        "  --jobs <N>             worker threads (default: hardware concurrency;\n"
        "                         results are identical for every value)\n"
        "  --seed <S>             base seed; 0 (default) keeps the workloads'\n"
        "                         registry seeds and reproduces the paper; only\n"
        "                         fig6, fig8 and the co-sim campaigns read it\n"
        "  --out <dir>            write <dir>/<campaign>.sweep.csv, .jsonl and\n"
        "                         the .manifest.json sidecar\n"
        "  --set <path>=<v1,v2>   override a grid axis or ANY registered\n"
        "                         parameter (repeatable; see --params)\n"
        "  --quiet                suppress the stdout table\n"
        "  --help                 this message\n";
}

void print_campaign_list(std::ostream& os) {
  os << "campaigns:\n";
  for (const auto& campaign : scenario::campaigns()) {
    const auto grid = campaign.default_grid();
    os << "  " << campaign.name << " — " << campaign.description << " ["
       << campaign.paper_ref << "], " << grid.size() << " scenarios\n";
    for (const auto& axis : grid.axes()) {
      os << "      " << axis.name << " = ";
      if (axis.values.size() > 6) {
        os << axis.values.front() << " ... " << axis.values.back() << " ("
           << axis.values.size() << " values)";
      } else {
        for (std::size_t i = 0; i < axis.values.size(); ++i)
          os << (i ? "," : "") << axis.values[i];
      }
      os << "\n";
    }
  }
}

void print_params(std::ostream& os) {
  sim::Table table({"path", "type", "default", "range", "doc"});
  for (const auto& section : config::registry().sections())
    for (const auto& p : section->params())
      table.add_row({p.path, p.type, p.default_value, p.range, p.doc});
  table.print(os);
  os << "\nEvery path is `--set`-able on any campaign, swept when given\n"
        "several comma-separated values, and recorded in the run manifest.\n";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

struct CliOptions {
  std::string campaign;
  bool list = false;
  bool params = false;
  bool quiet = false;
  std::size_t jobs = 0;
  std::uint64_t seed = 0;
  std::string out_dir;
  std::vector<std::pair<std::string, std::vector<std::string>>> overrides;
};

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--params") {
      opt.params = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--campaign") {
      opt.campaign = value("--campaign");
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<std::size_t>(config::parse_uint64(value("--jobs")));
    } else if (arg == "--seed") {
      opt.seed = config::parse_uint64(value("--seed"));
    } else if (arg == "--out") {
      opt.out_dir = value("--out");
    } else if (arg == "--set") {
      const std::string kv = value("--set");
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size())
        throw std::invalid_argument("--set wants path=v1,v2,... got '" + kv + "'");
      opt.overrides.emplace_back(kv.substr(0, eq), split_csv(kv.substr(eq + 1)));
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
    std::cerr << "photorack_sweep: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  }

  if (opt.list) {
    print_campaign_list(std::cout);
    return 0;
  }
  if (opt.params) {
    print_params(std::cout);
    return 0;
  }
  if (opt.campaign.empty()) {
    std::cerr << "photorack_sweep: --campaign (or --list / --params) is required\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    const auto& campaign = scenario::campaign_by_name(opt.campaign);
    scenario::SweepGrid grid = campaign.default_grid();
    for (auto& [path, values] : opt.overrides)
      grid.override_axis(path, std::move(values));

    // Open the --out files before the sweep, so a bad path fails before a
    // long run; write them after it.
    std::ofstream csv_file, jsonl_file;
    std::filesystem::path csv_path, jsonl_path, manifest_path;
    if (!opt.out_dir.empty()) {
      const std::filesystem::path dir(opt.out_dir);
      std::filesystem::create_directories(dir);
      csv_path = dir / (campaign.name + ".sweep.csv");
      jsonl_path = dir / (campaign.name + ".jsonl");
      manifest_path = dir / (campaign.name + ".manifest.json");
      csv_file.open(csv_path);
      jsonl_file.open(jsonl_path);
      if (!csv_file || !jsonl_file)
        throw std::runtime_error("cannot open output files under " + opt.out_dir);
    }

    const scenario::SweepRunner runner({.jobs = opt.jobs, .base_seed = opt.seed});
    const auto result = runner.run(campaign, grid);
    if (!opt.quiet) scenario::print_table(std::cout, result.columns, result.rows);

    // A failed write (disk full, file deleted, quota) leaves the stream in a
    // failed state but does not throw — check explicitly so a truncated
    // artifact is a loud error, never a silently short file.
    const auto finish = [](std::ofstream& file, const std::filesystem::path& path) {
      file.flush();
      if (!file)
        throw std::runtime_error("error writing " + path.string() + " (output truncated)");
    };
    if (!opt.out_dir.empty()) {
      scenario::write_csv(csv_file, result.columns, result.rows, result.manifest_json);
      finish(csv_file, csv_path);
      scenario::write_jsonl(jsonl_file, result.columns, result.rows, result.manifest_json);
      finish(jsonl_file, jsonl_path);
      std::ofstream manifest_file(manifest_path);
      if (!manifest_file)
        throw std::runtime_error("cannot open " + manifest_path.string());
      manifest_file << result.manifest_json << "\n";
      finish(manifest_file, manifest_path);
    }

    std::cerr << "photorack_sweep: campaign " << campaign.name << " [" << campaign.paper_ref
              << "]: " << grid.size() << " scenarios, " << result.rows.size()
              << " rows, seed " << opt.seed;
    if (!opt.out_dir.empty())
      std::cerr << ", wrote " << csv_path.string() << ", " << jsonl_path.string()
                << " and " << manifest_path.string();
    std::cerr << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "photorack_sweep: " << e.what() << "\n";
    return 1;
  }
}
