// Reproduces §VI-E: the iso-performance comparison.  Preserving the
// baseline rack's computational throughput, the disaggregated rack needs
// +15% CPUs and +6% GPUs but 4x fewer DDR4 modules and 2x fewer NICs:
// 1075 modules vs 1920, a ~44% reduction.  The make-up factors are the mean
// slowdowns of the "fig6" campaign (in-order) and the "fig9" one at +35 ns.
#include <iostream>

#include "core/report.hpp"
#include "disagg/iso_perf.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/table.hpp"
#include "workloads/usage.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Iso-performance module counts", "Section VI-E");

  const auto& fig6 = scenario::campaign_by_name("fig6");
  const auto& fig9 = scenario::campaign_by_name("fig9");
  disagg::IsoPerfInputs inputs;
  inputs.cpu_slowdown =
      scenario::SweepRunner()
          .run(fig6, fig6.default_grid().set("cpusim.core.kind", {"inorder"}))
          .mean("slowdown");
  inputs.gpu_slowdown =
      scenario::SweepRunner()
          .run(fig9, fig9.default_grid().set("gpusim.extra_hbm_ns", {"35"}))
          .mean("slowdown");
  const auto result = disagg::iso_performance({}, inputs);

  std::cout << "make-up factors measured here: CPU +" << sim::fmt_pct(inputs.cpu_slowdown)
            << " (paper +15%), GPU +" << sim::fmt_pct(inputs.gpu_slowdown)
            << " (paper +6%)\n\n";

  sim::Table table({"Modules", "Baseline", "Disaggregated"});
  table.add_row({"CPUs", sim::fmt_int(result.baseline.cpus),
                 sim::fmt_int(result.disaggregated.cpus)});
  table.add_row({"GPUs (HBM co-packaged)", sim::fmt_int(result.baseline.gpus),
                 sim::fmt_int(result.disaggregated.gpus)});
  table.add_row({"DDR4 DIMMs", sim::fmt_int(result.baseline.ddr4),
                 sim::fmt_int(result.disaggregated.ddr4)});
  table.add_row({"NICs", sim::fmt_int(result.baseline.nics),
                 sim::fmt_int(result.disaggregated.nics)});
  table.add_row({"Total", sim::fmt_int(result.baseline.total()),
                 sim::fmt_int(result.disaggregated.total())});
  table.print(std::cout);

  const double derived = disagg::derive_memory_reduction(workloads::UsageModel::cori());
  std::cout << "\nmemory reduction derivable from Cori-like usage at rack p99: "
            << sim::fmt_fixed(derived, 1) << "x (the paper's 4x from [15] is conservative)\n";
  std::cout << "alternative plan: keep all resources, add "
            << result.added_compute_modules << " compute modules (+"
            << sim::fmt_pct(result.added_chip_fraction)
            << " chips, paper ~7%) to double compute throughput\n";

  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "baseline modules", 1920, result.baseline.total(), 0.01);
  core::check_line(std::cout, "disaggregated modules", 1075,
                   result.disaggregated.total(), 0.05);
  core::check_line(std::cout, "module reduction", 0.44, result.reduction_fraction, 0.1);
  core::check_line(std::cout, "alternative plan chip increase", 0.07,
                   result.added_chip_fraction, 0.1);
  core::check_line(std::cout, "usage-derived memory reduction >= 4x", 4.0,
                   std::min(derived, 4.0), 0.05);
  return 0;
}
