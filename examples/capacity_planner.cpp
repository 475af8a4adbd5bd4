// Capacity planner: given production-style usage distributions, compare a
// static-node rack with a disaggregated rack on the same job stream, then
// print the iso-performance provisioning plan (Section VI-E).
#include <iostream>

#include "cosim/rack_cosim.hpp"
#include "disagg/iso_perf.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  const auto usage = workloads::UsageModel::cori();
  const rack::RackConfig rack_cfg;

  // Open loop: flows still occupy the fabric, but contention never stretches
  // a job, so the comparison isolates the allocation policy.
  cosim::CosimConfig cfg;
  cfg.contention_feedback = false;
  cfg.sim_time = 2000 * sim::kPsPerMs;
  cfg.max_job_nodes = 16;
  const auto static_report =
      cosim::run_rack_cosim(rack_cfg, disagg::AllocationPolicy::kStaticNodes, usage, cfg)
          .jobs;
  const auto disagg_report =
      cosim::run_rack_cosim(rack_cfg, disagg::AllocationPolicy::kDisaggregated, usage, cfg)
          .jobs;

  std::cout << "job-stream comparison (" << static_report.offered << " jobs offered)\n";
  sim::Table table({"Metric", "Static nodes", "Disaggregated"});
  table.add_row({"acceptance", sim::fmt_pct(static_report.acceptance()),
                 sim::fmt_pct(disagg_report.acceptance())});
  table.add_row({"mean CPU utilization", sim::fmt_pct(static_report.mean_cpu_utilization),
                 sim::fmt_pct(disagg_report.mean_cpu_utilization)});
  table.add_row({"mean memory utilization",
                 sim::fmt_pct(static_report.mean_memory_utilization),
                 sim::fmt_pct(disagg_report.mean_memory_utilization)});
  table.add_row({"marooned CPUs", sim::fmt_pct(static_report.mean_marooned_cpu), "0%"});
  table.add_row(
      {"marooned memory", sim::fmt_pct(static_report.mean_marooned_memory), "0%"});
  table.print(std::cout);

  const auto iso = disagg::iso_performance();
  std::cout << "\niso-performance plan (Section VI-E):\n";
  sim::Table it({"Modules", "Baseline", "Disaggregated"});
  it.add_row({"CPUs", sim::fmt_int(iso.baseline.cpus), sim::fmt_int(iso.disaggregated.cpus)});
  it.add_row(
      {"GPUs", sim::fmt_int(iso.baseline.gpus), sim::fmt_int(iso.disaggregated.gpus)});
  it.add_row(
      {"DDR4", sim::fmt_int(iso.baseline.ddr4), sim::fmt_int(iso.disaggregated.ddr4)});
  it.add_row(
      {"NICs", sim::fmt_int(iso.baseline.nics), sim::fmt_int(iso.disaggregated.nics)});
  it.add_row({"Total", sim::fmt_int(iso.baseline.total()),
              sim::fmt_int(iso.disaggregated.total())});
  it.print(std::cout);
  std::cout << "module reduction: " << sim::fmt_pct(iso.reduction_fraction)
            << " (paper: ~44%)\n";

  const double mem_reduction = disagg::derive_memory_reduction(usage);
  std::cout << "usage-derived memory reduction at rack p99: "
            << sim::fmt_fixed(mem_reduction, 1) << "x\n";
  return 0;
}
