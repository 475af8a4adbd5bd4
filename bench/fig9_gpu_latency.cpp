// Reproduces Fig 9: per-application GPU slowdown (total predicted cycles)
// for 25/30/35 ns of additional LLC<->HBM latency on an A100.  Thin wrapper
// over the scenario engine's "fig9" campaign (same sweep as
// `photorack_sweep --campaign fig9`) plus the paper-vs-measured checks.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"
#include "workloads/gpu_profiles.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 9: GPU slowdown at +25/30/35 ns",
                     "Fig 9 (Section VI-B3)");

  const auto& campaign = scenario::campaign_by_name("fig9");
  const auto res = scenario::SweepRunner().run(campaign);
  scenario::print_table(std::cout, res.columns, res.rows);

  std::cout << "\ntotal kernel launches modeled: "
            << workloads::total_gpu_kernel_launches() << " (paper: 1525)\n";

  std::cout << "\npaper-vs-measured (Section VI-B3):\n";
  core::check_line(std::cout, "average GPU slowdown at +35 ns", 0.0535,
                   res.mean("slowdown", {{"extra_ns", "35"}}));
  core::check_line(std::cout, "max GPU slowdown at +35 ns (Fig 11: ~12%)", 0.12,
                   res.max("slowdown", {{"extra_ns", "35"}}));
  core::check_line(std::cout, "kernel launches", 1525,
                   workloads::total_gpu_kernel_launches(), 0.01);
  return 0;
}
