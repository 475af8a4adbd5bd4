// Reproduces Fig 11: latency tolerance of in-order CPUs, OOO CPUs and GPUs
// on the Rodinia benchmarks that run on both (GPUs tolerate +35 ns best,
// max ~12%).  Reads the "fig6" campaign and the "fig9" campaign at +35 ns.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "workloads/cpu_profiles.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 11: CPU vs GPU latency tolerance (Rodinia)",
                     "Fig 11 (Section VI-B4)");

  const auto names = workloads::rodinia_cpu_gpu_intersection();
  std::vector<std::string> benches;
  for (const auto& name : names) benches.push_back("Rodinia/" + name + "/default");

  const auto& fig6 = scenario::campaign_by_name("fig6");
  const auto cpu = scenario::SweepRunner().run(fig6, fig6.default_grid().set("bench", benches));
  const auto& fig9 = scenario::campaign_by_name("fig9");
  const auto gpu =
      scenario::SweepRunner().run(fig9, fig9.default_grid().set("gpusim.extra_hbm_ns", {"35"}));

  std::vector<double> gpus;
  sim::Table table({"Benchmark", "in-order CPU", "OOO CPU", "GPU"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto cpu_slowdown = [&](const char* kind) {
      return cpu.num(cpu.find({{"bench", benches[i]}, {"core", kind}}), "slowdown");
    };
    const double g = gpu.num(gpu.find({{"app", names[i]}}), "slowdown");
    table.add_row({names[i], sim::fmt_pct(cpu_slowdown("inorder")),
                   sim::fmt_pct(cpu_slowdown("ooo")), sim::fmt_pct(g)});
    gpus.push_back(g);
  }
  table.print(std::cout);

  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "max GPU slowdown on shared Rodinia set", 0.12,
                   sim::max_of(gpus));
  std::cout << "shape check: every GPU slowdown should sit well below the "
               "CPU slowdowns for memory-bound benchmarks (nw, bfs).\n";
  return 0;
}
