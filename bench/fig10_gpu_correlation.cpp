// Reproduces Fig 10: GPU slowdown at +35 ns correlates with (i) the LLC
// (L2) miss rate (r ~ 0.87) and (ii) HBM transactions per instruction
// (r ~ 0.79), but not with the memory-instruction fraction.  Reads the
// "fig9" campaign at +35 ns.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 10: GPU slowdown correlates",
                     "Fig 10 (Section VI-B3)");

  const auto& fig9 = scenario::campaign_by_name("fig9");
  const auto res =
      scenario::SweepRunner().run(fig9, fig9.default_grid().set("gpusim.extra_hbm_ns", {"35"}));

  sim::Table table({"App", "Slowdown +35ns", "L2 missrate", "HBM txn/instr",
                    "mem instr frac"});
  for (const auto& row : res.rows) {
    table.add_row({res.cell(row, "app"), sim::fmt_pct(res.num(row, "slowdown")),
                   sim::fmt_pct(res.num(row, "l2_miss_rate")),
                   sim::fmt_fixed(res.num(row, "hbm_txn_per_instr"), 3),
                   sim::fmt_pct(res.num(row, "mem_instr_fraction"))});
  }
  table.print(std::cout);

  const auto slowdown = res.values("slowdown");
  const double r_miss = sim::pearson(slowdown, res.values("l2_miss_rate"));
  const double r_txn = sim::pearson(slowdown, res.values("hbm_txn_per_instr"));
  const double r_memfrac = sim::pearson(slowdown, res.values("mem_instr_fraction"));

  std::cout << "\npaper-vs-measured Pearson correlations:\n";
  core::check_line(std::cout, "slowdown vs LLC miss rate", 0.87, r_miss);
  core::check_line(std::cout, "slowdown vs HBM txn/instr", 0.79, r_txn);
  std::cout << "slowdown vs mem-instr fraction (paper: no significant "
               "correlation): r = "
            << r_memfrac << '\n';
  return 0;
}
