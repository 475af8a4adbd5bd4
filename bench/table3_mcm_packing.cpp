// Reproduces Table III: chips per MCM and MCMs per rack for the
// Perlmutter-like 128-node rack, under the 32-fiber x 64-wavelength x
// 25 Gb/s MCM escape budget.  Thin wrapper over the scenario engine's
// "table3" campaign (same sweep as `photorack_sweep --campaign table3`;
// override the geometry axes with --set fibers=... to explore variants).
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Table III: MCM packing", "Table III (Section V-A)");

  const auto& campaign = scenario::campaign_by_name("table3");
  const auto res = scenario::SweepRunner().run(campaign);
  scenario::print_table(std::cout, res.columns, res.rows);

  std::cout << "\npaper-vs-measured (paper values from Table III):\n";
  const struct {
    const char* chip;
    int chips, mcms;
  } expect[] = {
      {"CPU", 14, 10}, {"GPU", 3, 171}, {"NIC", 203, 3}, {"HBM", 4, 128}, {"DDR4", 27, 38},
  };
  for (const auto& e : expect) {
    const auto& row = res.find({{"chip", e.chip}});
    core::check_line(std::cout, std::string(e.chip) + " chips/MCM", e.chips,
                     res.num(row, "chips_per_mcm"), 0.01);
    core::check_line(std::cout, std::string(e.chip) + " MCMs/rack", e.mcms,
                     res.num(row, "mcm_count"), 0.01);
  }
  core::check_line(std::cout, "total MCMs", 350, res.num(res.rows.front(), "total_mcms"),
                   0.01);
  return 0;
}
