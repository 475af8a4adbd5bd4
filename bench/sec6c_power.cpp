// Reproduces §VI-C: the photonic fabric costs ~11 kW per rack — about 5%
// of the rack's compute power.  Thin wrapper over the scenario engine's
// "sec6c" campaign (same sweep as `photorack_sweep --campaign sec6c`).
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Photonic power overhead", "Section VI-C");

  const auto& campaign = scenario::campaign_by_name("sec6c");
  const auto res = scenario::SweepRunner().run(campaign);
  scenario::print_table(std::cout, res.columns, res.rows);

  const auto& row = res.find({{"fabric", "awgr"}});
  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "photonic power (kW)", 11.0, res.num(row, "total_w") / 1000.0,
                   0.15);
  core::check_line(std::cout, "overhead vs rack (~5%)", 0.05, res.num(row, "overhead"),
                   0.15);
  return 0;
}
