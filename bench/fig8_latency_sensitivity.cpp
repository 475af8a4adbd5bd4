// Reproduces Fig 8: slowdown for 25/30/35 ns of additional LLC<->memory
// latency (in-order and OOO).  The paper's observation: dropping 35 ns to
// 25 ns roughly halves the slowdown.  Runs the "fig8" campaign on both cores.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 8: sensitivity to 25/30/35 ns",
                     "Fig 8 (Section VI-B2)");

  const auto& fig8 = scenario::campaign_by_name("fig8");
  const auto res = scenario::SweepRunner().run(
      fig8, fig8.default_grid().set("cpusim.core.kind", {"inorder", "ooo"}));

  const std::vector<std::pair<std::string, std::string>> groups = {
      {"PARSEC", "small"}, {"PARSEC", "medium"}, {"PARSEC", "large"},
      {"NAS", "A"},        {"NAS", "B"},         {"NAS", "C"},
      {"Rodinia", "default"}};
  for (const std::string kind : {"inorder", "ooo"}) {
    std::cout << (kind == "inorder" ? "\nIn-order cores:\n" : "\nOOO cores:\n");
    sim::Table table({"Suite", "Input", "+25 ns", "+30 ns", "+35 ns"});
    for (const auto& [suite, input] : groups) {
      const auto mean_at = [&](const char* extra) {
        return sim::fmt_pct(res.mean(
            "slowdown",
            {{"suite", suite}, {"input", input}, {"core", kind}, {"extra_ns", extra}}));
      };
      table.add_row({suite, input, mean_at("25"), mean_at("30"), mean_at("35")});
    }
    table.print(std::cout);
  }

  const auto overall = [&res](const char* kind, const char* extra) {
    return res.mean("slowdown", {{"core", kind}, {"extra_ns", extra}});
  };
  std::cout << "\npaper-vs-measured (Section VI-B2: 25 ns cuts slowdown by ~half):\n";
  core::check_line(std::cout, "in-order slowdown ratio 25ns/35ns", 0.5,
                   overall("inorder", "25") / overall("inorder", "35"), 0.6);
  core::check_line(std::cout, "OOO slowdown ratio 25ns/35ns", 0.5,
                   overall("ooo", "25") / overall("ooo", "35"), 0.6);
  return 0;
}
