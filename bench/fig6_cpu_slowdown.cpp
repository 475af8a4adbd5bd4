// Reproduces Fig 6: average and maximum slowdown per benchmark suite and
// input size for +35 ns of LLC<->memory latency, in-order and OOO cores.
// Thin wrapper over the scenario engine's "fig6" campaign — the same sweep
// `photorack_sweep --campaign fig6` runs; this binary only adds the suite
// summary table and the paper-vs-measured checks.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 6: CPU slowdown at +35 ns", "Fig 6 (Section VI-B1)");

  const auto& campaign = scenario::campaign_by_name("fig6");
  std::cout << "Per-scenario results (+35 ns):\n";
  const auto res = scenario::SweepRunner().run(campaign);
  scenario::print_table(std::cout, res.columns, res.rows);

  sim::Table table({"Suite", "Input", "avg in-order", "max in-order", "avg OOO", "max OOO"});
  const std::vector<std::pair<std::string, std::string>> groups = {
      {"PARSEC", "small"}, {"PARSEC", "medium"}, {"PARSEC", "large"},
      {"NAS", "A"},        {"NAS", "B"},         {"NAS", "C"},
      {"Rodinia", "default"}};
  for (const auto& [suite, input] : groups) {
    const scenario::SweepResult::Filter io = {
        {"suite", suite}, {"input", input}, {"core", "inorder"}};
    const scenario::SweepResult::Filter ooo = {
        {"suite", suite}, {"input", input}, {"core", "ooo"}};
    table.add_row({suite, input, sim::fmt_pct(res.mean("slowdown", io)),
                   sim::fmt_pct(res.max("slowdown", io)),
                   sim::fmt_pct(res.mean("slowdown", ooo)),
                   sim::fmt_pct(res.max("slowdown", ooo))});
  }
  std::cout << "\nSuite summary:\n";
  table.print(std::cout);

  const auto slowdown_of = [&res](const char* bench, const char* core) {
    return res.num(res.find({{"bench", bench}, {"core", core}}), "slowdown");
  };

  std::cout << "\npaper-vs-measured (Fig 6 and Section VI-B1 text):\n";
  core::check_line(std::cout, "overall avg slowdown, in-order", 0.15,
                   res.mean("slowdown", {{"core", "inorder"}}));
  core::check_line(std::cout, "overall avg slowdown, OOO", 0.22,
                   res.mean("slowdown", {{"core", "ooo"}}));
  core::check_line(std::cout, "NAS avg slowdown ~0 (in-order)", 0.01,
                   res.mean("slowdown", {{"suite", "NAS"}, {"core", "inorder"}}), 3.0);
  core::check_line(std::cout, "Rodinia avg slowdown (in-order)", 0.16,
                   res.mean("slowdown", {{"suite", "Rodinia"}, {"core", "inorder"}}));
  core::check_line(
      std::cout, "PARSEC-large avg (in-order)", 0.23,
      res.mean("slowdown", {{"suite", "PARSEC"}, {"input", "large"}, {"core", "inorder"}}));
  core::check_line(
      std::cout, "PARSEC-large avg (OOO)", 0.41,
      res.mean("slowdown", {{"suite", "PARSEC"}, {"input", "large"}, {"core", "ooo"}}));
  core::check_line(std::cout, "worst benchmark NW (in-order)", 0.79,
                   slowdown_of("Rodinia/nw/default", "inorder"));
  core::check_line(std::cout, "worst benchmark NW (OOO)", 0.55,
                   slowdown_of("Rodinia/nw/default", "ooo"), 1.0);
  core::check_line(std::cout, "streamcluster-large slowdown (in-order)", 0.57,
                   slowdown_of("PARSEC/streamcluster/large", "inorder"));
  core::check_line(
      std::cout, "streamcluster-large LLC miss rate > 60%", 0.60,
      res.num(res.find({{"bench", "PARSEC/streamcluster/large"}, {"core", "inorder"}}),
              "llc_miss_rate"));
  core::check_line(
      std::cout, "streamcluster-medium LLC miss rate < 0.5%", 0.005,
      res.num(res.find({{"bench", "PARSEC/streamcluster/medium"}, {"core", "inorder"}}),
              "llc_miss_rate"),
      3.0);
  return 0;
}
