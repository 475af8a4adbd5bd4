// Reproduces Fig 7: per-benchmark slowdown alongside LLC miss rate for
// PARSEC-large and Rodinia (in-order), with the Pearson correlation
// coefficients the paper reports (0.89 / 0.76 in-order; 0.75 / 0.93 OOO).
// Reads the "fig6" campaign's rows.
#include <iostream>

#include "core/report.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Fig 7: slowdown vs LLC miss rate",
                     "Fig 7 (Section VI-B1)");

  const auto res = scenario::SweepRunner().run(scenario::campaign_by_name("fig6"));

  const auto print_rows = [&res](const scenario::SweepResult::Filter& filter) {
    sim::Table table({"Benchmark", "Slowdown", "LLC miss rate"});
    for (const auto* row : res.where(filter)) {
      // "PARSEC/streamcluster/large" prints as "streamcluster/large".
      const std::string& bench = res.cell(*row, "bench");
      table.add_row({bench.substr(res.cell(*row, "suite").size() + 1),
                     sim::fmt_pct(res.num(*row, "slowdown")),
                     sim::fmt_pct(res.num(*row, "llc_miss_rate"))});
    }
    table.print(std::cout);
  };
  const auto pearson = [&res](const scenario::SweepResult::Filter& filter) {
    return sim::pearson(res.values("slowdown", filter), res.values("llc_miss_rate", filter));
  };

  std::cout << "PARSEC (large inputs), in-order:\n";
  print_rows({{"suite", "PARSEC"}, {"input", "large"}, {"core", "inorder"}});
  std::cout << "\nRodinia, in-order:\n";
  print_rows({{"suite", "Rodinia"}, {"core", "inorder"}});

  std::cout << "\npaper-vs-measured Pearson correlations:\n";
  core::check_line(std::cout, "PARSEC-large in-order r", 0.89,
                   pearson({{"suite", "PARSEC"}, {"input", "large"}, {"core", "inorder"}}));
  core::check_line(std::cout, "Rodinia in-order r", 0.76,
                   pearson({{"suite", "Rodinia"}, {"core", "inorder"}}));
  core::check_line(std::cout, "PARSEC all-inputs in-order r", 0.822,
                   pearson({{"suite", "PARSEC"}, {"core", "inorder"}}));
  core::check_line(std::cout, "PARSEC-large OOO r", 0.75,
                   pearson({{"suite", "PARSEC"}, {"input", "large"}, {"core", "ooo"}}));
  core::check_line(std::cout, "Rodinia OOO r", 0.93,
                   pearson({{"suite", "Rodinia"}, {"core", "ooo"}}));
  return 0;
}
