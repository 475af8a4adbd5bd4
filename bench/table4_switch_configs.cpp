// Reproduces Table IV (study switch configurations) and the §V-B fabric
// plans built from them: six parallel AWGRs with >=5 direct wavelengths per
// MCM pair, and eleven staggered 256-port spatial/WSS switches.
#include <iostream>

#include "core/report.hpp"
#include "phot/switches.hpp"
#include "rack/rack_builder.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Table IV: switch configurations for the rack study",
                     "Table IV + Section V-B");

  sim::Table table({"Switch type", "Radix", "Lambdas/port", "Gbps/lambda"});
  for (const auto& cfg : phot::table4_study_configs()) {
    table.add_row({cfg.name, sim::fmt_int(cfg.radix), sim::fmt_int(cfg.wavelengths_per_port),
                   sim::fmt_fixed(cfg.gbps_per_wavelength.value, 0)});
  }
  table.print(std::cout);

  const auto awgr_design = rack::build_rack_design(rack::FabricKind::kParallelAwgrs);
  const auto& ap = awgr_design.awgr;
  std::cout << "\nCase (A): parallel AWGRs (Fig 5)\n";
  sim::Table at({"Metric", "Value"});
  at.add_row({"parallel AWGRs", sim::fmt_int(ap.parallel_awgrs)});
  std::string lam;
  for (std::size_t i = 0; i < ap.lambdas_per_port.size(); ++i)
    lam += (i ? "+" : "") + std::to_string(ap.lambdas_per_port[i]);
  at.add_row({"lambdas per MCM per AWGR port", lam});
  at.add_row({"all-pairs-coverage AWGRs", sim::fmt_int(ap.full_coverage_awgrs)});
  at.add_row({"min direct lambdas per MCM pair", sim::fmt_int(ap.min_direct_lambdas_per_pair)});
  at.add_row({"direct pair bandwidth (Gb/s)",
              sim::fmt_fixed(ap.direct_pair_bandwidth.value, 0)});
  at.print(std::cout);

  const auto sp_design = rack::build_rack_design(rack::FabricKind::kSpatialOrWss);
  const auto& sp = sp_design.spatial;
  std::cout << "\nCase (B): staggered spatial/WSS switches\n";
  sim::Table st({"Metric", "Value"});
  st.add_row({"switches", sim::fmt_int(sp.switches)});
  st.add_row({"radix / lambdas per port",
              sim::fmt_int(sp.radix) + " / " + std::to_string(sp.wavelengths_per_port)});
  st.add_row({"fibers per MCM-switch connection", sim::fmt_int(sp.fibers_per_connection)});
  st.add_row({"max connections per MCM", sim::fmt_int(sp.max_connections_per_mcm)});
  st.add_row({"min direct paths per MCM pair", sim::fmt_int(sp.min_direct_paths_per_pair)});
  st.add_row({"avg direct paths per MCM pair",
              sim::fmt_fixed(sp.avg_direct_paths_per_pair, 2)});
  st.add_row({"direct pair bandwidth (Gb/s)",
              sim::fmt_fixed(sp.direct_pair_bandwidth.value, 0)});
  st.print(std::cout);

  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "parallel AWGRs", 6, ap.parallel_awgrs, 0.01);
  core::check_line(std::cout, "min direct lambdas per pair (>=5)", 5,
                   ap.min_direct_lambdas_per_pair, 0.25);
  core::check_line(std::cout, "AWGR direct bandwidth Gb/s", 125,
                   ap.direct_pair_bandwidth.value, 0.25);
  core::check_line(std::cout, "spatial/WSS switches", 11, sp.switches, 0.01);
  // One-sided: the paper claims *at least* three direct paths; exceeding it
  // is fine (our trimming heuristic keeps more overlap than required).
  core::check_line(std::cout, "min direct paths per pair (paper: >=3)", 3,
                   std::min(sp.min_direct_paths_per_pair, 3), 0.01);
  std::cout << "measured min direct paths per pair: " << sp.min_direct_paths_per_pair
            << " (>= the paper's 3)\n";
  std::cout << "note: the paper states 142 lambdas land on the 6th AWGR; "
               "consistent accounting of all 2048 escape wavelengths under "
               "the 370/port cap gives "
            << ap.lambdas_per_port.back()
            << ", the last count in the table's lambdas-per-port row.\n";
  return 0;
}
