// Reproduces §VI-A: the AWGR design's bandwidth sufficiency.
//  - static analysis: demand quantiles vs the 25 Gb/s wavelength and the
//    125 Gb/s direct budget; the GPU/HBM escape-bandwidth budget;
//  - dynamic flow-level simulation: Cori-like CPU<->DDR4 demands routed
//    over the six parallel AWGRs with Valiant indirect routing.
#include <iostream>

#include "core/rack_system.hpp"
#include "core/report.hpp"
#include "net/flow_sim.hpp"
#include "sim/table.hpp"
#include "workloads/usage.hpp"

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "AWGR bandwidth sufficiency", "Section VI-A");

  core::RackSystem system(rack::FabricKind::kParallelAwgrs);
  const auto& plan = system.design().awgr;
  const auto demand = workloads::FlowDemandModel::cpu_memory();

  std::cout << "Static analysis:\n";
  sim::Table st({"Quantity", "Value"});
  st.add_row({"direct pair bandwidth",
              sim::fmt_fixed(plan.direct_pair_bandwidth.value, 0) + " Gb/s"});
  st.add_row({"demand P(x <= 25 Gb/s)  [paper: 97%]",
              sim::fmt_pct(0.97, 1) + " by construction"});
  st.add_row({"demand quantile 97%", sim::fmt_fixed(demand.quantile(0.97), 1) + " Gb/s"});
  st.add_row({"demand quantile 99.5%", sim::fmt_fixed(demand.quantile(0.995), 1) + " Gb/s"});
  st.print(std::cout);

  // GPU budget arithmetic of §VI-A, from the modelled MCM escape and the
  // GPUs' HBM and NVLink demands rather than the paper's
  // "125 x 512 = 8000 GB/s" line.
  const auto mcm_escape = system.design().mcm_plan.mcm.escape().value;  // GB/s
  const double hbm_need = 3 * 1555.2;   // three GPUs' HBM traffic per MCM
  const double nvlink_need = 3 * 300.0; // three GPUs' NVLink traffic per MCM
  std::cout << "\nGPU MCM budget (3 GPUs per MCM):\n";
  sim::Table gt({"Quantity", "GB/s"});
  gt.add_row({"MCM escape", sim::fmt_fixed(mcm_escape, 1)});
  gt.add_row({"HBM demand (3 GPUs)", sim::fmt_fixed(hbm_need, 1)});
  gt.add_row({"NVLink-replacement demand (3 GPUs)", sim::fmt_fixed(nvlink_need, 1)});
  gt.add_row({"headroom", sim::fmt_fixed(mcm_escape - hbm_need - nvlink_need, 1)});
  gt.print(std::cout);

  // Dynamic flow simulation over the fabric.
  auto fabric = system.make_fabric();
  net::FlowSimConfig cfg;
  cfg.arrivals_per_us = 3.0;
  cfg.sim_time = 300 * sim::kPsPerUs;
  sim::Rng pair_rng(99);
  const int mcms = fabric.mcms();
  net::FlowGenerator gen = [&, mcms](sim::Rng& rng) {
    net::FlowSpec spec;
    spec.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(mcms)));
    do {
      spec.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(mcms)));
    } while (spec.dst == spec.src);
    spec.gbps = demand.sample_gbps(rng);
    spec.duration = static_cast<sim::TimePs>(rng.exponential(20.0 * sim::kPsPerUs));
    return spec;
  };
  net::FlowSimulator flow_sim(fabric, gen, cfg);
  const auto report = flow_sim.run();

  std::cout << "\nFlow-level simulation (" << report.flows << " flows):\n";
  sim::Table ft({"Metric", "Value"});
  ft.add_row({"satisfied bandwidth fraction", sim::fmt_pct(report.satisfied_fraction, 3)});
  ft.add_row({"fully satisfied flows",
              sim::fmt_pct(1.0 - report.blocking_probability(), 3)});
  ft.add_row({"direct fraction of satisfied bw", sim::fmt_pct(report.direct_fraction, 2)});
  ft.add_row({"indirect fraction", sim::fmt_pct(report.indirect_fraction, 2)});
  ft.add_row({"stale-view mispicks", sim::fmt_int(static_cast<long long>(report.stale_mispicks))});
  ft.add_row({"second-hop repairs", sim::fmt_int(static_cast<long long>(report.second_hops))});
  ft.add_row({"mean intermediates per flow", sim::fmt_fixed(report.mean_intermediates, 3)});
  ft.add_row({"peak fabric utilization", sim::fmt_pct(report.peak_utilization, 2)});
  ft.print(std::cout);

  std::cout << "\npaper-vs-measured:\n";
  core::check_line(std::cout, "97% of demands fit one 25 Gb/s wavelength", 25.0,
                   demand.quantile(0.97), 0.02);
  core::check_line(std::cout, "99.5% of demands fit the 125 Gb/s direct budget", 125.0,
                   demand.quantile(0.995), 0.02);
  core::check_line(std::cout, "blocked bandwidth ~ negligible", 1.0,
                   report.satisfied_fraction, 0.02);
  core::check_line(std::cout, "GPU MCM budget satisfied (headroom > 0)", 1.0,
                   (mcm_escape - hbm_need - nvlink_need) > 0 ? 1.0 : 0.0, 0.01);
  return 0;
}
