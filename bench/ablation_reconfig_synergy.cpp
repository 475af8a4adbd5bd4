// Ablation (§IV-B / §VI-A1): on a reconfigurable spatial/WSS fabric, how
// much does indirect routing over already-configured circuits save in
// reconfigurations and setup latency — and how does the AWGR design, which
// needs neither scheduler nor reconfiguration, compare?
#include <iostream>

#include "core/rack_system.hpp"
#include "core/report.hpp"
#include "net/reconfig_router.hpp"
#include "net/routing.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"
#include "workloads/usage.hpp"

namespace {

using namespace photorack;

struct SpatialOutcome {
  std::uint64_t reconfigs = 0;
  std::uint64_t indirect = 0;
  double mean_setup_us = 0.0;
  double placed_fraction = 0.0;
};

SpatialOutcome run_spatial(bool use_indirect, int flows) {
  const auto plan = rack::build_rack_design(rack::FabricKind::kSpatialOrWss).spatial;
  net::CentralizedScheduler scheduler(plan);
  net::ReconfigRouter::Config cfg;
  cfg.use_indirect = use_indirect;
  net::ReconfigRouter router(plan, scheduler, cfg);

  sim::Rng rng(2025);
  const auto demand = workloads::FlowDemandModel::cpu_memory();
  sim::RunningStats setup;
  int placed = 0;
  // Skewed traffic: most flows within a hot subset of MCMs, so circuits
  // get reused — the regime where the synergy pays off.
  for (int i = 0; i < flows; ++i) {
    const int src = static_cast<int>(rng.below(64));
    int dst = static_cast<int>(rng.below(64));
    if (dst == src) dst = (dst + 1) % 64;
    const auto now = static_cast<sim::TimePs>(i) * 100 * sim::kPsPerNs;
    const auto p = router.place(src, dst, demand.sample_gbps(rng), now);
    if (p.placed) {
      ++placed;
      setup.add(sim::to_us(p.ready_at - now));
    }
  }
  SpatialOutcome out;
  out.reconfigs = router.reconfigurations();
  out.indirect = router.indirect_hits();
  out.mean_setup_us = setup.mean();
  out.placed_fraction = static_cast<double>(placed) / flows;
  return out;
}

}  // namespace

int main() {
  using namespace photorack;

  core::print_banner(std::cout, "Ablation: indirect routing vs reconfiguration",
                     "Sections IV-B and VI-A1");

  const int flows = 4000;
  const auto with_synergy = run_spatial(true, flows);
  const auto without = run_spatial(false, flows);

  sim::Table table({"Fabric", "Reconfigs", "Indirect placements", "Mean setup (us)",
                    "Placed"});
  table.add_row({"spatial, no indirect", sim::fmt_int(static_cast<long long>(without.reconfigs)),
                 sim::fmt_int(static_cast<long long>(without.indirect)),
                 sim::fmt_fixed(without.mean_setup_us, 2),
                 sim::fmt_pct(without.placed_fraction)});
  table.add_row({"spatial, with indirect (TAGO-style)",
                 sim::fmt_int(static_cast<long long>(with_synergy.reconfigs)),
                 sim::fmt_int(static_cast<long long>(with_synergy.indirect)),
                 sim::fmt_fixed(with_synergy.mean_setup_us, 2),
                 sim::fmt_pct(with_synergy.placed_fraction)});

  // The AWGR case: same flow count, zero scheduler involvement.
  core::RackSystem system(rack::FabricKind::kParallelAwgrs);
  auto fabric = system.make_fabric();
  net::PiggybackView view(fabric, sim::kPsPerUs);
  net::IndirectRouter awgr_router(fabric, view, 7);
  sim::Rng rng(2025);
  const auto demand = workloads::FlowDemandModel::cpu_memory();
  int placed = 0;
  std::vector<net::RouteResult> held;
  for (int i = 0; i < flows; ++i) {
    const int src = static_cast<int>(rng.below(64));
    int dst = static_cast<int>(rng.below(64));
    if (dst == src) dst = (dst + 1) % 64;
    net::RouteResult r;
    awgr_router.route(src, dst, demand.sample_gbps(rng), r);
    if (r.fully_satisfied()) ++placed;
    held.push_back(std::move(r));
    if (held.size() > 64) {  // rolling departures keep load bounded
      awgr_router.release(held.front());
      held.erase(held.begin());
    }
  }
  table.add_row({"parallel AWGRs (passive)", "0", "-", "0.00",
                 sim::fmt_pct(static_cast<double>(placed) / flows)});
  table.print(std::cout);

  std::cout << "\npaper-vs-measured (qualitative):\n";
  core::check_line(std::cout, "synergy cuts reconfigurations (ratio)", 0.5,
                   static_cast<double>(with_synergy.reconfigs) /
                       static_cast<double>(without.reconfigs),
                   0.9);
  core::check_line(std::cout, "AWGR reconfigurations", 0.0, 0.0, 0.01);
  return 0;
}
