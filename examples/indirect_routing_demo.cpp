// Indirect-routing demo (Fig 4): a source whose direct wavelengths to the
// destination are saturated spills bandwidth over Valiant-chosen
// intermediates, using only per-source state plus the piggybacked view.
#include <iostream>

#include "core/rack_system.hpp"
#include "net/routing.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;

  core::RackSystem system(rack::FabricKind::kParallelAwgrs);
  auto fabric = system.make_fabric();
  net::PiggybackView view(fabric, sim::kPsPerUs);
  net::IndirectRouter router(fabric, view, /*seed=*/2023);

  const int src = 17, dst = 261;
  std::cout << "direct wavelengths " << src << " -> " << dst << ": "
            << fabric.direct_lambdas(src, dst) << " ("
            << fabric.direct_capacity(src, dst) << " Gb/s)\n\n";

  sim::Table table({"Requested Gb/s", "Direct", "Indirect", "Blocked", "Intermediates",
                    "2nd hops"});
  std::vector<net::RouteResult> held;
  for (const double demand : {50.0, 125.0, 500.0, 2000.0, 8000.0}) {
    net::RouteResult result;
    router.route(src, dst, demand, result);
    table.add_row({sim::fmt_fixed(result.requested, 0),
                   sim::fmt_fixed(result.direct_gbps, 0),
                   sim::fmt_fixed(result.indirect_gbps, 0),
                   sim::fmt_fixed(result.blocked_gbps, 0),
                   sim::fmt_int(result.intermediates_used),
                   sim::fmt_int(result.second_hops)});
    held.push_back(std::move(result));
  }
  table.print(std::cout);

  std::cout << "\nfabric utilization while held: " << fabric.utilization() * 100 << "%\n";
  for (const auto& r : held) router.release(r);
  std::cout << "after release:                  " << fabric.utilization() * 100 << "%\n";

  std::cout << "\nNote: the full escape bandwidth of an MCM ("
            << system.design().mcm_plan.mcm.escape_gbps().value
            << " Gb/s) can reach a single destination via indirect routing, "
               "with no switch reconfiguration (Section VI-A case A).\n";
  return 0;
}
