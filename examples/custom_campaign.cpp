// Define a campaign the registry does not ship: sweep the MCM escape
// geometry (fibers x per-wavelength rate) and report how many MCMs the
// Perlmutter-like rack packs into, plus the escape bandwidth each budget
// provides.  Shows the scenario engine is a library, not just the built-in
// paper presets — a Campaign is declarative axes plus an evaluator.
//
// The axes are config-registry paths ("mcm.fibers"), so the evaluator
// receives a typed rack::McmConfig via ScenarioSpec::resolve<T>() instead
// of parsing strings — and because resolve() reads the whole "mcm"/"rack"
// sections, ANY registered knob (say mcm.wavelengths_per_fiber, which this
// campaign never mentions) can be pinned onto the sweep through
// SweepGrid::override_axis / photorack_sweep --set.
#include <iostream>

#include "rack/mcm.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

int main() {
  using namespace photorack;

  scenario::Campaign campaign;
  campaign.name = "mcm_geometry";
  campaign.description = "Rack MCM count vs escape-budget geometry";
  campaign.paper_ref = "extends Table III (Section V-A)";
  campaign.columns = {"fibers", "gbps", "escape_gbs", "total_mcms"};
  campaign.axes = {{"mcm.fibers", {"16", "32", "64"}},
                   {"mcm.gbps_per_wavelength", {"25", "50"}}};
  campaign.evaluate = [](const scenario::ScenarioSpec& spec) {
    const rack::McmConfig mcm = spec.resolve<rack::McmConfig>("mcm");
    const auto plan = rack::pack_rack(spec.resolve<rack::RackConfig>("rack"), mcm);
    scenario::ResultRow row;
    row.cells = {spec.at("mcm.fibers"), spec.at("mcm.gbps_per_wavelength"),
                 scenario::num_to_string(mcm.escape().value),
                 scenario::num_to_string(plan.total_mcms)};
    return std::vector<scenario::ResultRow>{row};
  };

  std::cout << "MCM packing across escape budgets (" << campaign.default_grid().size()
            << " scenarios):\n\n";
  const auto res = scenario::SweepRunner().run(campaign);
  scenario::print_table(std::cout, res.columns, res.rows);

  std::cout << "\nThe paper's 32-fiber x 25 Gb/s point packs "
            << res.cell(res.find({{"fibers", "32"}, {"gbps", "25"}}), "total_mcms")
            << " MCMs; doubling either axis trades transceiver count against\n"
               "switch ports (Section V-B discusses the fabric-side limits).\n";
  return 0;
}
