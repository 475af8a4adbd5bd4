// Closed-loop co-simulation study: what the open-loop job stream cannot see.
//
// Runs the same offered job stream (identical arrivals, demands and base
// durations — the co-sim draws each job from its own child RNG stream)
// through four configurations: {static, disaggregated} × {open, closed
// loop}, at a load where the fabric genuinely contends.  The closed loop
// stretches each job by its measured bandwidth-satisfaction shortfall, so
// acceptance, utilization and energy all move together — the paper's
// system-level story (§II-A × §IV × §VI-C) in one table.
#include <iostream>

#include "cosim/rack_cosim.hpp"
#include "sim/table.hpp"

using namespace photorack;

namespace {

cosim::CosimReport run(disagg::AllocationPolicy policy, bool feedback) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = 8.0;
  cfg.sim_time = 200 * sim::kPsPerMs;
  cfg.contention_feedback = feedback;
  return cosim::run_rack_cosim({}, policy, workloads::UsageModel::cori(), cfg);
}

}  // namespace

int main() {
  sim::Table table({"policy", "loop", "offered", "accepted", "acceptance",
                    "bw satisfied", "mean stretch", "energy kJ", "kJ/job"});
  for (const auto policy : {disagg::AllocationPolicy::kStaticNodes,
                            disagg::AllocationPolicy::kDisaggregated}) {
    for (const bool feedback : {false, true}) {
      const auto report = run(policy, feedback);
      const double kj = report.energy_joules / 1e3;
      table.add_row(
          {disagg::allocation_policy_codec().name(policy),
           feedback ? "closed" : "open",
           sim::fmt_int(static_cast<long long>(report.jobs.offered)),
           sim::fmt_int(static_cast<long long>(report.jobs.accepted)),
           sim::fmt_pct(report.jobs.acceptance()),
           sim::fmt_pct(report.flows.satisfied_fraction),
           sim::fmt_fixed(report.mean_stretch, 3), sim::fmt_fixed(kj, 1),
           sim::fmt_fixed(report.jobs.accepted
                              ? kj / static_cast<double>(report.jobs.accepted)
                              : 0.0,
                          3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nReading the table: the offered stream is identical in every row;\n"
               "closed-loop rows accept at most what their open-loop twin accepts\n"
               "(contention can only hurt), and disaggregation's acceptance edge\n"
               "over static nodes survives the contention feedback.\n";
  return 0;
}
