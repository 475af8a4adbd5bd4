#include "net/flow_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <vector>

#include "rack/rack_builder.hpp"
#include "workloads/usage.hpp"

namespace photorack::net {
namespace {

WavelengthFabric make_fabric() {
  return WavelengthFabric(350,
                          rack::build_rack_design(rack::FabricKind::kParallelAwgrs).awgr);
}

FlowGenerator cori_generator() {
  const auto demand = workloads::FlowDemandModel::cpu_memory();
  return [demand](sim::Rng& rng) {
    FlowSpec spec;
    spec.src = static_cast<int>(rng.below(350));
    spec.dst = static_cast<int>((spec.src + 1 + rng.below(349)) % 350);
    spec.gbps = demand.sample_gbps(rng);
    spec.duration = static_cast<sim::TimePs>(rng.exponential(10.0 * sim::kPsPerUs));
    return spec;
  };
}

TEST(FlowSim, RunsToCompletion) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.flows, 10u);
}

TEST(FlowSim, CoriDemandsAreAlmostAlwaysSatisfied) {
  // Section VI-A's conclusion: blocked bandwidth is negligible for
  // production-like demands.
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.arrivals_per_us = 3.0;
  cfg.sim_time = 200 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.satisfied_fraction, 0.99);
  // 97% of demands fit one wavelength *by count*; by bandwidth the rare
  // elephants carry a disproportionate share, so the direct fraction of
  // satisfied bandwidth sits lower.
  EXPECT_GT(report.direct_fraction, 0.7);
}

TEST(FlowSim, FabricIsCleanAfterRun) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  (void)sim_inst.run();
  // All flows departed (the queue drained), so every reservation was
  // released.
  EXPECT_NEAR(fabric.utilization(), 0.0, 1e-12);
}

TEST(FlowSim, DeterministicForSeed) {
  FlowSimConfig cfg;
  cfg.sim_time = 50 * sim::kPsPerUs;
  cfg.seed = 31337;
  auto f1 = make_fabric();
  auto f2 = make_fabric();
  FlowSimulator s1(f1, cori_generator(), cfg);
  FlowSimulator s2(f2, cori_generator(), cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_DOUBLE_EQ(r1.satisfied_fraction, r2.satisfied_fraction);
  EXPECT_EQ(r1.stale_mispicks, r2.stale_mispicks);
}

TEST(FlowSim, StepwiseAdvanceMatchesRunToCompletion) {
  FlowSimConfig cfg;
  cfg.sim_time = 100 * sim::kPsPerUs;
  auto f1 = make_fabric();
  auto f2 = make_fabric();
  FlowSimulator whole(f1, cori_generator(), cfg);
  const auto expected = whole.run();

  FlowSimulator chunked(f2, cori_generator(), cfg);
  for (sim::TimePs t = 7 * sim::kPsPerUs; t < cfg.sim_time; t += 13 * sim::kPsPerUs)
    chunked.advance_to(t);
  chunked.finish();
  const auto actual = chunked.report();

  EXPECT_EQ(expected.flows, actual.flows);
  EXPECT_EQ(expected.fully_satisfied, actual.fully_satisfied);
  EXPECT_EQ(expected.satisfied_fraction, actual.satisfied_fraction);
  EXPECT_EQ(expected.direct_fraction, actual.direct_fraction);
  EXPECT_EQ(expected.stale_mispicks, actual.stale_mispicks);
  EXPECT_EQ(expected.peak_utilization, actual.peak_utilization);
}

TEST(FlowSim, MidRunReportSeesPartialTraffic) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.sim_time = 100 * sim::kPsPerUs;
  FlowSimulator sim_inst(fabric, cori_generator(), cfg);
  sim_inst.advance_to(30 * sim::kPsPerUs);
  const auto mid = sim_inst.report();
  EXPECT_LE(sim_inst.now(), 30 * sim::kPsPerUs);
  sim_inst.finish();
  const auto final_report = sim_inst.report();
  EXPECT_GT(final_report.flows, mid.flows);
}

TEST(FlowEngine, OpenReservesAndCloseReleases) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/99);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.gbps = 50.0;
  const auto id = engine.open(spec);
  EXPECT_EQ(engine.live_flows(), 1u);
  EXPECT_GT(engine.fabric_utilization(), 0.0);
  EXPECT_GT(engine.result(id).satisfied(), 0.0);
  engine.close(id);
  EXPECT_EQ(engine.live_flows(), 0u);
  EXPECT_NEAR(engine.fabric_utilization(), 0.0, 1e-12);
}

TEST(FlowEngine, DeadFlowIdsAreRejected) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/99);
  FlowSpec spec;
  spec.src = 2;
  spec.dst = 3;
  spec.gbps = 10.0;
  const auto id = engine.open(spec);
  engine.close(id);
  EXPECT_THROW(engine.result(id), std::out_of_range);
  EXPECT_THROW(engine.close(id), std::out_of_range);
  EXPECT_THROW(engine.close(424242), std::out_of_range);

  // B reuses A's slot: A's handle stays dead, B's names B's route.
  FlowSpec other;
  other.src = 7;
  other.dst = 9;
  other.gbps = 40.0;
  const auto b = engine.open(other);
  EXPECT_NE(b, id);
  EXPECT_THROW(engine.result(id), std::out_of_range);
  EXPECT_THROW(engine.close(id), std::out_of_range);
  EXPECT_EQ(engine.live_flows(), 1u);
  const RouteResult& route = engine.result(b);
  EXPECT_EQ(route.requested, 40.0);
  ASSERT_FALSE(route.segments.empty());
  EXPECT_EQ(route.segments.front().from, 7);
  EXPECT_EQ(route.segments.front().to, 9);
  engine.close(b);
  EXPECT_EQ(engine.live_flows(), 0u);
  EXPECT_THROW(engine.close(b), std::out_of_range);
}

TEST(FlowEngine, ChurnKeepsLiveCountAndDrainsExactly) {
  // Random opens and closes over reused slots: live_flows() tracks a
  // reference set of handles, every closed handle stays dead, and closing
  // everything leaves the fabric at exactly zero utilization.
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/5);
  sim::Rng rng(2024);
  std::set<std::uint64_t> live;
  std::vector<std::uint64_t> closed;
  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.bernoulli(0.55)) {
      FlowSpec spec;
      spec.src = static_cast<int>(rng.below(350));
      spec.dst = static_cast<int>((spec.src + 1 + rng.below(349)) % 350);
      spec.gbps = rng.uniform(0.0, 400.0);
      const auto id = engine.open(spec, op);
      ASSERT_TRUE(live.insert(id).second) << "handle " << id << " issued twice";
      EXPECT_EQ(engine.result(id).requested, spec.gbps);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      engine.close(*it, op);
      closed.push_back(*it);
      live.erase(it);
    }
    ASSERT_EQ(engine.live_flows(), live.size()) << "op " << op;
  }
  for (const auto id : closed) {
    EXPECT_THROW(engine.result(id), std::out_of_range);
    EXPECT_THROW(engine.close(id), std::out_of_range);
  }
  for (const auto id : live) engine.close(id);
  EXPECT_EQ(engine.live_flows(), 0u);
  EXPECT_EQ(engine.fabric_utilization(), 0.0);
}

TEST(FlowEngine, ReportAccumulatesAcrossOpens) {
  auto fabric = make_fabric();
  FlowEngine engine(fabric, 1 * sim::kPsPerUs, /*router_seed=*/7);
  FlowSpec spec;
  spec.gbps = 20.0;
  for (int i = 0; i < 8; ++i) {
    spec.src = i;
    spec.dst = i + 10;
    engine.open(spec);
  }
  const auto report = engine.report();
  EXPECT_EQ(report.flows, 8u);
  EXPECT_DOUBLE_EQ(report.offered_gbps_mean, 20.0);
  EXPECT_GT(report.satisfied_fraction, 0.99);
  EXPECT_GT(report.peak_utilization, 0.0);
}

TEST(FlowSim, HeavyElephantsForceIndirectRouting) {
  auto fabric = make_fabric();
  FlowSimConfig cfg;
  cfg.arrivals_per_us = 1.0;
  cfg.sim_time = 100 * sim::kPsPerUs;
  FlowGenerator elephants = [](sim::Rng& rng) {
    FlowSpec spec;
    spec.src = static_cast<int>(rng.below(350));
    spec.dst = static_cast<int>((spec.src + 1 + rng.below(349)) % 350);
    spec.gbps = 400.0;  // far beyond the 125 Gb/s direct budget
    spec.duration = static_cast<sim::TimePs>(rng.exponential(10.0 * sim::kPsPerUs));
    return spec;
  };
  FlowSimulator sim_inst(fabric, elephants, cfg);
  const auto report = sim_inst.run();
  EXPECT_GT(report.indirect_fraction, 0.3);
  EXPECT_GT(report.satisfied_fraction, 0.95);
}

}  // namespace
}  // namespace photorack::net
