// The ISSUE 10 collective-communication contracts: pattern compilation has
// the textbook phase/flow shapes, the straggler-gated runner hits the
// closed-form lower bound on an uncontended fabric, a dense all-to-all
// never over-allocates a wavelength pair and tears down bit-exactly, and
// the ML training-job path is deterministic (same seed byte-identical,
// seed+1 divergent) while the disabled path leaves the co-simulation
// field-by-field identical to a run without the subsystem.
#include "collectives/collective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/runner.hpp"
#include "cosim/rack_cosim.hpp"
#include "net/fabric.hpp"
#include "net/flow_sim.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"
#include "sim/event_queue.hpp"

namespace photorack::collectives {
namespace {

// The same fully-populated single-AWGR slice the rack co-simulation builds
// from FabricSliceConfig: every (src,dst) pair owns one 25 Gb/s wavelength.
rack::AwgrFabricPlan slice_plan(int mcms) {
  rack::AwgrFabricPlan plan;
  plan.parallel_awgrs = 1;
  plan.awgr_radix = mcms;
  plan.port_wavelength_cap = mcms;
  plan.lambdas_per_port.assign(1, mcms);
  plan.full_coverage_awgrs = 1;
  plan.min_direct_lambdas_per_pair = 1;
  plan.direct_pair_bandwidth = phot::Gbps{25.0};
  return plan;
}

constexpr double kBytes = 64e6;  // one 64 MB gradient
constexpr double kGbps = 25.0;

// ---------------------------------------------------------------------------
// Pattern compilation: phase/flow shapes.
// ---------------------------------------------------------------------------

TEST(Compile, RingHasTwiceNMinusOnePhasesOfNeighborFlows) {
  const int n = 8;
  const auto program = compile(Pattern::kRingAllReduce, n, kBytes);
  ASSERT_EQ(program.size(), 2u * (n - 1));
  for (const auto& phase : program) {
    ASSERT_EQ(phase.flows.size(), static_cast<std::size_t>(n));
    for (const auto& flow : phase.flows) {
      EXPECT_EQ(flow.dst, (flow.src + 1) % n);
      EXPECT_DOUBLE_EQ(flow.bytes, kBytes / n);
    }
  }
}

TEST(Compile, AllToAllShiftsByPhaseIndex) {
  const int n = 6;
  const auto program = compile(Pattern::kAllToAll, n, kBytes);
  ASSERT_EQ(program.size(), static_cast<std::size_t>(n - 1));
  for (std::size_t k = 0; k < program.size(); ++k) {
    ASSERT_EQ(program[k].flows.size(), static_cast<std::size_t>(n));
    for (const auto& flow : program[k].flows) {
      EXPECT_EQ(flow.dst, (flow.src + static_cast<int>(k) + 1) % n);
      EXPECT_DOUBLE_EQ(flow.bytes, kBytes / (n - 1));
    }
  }
}

TEST(Compile, ParamServerIsInCastThenOutCast) {
  const int n = 5;
  const auto program = compile(Pattern::kParamServer, n, kBytes);
  ASSERT_EQ(program.size(), 2u);
  ASSERT_EQ(program[0].flows.size(), static_cast<std::size_t>(n - 1));
  ASSERT_EQ(program[1].flows.size(), static_cast<std::size_t>(n - 1));
  for (const auto& flow : program[0].flows) {
    EXPECT_EQ(flow.dst, 0);
    EXPECT_DOUBLE_EQ(flow.bytes, kBytes);
  }
  for (const auto& flow : program[1].flows) {
    EXPECT_EQ(flow.src, 0);
    EXPECT_DOUBLE_EQ(flow.bytes, kBytes);
  }
}

TEST(Compile, BroadcastDoublesCoverageEachPhase) {
  const int n = 8;
  const auto program = compile(Pattern::kBroadcast, n, kBytes);
  ASSERT_EQ(program.size(), 3u);  // ceil(log2(8))
  std::size_t total_flows = 0;
  int covered = 1;
  for (const auto& phase : program) {
    EXPECT_EQ(phase.flows.size(),
              static_cast<std::size_t>(std::min(covered, n - covered)));
    total_flows += phase.flows.size();
    covered *= 2;
    for (const auto& flow : phase.flows) EXPECT_DOUBLE_EQ(flow.bytes, kBytes);
  }
  EXPECT_EQ(total_flows, static_cast<std::size_t>(n - 1));  // everyone hears once
}

TEST(Compile, OneRankIsANoOpAndBadArgsThrow) {
  EXPECT_TRUE(compile(Pattern::kRingAllReduce, 1, kBytes).empty());
  EXPECT_THROW(compile(Pattern::kRingAllReduce, 0, kBytes), std::invalid_argument);
  EXPECT_THROW(compile(Pattern::kAllToAll, 4, -1.0), std::invalid_argument);
  EXPECT_THROW(compile(Pattern::kAllToAll, 4, std::nan("")), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Closed-form lower bounds.
// ---------------------------------------------------------------------------

TEST(LowerBound, RingMatchesTextbookFormula) {
  const int n = 8;
  // 2(N-1)/N * gradient_bits / bandwidth — the bandwidth-optimal ring time.
  const double expected = 2.0 * (n - 1) / n * kBytes * 8.0 / (kGbps * 1e9);
  EXPECT_DOUBLE_EQ(lower_bound_seconds(Pattern::kRingAllReduce, n, kBytes, kGbps),
                   expected);
}

TEST(LowerBound, BroadcastPaysFullPayloadPerDoublingRound) {
  const int n = 8;
  const double expected = 3.0 * kBytes * 8.0 / (kGbps * 1e9);
  EXPECT_DOUBLE_EQ(lower_bound_seconds(Pattern::kBroadcast, n, kBytes, kGbps),
                   expected);
}

// ---------------------------------------------------------------------------
// Enum codec: CLI/campaign-facing names.
// ---------------------------------------------------------------------------

TEST(PatternCodec, RoundTripsEveryName) {
  const auto& codec = pattern_codec();
  for (const auto* name : {"ring", "alltoall", "ps", "broadcast"})
    EXPECT_EQ(codec.name(codec.parse(name)), name);
}

TEST(PatternCodec, UnknownNameNamesTheAlternatives) {
  try {
    (void)pattern_codec().parse("mesh");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("want ring|alltoall|ps|broadcast"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Runner: straggler-gated phases on a real fabric hit the closed-form
// bound when nothing contends, and abort/teardown restore the fabric
// bit-exactly.
// ---------------------------------------------------------------------------

TEST(Runner, UncontendedRingMatchesLowerBound) {
  net::WavelengthFabric fabric(24, slice_plan(24));
  net::FlowEngine engine(fabric, 10 * sim::kPsPerUs, 0x1234);
  sim::EventQueue queue;

  CollectiveSpec spec;
  spec.pattern = Pattern::kRingAllReduce;
  spec.endpoints = {0, 1, 2, 3, 4, 5, 6, 7};
  spec.bytes = kBytes;
  spec.demand_gbps = kGbps;

  CollectiveResult result;
  bool done = false;
  CollectiveRunner runner(engine, queue, spec);
  runner.start([&](const CollectiveResult& r) {
    result = r;
    done = true;
  });
  queue.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(result.phases, 14);
  EXPECT_EQ(result.flows, 14u * 8u);
  // Each phase rounds up to a whole picosecond, so the elapsed time may
  // exceed the continuous bound by at most one ps per phase.
  const double ideal_ps =
      lower_bound_seconds(Pattern::kRingAllReduce, 8, kBytes, kGbps) * 1e12;
  EXPECT_GE(static_cast<double>(result.elapsed), ideal_ps);
  EXPECT_LE(static_cast<double>(result.elapsed), ideal_ps + result.phases);
  // No contention: every flow runs at its full demand, no straggler spread.
  EXPECT_DOUBLE_EQ(result.straggler_stretch, 1.0);
  // Teardown: nothing left allocated.
  EXPECT_NEAR(fabric.utilization(), 0.0, 0.0);
}

TEST(Runner, CompletedCollectiveRestoresFabricBitExactly) {
  net::WavelengthFabric fabric(24, slice_plan(24));
  const auto clean = fabric.allocation_snapshot();
  net::FlowEngine engine(fabric, 10 * sim::kPsPerUs, 0x1234);
  sim::EventQueue queue;

  CollectiveSpec spec;
  spec.pattern = Pattern::kAllToAll;
  spec.endpoints.resize(24);
  std::iota(spec.endpoints.begin(), spec.endpoints.end(), 0);
  spec.bytes = kBytes;
  spec.demand_gbps = kGbps;

  CollectiveRunner runner(engine, queue, spec);
  runner.start([](const CollectiveResult&) {});
  queue.run();

  EXPECT_EQ(fabric.allocation_snapshot(), clean);
}

TEST(Runner, AbortMidPhaseRestoresFabricBitExactly) {
  net::WavelengthFabric fabric(24, slice_plan(24));
  const auto clean = fabric.allocation_snapshot();
  net::FlowEngine engine(fabric, 10 * sim::kPsPerUs, 0x1234);
  sim::EventQueue queue;

  CollectiveSpec spec;
  spec.pattern = Pattern::kRingAllReduce;
  spec.endpoints = {0, 1, 2, 3, 4, 5, 6, 7};
  spec.bytes = kBytes;
  spec.demand_gbps = kGbps;

  bool done = false;
  CollectiveRunner runner(engine, queue, spec);
  runner.start([&](const CollectiveResult&) { done = true; });
  // Fire in the middle of the first phase (well before its ~2.56 ms end).
  queue.schedule_after(1 * sim::kPsPerMs, [&] { runner.abort(); });
  queue.run();

  EXPECT_FALSE(done);  // an aborted collective never reports completion
  EXPECT_FALSE(runner.running());
  EXPECT_EQ(fabric.allocation_snapshot(), clean);
}

// ---------------------------------------------------------------------------
// Satellite 1 — conservation under a dense all-to-all: the satisfied rates
// on a wavelength pair never exceed the pair's capacity even when every
// pair is asked for more than it has, and closing the phase's flow set
// restores the allocation tables bit-exactly.
// ---------------------------------------------------------------------------

TEST(Conservation, DenseAllToAllNeverOverAllocatesAPair) {
  const int n = 24;
  net::WavelengthFabric fabric(n, slice_plan(n));
  const auto clean = fabric.allocation_snapshot();
  net::FlowEngine engine(fabric, 10 * sim::kPsPerUs, 0x5678);

  // Demand 1.6x each pair's 25 Gb/s wavelength, every pair at once.
  const auto program = compile(Pattern::kAllToAll, n, kBytes);
  for (const auto& phase : program) {
    std::vector<std::uint64_t> ids;
    for (const auto& flow : phase.flows) {
      net::FlowSpec fs;
      fs.src = flow.src;
      fs.dst = flow.dst;
      fs.gbps = 40.0;
      fs.duration = sim::kPsPerMs;
      ids.push_back(engine.open(fs));
    }
    for (const auto id : ids) {
      const auto& r = engine.result(id);
      EXPECT_LE(r.satisfied(), r.requested + 1e-9);
    }
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        EXPECT_LE(fabric.allocated(s, d), fabric.direct_capacity(s, d) + 1e-9)
            << "pair (" << s << "," << d << ") over-allocated";
      }
    for (const auto id : ids) engine.close(id);
    // Identical open/close amounts cancel exactly in IEEE arithmetic, so
    // the table must come back bit-for-bit, not just within epsilon.
    EXPECT_EQ(fabric.allocation_snapshot(), clean);
  }
  EXPECT_NEAR(fabric.utilization(), 0.0, 0.0);
}

// ---------------------------------------------------------------------------
// Satellite 2 — seed sensitivity and the disabled path.
// ---------------------------------------------------------------------------

cosim::CosimConfig ml_cosim(double mix_fraction) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = 2.0;
  cfg.sim_time = 120 * sim::kPsPerMs;
  cfg.mean_duration = 20 * sim::kPsPerMs;
  cfg.ml.enabled = true;
  cfg.ml.mix_fraction = mix_fraction;
  cfg.ml.accelerators = 8;
  cfg.ml.gradient_mb = 8.0;
  cfg.ml.steps = 2;
  cfg.ml.compute_ms = 1.0;
  return cfg;
}

cosim::CosimReport run_ml(const cosim::CosimConfig& cfg) {
  return cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                               workloads::UsageModel::cori(), cfg);
}

using testutil::expect_same_report;
using testutil::serialize;

TEST(MlDeterminism, SameSeedIsByteIdentical) {
  const auto cfg = ml_cosim(0.5);
  const auto a = run_ml(cfg);
  const auto b = run_ml(cfg);
  ASSERT_GT(a.ml.jobs_offered, 0u);
  expect_same_report(a, b);
}

TEST(MlDeterminism, SeedPlusOneDiverges) {
  auto cfg = ml_cosim(0.5);
  const auto a = run_ml(cfg);
  cfg.seed += 1;
  const auto b = run_ml(cfg);
  EXPECT_TRUE(a.ml.jobs_offered != b.ml.jobs_offered ||
              a.ml.steps != b.ml.steps || a.energy_joules != b.energy_joules ||
              a.completed_at != b.completed_at);
}

TEST(MlDisabledPath, IdleSubsystemChangesNoReportedNumber) {
  // mix_fraction = 0 must short-circuit before any RNG draw, so an armed
  // but idle ML subsystem reproduces the pre-subsystem trajectory exactly.
  auto enabled_idle = ml_cosim(0.0);
  auto disabled = ml_cosim(0.0);
  disabled.ml = collectives::MlConfig{};  // all defaults, enabled = false
  const auto a = run_ml(enabled_idle);
  const auto b = run_ml(disabled);
  expect_same_report(a, b);
  EXPECT_EQ(a.ml.jobs_offered, 0u);
  EXPECT_EQ(a.ml.steps, 0u);
  // The report still says which mode it ran in.
  EXPECT_TRUE(a.ml.enabled);
  EXPECT_FALSE(b.ml.enabled);
}

// ---------------------------------------------------------------------------
// Training-step accounting: a step can never beat its own compute phase,
// and the collective fraction stays a fraction.
// ---------------------------------------------------------------------------

TEST(MlAccounting, StepTimeDominatesComputeTime) {
  const auto report = run_ml(ml_cosim(1.0));
  ASSERT_GT(report.ml.steps, 0u);
  EXPECT_GE(report.ml.step_ms.p50, 1.0);  // compute_ms = 1
  EXPECT_GT(report.ml.coll_frac.p50, 0.0);
  EXPECT_LE(report.ml.coll_frac.p99, 1.0);
  EXPECT_GE(report.ml.straggler.p99, 1.0);
  EXPECT_GE(report.ml.steps,
            report.ml.jobs_completed * 2u);  // cfg.ml.steps per finished job
}

// The ML tails are real upper quantiles: with heavy compute jitter sharing
// the rack with HPC jobs, step times spread and some collectives straggle,
// so p99 sits above p50 and the straggler p99 above the uncontended 1.
// Quantiles read at near-minimum ranks would make both pairs equal.
TEST(MlAccounting, TailsAreUpperQuantilesNotMinima) {
  cosim::CosimConfig cfg;
  cfg.ml.enabled = true;
  cfg.ml.mix_fraction = 0.5;
  cfg.ml.jitter_frac = 2.0;
  const auto report = run_ml(cfg);
  ASSERT_GT(report.ml.steps, 10u);
  EXPECT_GT(report.ml.step_ms.p99, report.ml.step_ms.p50);
  EXPECT_GT(report.ml.straggler.p99, 1.0);
}

// ---------------------------------------------------------------------------
// Campaign determinism: the ML campaign serializes byte-identically at
// every --jobs level (the same pin the fault/cluster campaigns carry).
// ---------------------------------------------------------------------------

TEST(MlCampaigns, CollectivesCampaignIsByteIdenticalAcrossJobs) {
  const auto& campaign = scenario::campaign_by_name("ml_collectives");
  auto grid = campaign.default_grid();
  grid.set("ml.pattern", {"ring", "alltoall"});
  grid.set("ml.gradient_mb", {"8"});
  grid.set("cosim.horizon_ms", {"60"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

}  // namespace
}  // namespace photorack::collectives
