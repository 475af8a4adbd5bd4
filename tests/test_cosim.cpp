// Closed-loop rack co-simulation: the pinned contracts from ISSUE 4 —
// contention can only hurt acceptance, load can only degrade it, and the
// scenario campaigns serialize bit-identically for any --jobs level — plus
// the stepwise-API and conservation invariants of the engine itself.
#include "cosim/rack_cosim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "report_testing.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

namespace photorack::cosim {
namespace {

CosimConfig quick(double arrivals_per_ms = 4.0, bool feedback = true) {
  CosimConfig cfg;
  cfg.arrivals_per_ms = arrivals_per_ms;
  cfg.sim_time = 150 * sim::kPsPerMs;
  cfg.mean_duration = 20 * sim::kPsPerMs;
  cfg.contention_feedback = feedback;
  return cfg;
}

CosimReport run_quick(disagg::AllocationPolicy policy, const CosimConfig& cfg) {
  return run_rack_cosim({}, policy, workloads::UsageModel::cori(), cfg);
}

using testutil::expect_same_report;
using testutil::serialize;

TEST(Cosim, OffersPlacesAndRoutesJobs) {
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, quick());
  EXPECT_GT(report.jobs.offered, 100u);
  EXPECT_GT(report.jobs.accepted, 0u);
  EXPECT_LE(report.jobs.accepted, report.jobs.offered);
  EXPECT_GT(report.flows.flows, report.jobs.accepted);  // >= 1 flow per job
  EXPECT_GT(report.flows.peak_utilization, 0.0);
  EXPECT_GT(report.energy_joules, 0.0);
}

TEST(Cosim, DeterministicForSeed) {
  const auto a = run_quick(disagg::AllocationPolicy::kDisaggregated, quick());
  const auto b = run_quick(disagg::AllocationPolicy::kDisaggregated, quick());
  expect_same_report(a, b);
}

TEST(Cosim, SeedPlusOneProducesDifferentTrajectory) {
  auto cfg = quick();
  const auto a = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  cfg.seed += 1;
  const auto b = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  EXPECT_NE(a.jobs.offered, b.jobs.offered);
  EXPECT_NE(a.energy_joules, b.energy_joules);
}

// The ISSUE 4 acceptance pin: at equal load the closed loop can only do
// worse — stretched jobs hold CPUs, memory and wavelengths longer, so a
// later arrival sees a fuller rack.  The offered stream is identical in
// both modes (per-job child RNG streams), making this a controlled pair.
// The open-loop run is also the §II-A static-vs-disaggregated pin: on the
// same offered stream, pooling accepts at least as many jobs as whole-node
// allocation.
TEST(Cosim, ClosedLoopAcceptanceAtMostOpenLoop) {
  for (const double rate : {2.0, 4.0, 8.0, 16.0, 20.0}) {
    const auto closed = run_quick(disagg::AllocationPolicy::kDisaggregated,
                                  quick(rate, /*feedback=*/true));
    const auto open = run_quick(disagg::AllocationPolicy::kDisaggregated,
                                quick(rate, /*feedback=*/false));
    ASSERT_EQ(closed.jobs.offered, open.jobs.offered) << "rate " << rate;
    EXPECT_LE(closed.jobs.accepted, open.jobs.accepted) << "rate " << rate;
    EXPECT_LE(closed.jobs.acceptance(), open.jobs.acceptance() + 1e-12)
        << "rate " << rate;
    const auto open_static = run_quick(disagg::AllocationPolicy::kStaticNodes,
                                       quick(rate, /*feedback=*/false));
    ASSERT_EQ(open_static.jobs.offered, open.jobs.offered) << "rate " << rate;
    EXPECT_GE(open.jobs.acceptance(), open_static.jobs.acceptance()) << "rate " << rate;
  }
}

// Second pin: raising arrivals_per_ms can only degrade acceptance.  The
// arrival process divides one unit-exponential gap stream by the rate, so a
// higher rate offers a superset pattern of the same compressed jobs.
TEST(Cosim, AcceptanceDegradesMonotonicallyWithLoad) {
  for (const auto policy : {disagg::AllocationPolicy::kStaticNodes,
                            disagg::AllocationPolicy::kDisaggregated}) {
    double previous = 2.0;  // above any acceptance ratio
    for (const double rate : {2.0, 8.0, 32.0}) {
      const auto report = run_quick(policy, quick(rate));
      EXPECT_LE(report.jobs.acceptance(), previous + 1e-12) << "rate " << rate;
      previous = report.jobs.acceptance();
    }
    EXPECT_LT(previous, 0.5);  // the top of the sweep is genuinely saturated
  }
}

TEST(Cosim, OpenLoopNeverStretches) {
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated,
                                quick(8.0, /*feedback=*/false));
  EXPECT_DOUBLE_EQ(report.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(report.max_stretch, 1.0);
  // Contention is still measured (the fabric sees the same flows)...
  EXPECT_LT(report.mean_speed_fraction, 1.0);
  EXPECT_GT(report.mean_speed_fraction, 0.0);
  // ...and pooled placement holds exactly what each job asked for, so no
  // CPU or memory is ever marooned.
  EXPECT_EQ(report.jobs.mean_marooned_cpu, 0.0);
  EXPECT_EQ(report.jobs.mean_marooned_memory, 0.0);
}

TEST(Cosim, ClosedLoopStretchBoundedByFloor) {
  auto cfg = quick(16.0);
  cfg.min_speed_fraction = 0.25;
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  EXPECT_GE(report.mean_stretch, 1.0);
  EXPECT_LE(report.max_stretch, 1.0 / cfg.min_speed_fraction + 1e-12);
}

TEST(Cosim, EverythingDrainsAfterFinish) {
  RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                workloads::UsageModel::cori(), quick(8.0));
  sim.finish();
  EXPECT_EQ(sim.live_jobs(), 0u);
  EXPECT_EQ(sim.allocator().live_allocations(), 0u);
  EXPECT_EQ(sim.allocator().pools().cpus_used, 0);
  EXPECT_NEAR(sim.allocator().pools().memory_gb_used, 0.0, 1e-9);
  EXPECT_NEAR(sim.fabric_utilization(), 0.0, 1e-12);
}

TEST(Cosim, StepwiseAdvanceMatchesRunToCompletion) {
  const auto cfg = quick(8.0);
  RackCosim whole({}, disagg::AllocationPolicy::kDisaggregated,
                  workloads::UsageModel::cori(), cfg);
  whole.finish();

  RackCosim chunked({}, disagg::AllocationPolicy::kDisaggregated,
                    workloads::UsageModel::cori(), cfg);
  for (sim::TimePs t = 17 * sim::kPsPerMs; t < cfg.sim_time; t += 23 * sim::kPsPerMs)
    chunked.advance_to(t);
  chunked.finish();

  expect_same_report(whole.report(), chunked.report());
}

TEST(Cosim, MidRunReportIsUsable) {
  RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                workloads::UsageModel::cori(), quick(8.0));
  sim.advance_to(50 * sim::kPsPerMs);
  const auto mid = sim.report();
  EXPECT_GT(mid.jobs.offered, 0u);
  EXPECT_LE(sim.now(), 50 * sim::kPsPerMs);
  sim.finish();
  EXPECT_GE(sim.report().jobs.offered, mid.jobs.offered);
}

TEST(Cosim, NonPositiveDurationsAreRejected) {
  auto cfg = quick();
  cfg.mean_duration = 0;
  EXPECT_THROW(run_quick(disagg::AllocationPolicy::kDisaggregated, cfg),
               std::invalid_argument);
  cfg = quick();
  cfg.sim_time = -1;
  EXPECT_THROW(run_quick(disagg::AllocationPolicy::kDisaggregated, cfg),
               std::invalid_argument);
}

/// What a RackCosim constructor's std::invalid_argument says ("" if none).
std::string construction_error(const rack::RackConfig& rack, const CosimConfig& cfg) {
  try {
    RackCosim sim(rack, disagg::AllocationPolicy::kDisaggregated,
                  workloads::UsageModel::cori(), cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A job shape the empty rack cannot place fails at construction, naming the
// knobs and the capacity, instead of offering every job and accepting none.
TEST(Cosim, UnrunnableJobShapesAreRejected) {
  CosimConfig ml = quick();
  ml.ml.enabled = true;
  ml.ml.accelerators = 4096;
  EXPECT_EQ(construction_error({}, ml),
            "RackCosim: ml.accelerators = 4096 exceeds rack.nodes * rack.node.gpus = 512");
  rack::RackConfig gpuless;
  gpuless.node.gpus = 0;
  ml.ml.accelerators = 8;
  EXPECT_EQ(construction_error(gpuless, ml),
            "RackCosim: ml.accelerators = 8 exceeds rack.nodes * rack.node.gpus = 0");
  rack::RackConfig cpuless;
  cpuless.node.cpus = 0;
  EXPECT_EQ(construction_error(cpuless, quick()),
            "RackCosim: rack.node.cpus = 0, but every job needs a CPU");
  // A gang's host CPUs and memory count too: 300 ranks need 150 of the 128
  // CPUs, and 64 ranks on one 64-GPU node need more than its 256 GB.
  ml.ml.accelerators = 300;
  EXPECT_NE(construction_error({}, ml).find("needs 150 CPUs, more than rack.nodes * "
                                            "rack.node.cpus = 128"),
            std::string::npos);
  rack::RackConfig one_node;
  one_node.nodes = 1;
  one_node.node.cpus = 64;
  one_node.node.gpus = 64;
  ml.ml.accelerators = 64;
  EXPECT_NE(construction_error(one_node, ml).find("GB of memory, more than the rack's 256 GB"),
            std::string::npos);
  // Shapes that fit, and racks that never draw a training job, construct.
  ml.ml.accelerators = 256;
  EXPECT_EQ(construction_error({}, ml), "");
  ml.ml.accelerators = 4096;
  ml.ml.mix_fraction = 0.0;
  EXPECT_EQ(construction_error({}, ml), "");
  EXPECT_EQ(construction_error(gpuless, quick()), "");  // HPC mix, GPU jobs refused
}

TEST(Cosim, EmptyStreamReportsSentinelNotNan) {
  auto cfg = quick();
  cfg.sim_time = 0;  // no arrival fits the horizon
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  EXPECT_EQ(report.jobs.offered, 0u);
  EXPECT_DOUBLE_EQ(report.jobs.acceptance(), disagg::kEmptyStreamAcceptance);
  EXPECT_FALSE(std::isnan(report.jobs.acceptance()));
  EXPECT_DOUBLE_EQ(report.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(report.energy_joules, 0.0);
}

TEST(Cosim, PowerTraceCoversComputePlusPhotonics) {
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, quick(8.0));
  const phot::BaselineRackPower base;  // defaults match RackConfig{}
  EXPECT_GT(report.photonic_power_w, 0.0);
  // Mean power sits between the idle floor and the all-on ceiling.
  EXPECT_GT(report.mean_power_w, 0.3 * base.total().value);
  EXPECT_LT(report.mean_power_w, base.total().value + report.photonic_power_w);
  EXPECT_GE(report.peak_power_w, report.mean_power_w);
  EXPECT_DOUBLE_EQ(report.energy_joules,
                   report.mean_power_w * sim::to_s(report.completed_at));
}

TEST(Cosim, AllRejectedStreamStillAccruesIdleAndPhotonicEnergy) {
  // A zero-node rack rejects every job; the energy trace must still cover
  // the whole offered stream at the idle + lasers-on photonic level, not
  // stop at the last placement (there is none).
  rack::RackConfig empty_rack;
  empty_rack.nodes = 0;
  auto cfg = quick();
  const auto report = run_rack_cosim(empty_rack, disagg::AllocationPolicy::kDisaggregated,
                                     workloads::UsageModel::cori(), cfg);
  EXPECT_GT(report.jobs.offered, 0u);
  EXPECT_EQ(report.jobs.accepted, 0u);
  EXPECT_GT(report.energy_joules, 0.0);
  // No compute (zero nodes): the trace is exactly the photonic constant.
  EXPECT_NEAR(report.mean_power_w, report.photonic_power_w, 1e-9);
  EXPECT_NEAR(report.energy_joules,
              report.photonic_power_w * sim::to_s(report.completed_at), 1e-6);
}

TEST(Cosim, StaticPolicyMaroonsAndCloseLoopStillApplies) {
  const auto report = run_quick(disagg::AllocationPolicy::kStaticNodes, quick(8.0));
  EXPECT_GT(report.jobs.mean_marooned_memory, 0.05);
  EXPECT_GE(report.mean_stretch, 1.0);
}

// ---------------------------------------------------------------------------
// Traffic engine: arrival processes and queued admission through the cosim.
// ---------------------------------------------------------------------------

TEST(CosimTraffic, DefaultDropModeTailsAreDegenerate) {
  // Admit-or-drop: no job ever waits, so wait is identically 0 and slowdown
  // collapses to the contention stretch (>= 1).  One fct per flow.
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, quick(8.0));
  EXPECT_EQ(report.jobs.wait_ms.count, report.jobs.accepted);
  EXPECT_DOUBLE_EQ(report.jobs.wait_ms.p999, 0.0);
  EXPECT_GE(report.jobs.slowdown.p50, 1.0);
  EXPECT_EQ(report.jobs.fct_ms.count, report.flows.flows);
  EXPECT_GT(report.jobs.fct_ms.p50, 0.0);
  EXPECT_EQ(report.jobs.censored_waiting, 0u);
  EXPECT_EQ(report.jobs.censored_running, 0u);
}

TEST(CosimTraffic, TailQuantilesAreMonotone) {
  auto cfg = quick(16.0);
  cfg.admission = AdmissionPolicy::kQueue;
  const auto report = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  EXPECT_LE(report.jobs.wait_ms.p50, report.jobs.wait_ms.p99);
  EXPECT_LE(report.jobs.wait_ms.p99, report.jobs.wait_ms.p999);
  EXPECT_LE(report.jobs.slowdown.p50, report.jobs.slowdown.p99);
  EXPECT_LE(report.jobs.slowdown.p99, report.jobs.slowdown.p999);
  EXPECT_LE(report.jobs.fct_ms.p50, report.jobs.fct_ms.p99);
  EXPECT_LE(report.jobs.fct_ms.p99, report.jobs.fct_ms.p999);
}

TEST(CosimTraffic, QueueModeProducesRealWaitsUnderSaturation) {
  auto cfg = quick(16.0);  // saturating load (acceptance < 1 in drop mode)
  cfg.admission = AdmissionPolicy::kQueue;
  const auto drop = run_quick(disagg::AllocationPolicy::kDisaggregated, quick(16.0));
  const auto queued = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
  // Same seed, same per-job child streams: the OFFERED stream is identical;
  // only what happens to unplaceable jobs differs.
  EXPECT_EQ(queued.jobs.offered, drop.jobs.offered);
  EXPECT_GT(queued.jobs.wait_ms.p999, 0.0);
  EXPECT_GE(queued.jobs.slowdown.p999, 1.0);
  // After finish() the backlog must fully drain (every planned job fits the
  // empty rack eventually), so nothing stays censored.
  EXPECT_EQ(queued.jobs.censored_waiting, 0u);
  EXPECT_EQ(queued.jobs.censored_running, 0u);
}

TEST(CosimTraffic, MidRunReportCountsCensoredJobs) {
  auto cfg = quick(32.0);  // deep saturation: a backlog forms quickly
  cfg.admission = AdmissionPolicy::kQueue;
  RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                workloads::UsageModel::cori(), cfg);
  sim.advance_to(60 * sim::kPsPerMs);
  const auto mid = sim.report();
  EXPECT_EQ(mid.jobs.censored_waiting, sim.queued_jobs());
  EXPECT_EQ(mid.jobs.censored_running, sim.live_jobs());
  EXPECT_GT(mid.jobs.censored_waiting, 0u);
  // Wait telemetry covers EVERY admitted job: the placed ones plus a
  // wait-so-far lower bound for each job still in the backlog.
  EXPECT_EQ(mid.jobs.wait_ms.count,
            mid.jobs.accepted + mid.jobs.censored_waiting);
  // Accounting closes: offered = placed + still-waiting + dropped-over-cap.
  EXPECT_GE(mid.jobs.offered, mid.jobs.accepted + mid.jobs.censored_waiting);
  // report() must not mutate the live stats: a second report is identical.
  const auto again = sim.report();
  EXPECT_EQ(again.jobs.wait_ms.count, mid.jobs.wait_ms.count);
  EXPECT_EQ(again.jobs.wait_ms.p999, mid.jobs.wait_ms.p999);
  sim.finish();
  EXPECT_EQ(sim.report().jobs.censored_waiting, 0u);
}

TEST(CosimTraffic, QueueCapBoundsBacklog) {
  auto cfg = quick(32.0);
  cfg.admission = AdmissionPolicy::kQueue;
  cfg.queue_cap = 3;
  RackCosim sim({}, disagg::AllocationPolicy::kDisaggregated,
                workloads::UsageModel::cori(), cfg);
  for (sim::TimePs t = 10 * sim::kPsPerMs; t <= cfg.sim_time; t += 10 * sim::kPsPerMs) {
    sim.advance_to(t);
    ASSERT_LE(sim.queued_jobs(), 3u);
  }
  cfg.queue_cap = 0;
  EXPECT_THROW(run_quick(disagg::AllocationPolicy::kDisaggregated, cfg),
               std::invalid_argument);
}

TEST(CosimTraffic, NonPoissonProcessesRunDeterministically) {
  for (const auto kind : {traffic::ArrivalKind::kMmpp, traffic::ArrivalKind::kDiurnal}) {
    auto cfg = quick(8.0);
    cfg.arrival.kind = kind;
    const auto a = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
    const auto b = run_quick(disagg::AllocationPolicy::kDisaggregated, cfg);
    EXPECT_GT(a.jobs.offered, 50u);
    expect_same_report(a, b);
  }
}

TEST(CosimTraffic, InvalidArrivalShapeRejectedAtConstruction) {
  auto cfg = quick();
  cfg.arrival.kind = traffic::ArrivalKind::kMmpp;
  cfg.arrival.burst_rate_mult = 8.0;
  cfg.arrival.burst_fraction = 0.5;  // 8 * 0.5 > 1: OFF rate negative
  EXPECT_THROW(run_quick(disagg::AllocationPolicy::kDisaggregated, cfg),
               std::invalid_argument);
  cfg = quick();
  cfg.arrival.kind = traffic::ArrivalKind::kTrace;  // no trace_file
  EXPECT_THROW(run_quick(disagg::AllocationPolicy::kDisaggregated, cfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaign determinism: the third ISSUE 4 pin — cosim campaign CSV bytes are
// identical for --jobs 1 and --jobs 4 (short horizon to keep this fast).
// ---------------------------------------------------------------------------

TEST(CosimCampaigns, CsvAndJsonlBitIdenticalForJobs1VsJobs4) {
  for (const char* name :
       {"cosim_acceptance", "cosim_contention", "cosim_energy", "cosim_tails"}) {
    const auto& campaign = scenario::campaign_by_name(name);
    scenario::SweepGrid grid = campaign.default_grid();
    grid.set("cosim.horizon_ms", {"40"});
    const auto [csv1, jsonl1] = serialize(campaign, grid, 1);
    const auto [csv4, jsonl4] = serialize(campaign, grid, 4);
    EXPECT_FALSE(csv1.empty()) << name;
    EXPECT_EQ(csv1, csv4) << name;
    EXPECT_EQ(jsonl1, jsonl4) << name;
  }
}

// ---------------------------------------------------------------------------
// Redesign byte identity: the cosim campaigns pinned against their
// pre-registry evaluators (hand-assembled CosimConfig from string axes).
// The redesigned evaluators resolve CosimConfig/FabricSliceConfig/RackConfig
// through the typed registry; the bytes must not move.
// ---------------------------------------------------------------------------

cosim::CosimConfig cosim_config_pre_redesign(const scenario::ScenarioSpec& spec) {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = spec.num("cosim.arrivals_per_ms");
  cfg.sim_time =
      static_cast<sim::TimePs>(spec.num("cosim.horizon_ms") * sim::kPsPerMs);
  if (spec.has("cosim.contention_feedback"))
    cfg.contention_feedback = spec.at("cosim.contention_feedback") == "closed";
  if (spec.base_seed != 0) cfg.seed = spec.derived_seed();
  return cfg;
}

std::vector<scenario::ResultRow> eval_cosim_acceptance_pre_redesign(
    const scenario::ScenarioSpec& spec) {
  const auto report = run_rack_cosim(
      {}, disagg::parse_allocation_policy(spec.at("policy")),
      workloads::UsageModel::cori(), cosim_config_pre_redesign(spec));
  scenario::ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               scenario::num_to_string(static_cast<double>(report.jobs.offered)),
               scenario::num_to_string(static_cast<double>(report.jobs.accepted)),
               scenario::num_to_string(report.jobs.acceptance()),
               scenario::num_to_string(report.jobs.mean_cpu_utilization),
               scenario::num_to_string(report.jobs.mean_memory_utilization),
               scenario::num_to_string(report.jobs.mean_marooned_memory),
               scenario::num_to_string(report.mean_speed_fraction)};
  return {std::move(row)};
}

std::vector<scenario::ResultRow> eval_cosim_contention_pre_redesign(
    const scenario::ScenarioSpec& spec) {
  const auto report =
      run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                     workloads::UsageModel::cori(), cosim_config_pre_redesign(spec));
  scenario::ResultRow row;
  row.cells = {spec.at("cosim.contention_feedback"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               scenario::num_to_string(report.jobs.acceptance()),
               scenario::num_to_string(report.flows.satisfied_fraction),
               scenario::num_to_string(report.flows.indirect_fraction),
               scenario::num_to_string(report.flows.blocking_probability()),
               scenario::num_to_string(report.mean_speed_fraction),
               scenario::num_to_string(report.mean_stretch),
               scenario::num_to_string(report.flows.peak_utilization)};
  return {std::move(row)};
}

std::vector<scenario::ResultRow> eval_cosim_energy_pre_redesign(
    const scenario::ScenarioSpec& spec) {
  const auto report = run_rack_cosim(
      {}, disagg::parse_allocation_policy(spec.at("policy")),
      workloads::UsageModel::cori(), cosim_config_pre_redesign(spec));
  const double kj = report.energy_joules / 1e3;
  scenario::ResultRow row;
  row.cells = {spec.at("policy"),
               spec.at("cosim.arrivals_per_ms"),
               spec.at("cosim.horizon_ms"),
               scenario::num_to_string(static_cast<double>(report.jobs.accepted)),
               scenario::num_to_string(kj),
               scenario::num_to_string(report.mean_power_w / 1e3),
               scenario::num_to_string(report.peak_power_w / 1e3),
               scenario::num_to_string(report.photonic_power_w / 1e3),
               scenario::num_to_string(
                   report.jobs.accepted
                       ? kj / static_cast<double>(report.jobs.accepted)
                       : 0.0)};
  return {std::move(row)};
}

TEST(CosimCampaigns, RedesignByteIdenticalToPreRegistryEvaluators) {
  const struct {
    const char* name;
    std::vector<scenario::ResultRow> (*reference)(const scenario::ScenarioSpec&);
  } cases[] = {{"cosim_acceptance", eval_cosim_acceptance_pre_redesign},
               {"cosim_contention", eval_cosim_contention_pre_redesign},
               {"cosim_energy", eval_cosim_energy_pre_redesign}};
  for (const auto& c : cases) {
    const auto& campaign = scenario::campaign_by_name(c.name);
    scenario::SweepGrid grid = campaign.default_grid();
    grid.set("cosim.horizon_ms", {"30"});
    scenario::Campaign reference = campaign;
    reference.evaluate = c.reference;
    const auto [redesign_csv, redesign_jsonl] = serialize(campaign, grid, 2);
    const auto [reference_csv, reference_jsonl] = serialize(reference, grid, 1);
    EXPECT_FALSE(redesign_csv.empty()) << c.name;
    EXPECT_EQ(redesign_csv, reference_csv) << c.name;
    EXPECT_EQ(redesign_jsonl, reference_jsonl) << c.name;
  }
}

TEST(CosimCampaigns, NonZeroBaseSeedReseedsScenarios) {
  const auto& campaign = scenario::campaign_by_name("cosim_acceptance");
  scenario::SweepGrid grid = campaign.default_grid();
  grid.set("cosim.horizon_ms", {"40"});
  grid.set("policy", {"disagg"});
  grid.set("cosim.arrivals_per_ms", {"4"});
  std::ostringstream a_os, b_os;
  scenario::CsvSink a_sink(a_os), b_sink(b_os);
  scenario::SweepRunner(scenario::SweepOptions{.jobs = 1, .base_seed = 1})
      .run(campaign, grid, {&a_sink});
  scenario::SweepRunner(scenario::SweepOptions{.jobs = 1, .base_seed = 2})
      .run(campaign, grid, {&b_sink});
  EXPECT_NE(a_os.str(), b_os.str());
}

TEST(CosimCampaigns, ContentionCampaignPinsClosedVsOpen) {
  // The campaign view of the acceptance pin: for each arrival rate the
  // closed-loop row's acceptance is at most the open-loop row's.
  const auto& campaign = scenario::campaign_by_name("cosim_contention");
  scenario::SweepGrid grid = campaign.default_grid();
  grid.set("cosim.horizon_ms", {"60"});
  grid.set("cosim.arrivals_per_ms", {"4", "16"});
  const auto result = scenario::SweepRunner(scenario::SweepOptions{.jobs = 2})
                          .run(campaign, grid);
  for (const char* rate : {"4", "16"}) {
    const auto& open = result.find({{"feedback", "open"}, {"arrivals_per_ms", rate}});
    const auto& closed =
        result.find({{"feedback", "closed"}, {"arrivals_per_ms", rate}});
    EXPECT_LE(result.num(closed, "acceptance"), result.num(open, "acceptance") + 1e-12)
        << "rate " << rate;
    EXPECT_DOUBLE_EQ(result.num(open, "mean_stretch"), 1.0);
    EXPECT_GE(result.num(closed, "mean_stretch"), 1.0);
  }
}

}  // namespace
}  // namespace photorack::cosim
