// Scenario-engine suite: grid expansion, spec identity/seeding, result
// sinks, the campaign registry, and the two contracts the engine exists to
// uphold — (1) sweeps are bit-identical at every --jobs level and (2) the
// built-in campaigns' bytes match reference evaluators: a from-scratch
// simulation for fig6/fig8 and the pre-redesign code for the others.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/bindings.hpp"
#include "core/rack_system.hpp"
#include "cpusim/runner.hpp"
#include "gpusim/gpu_runner.hpp"
#include "phot/links.hpp"
#include "rack/mcm.hpp"
#include "scenario/campaigns.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"
#include "workloads/gpu_profiles.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_grid.hpp"
#include "scenario/sweep_runner.hpp"

namespace photorack {
namespace {

using scenario::Campaign;
using scenario::ResultRow;
using scenario::ScenarioSpec;
using scenario::SweepGrid;
using scenario::SweepOptions;
using scenario::SweepResult;
using scenario::SweepRunner;

// ---------------------------------------------------------------------------
// SweepGrid
// ---------------------------------------------------------------------------

TEST(SweepGrid, ExpandsCrossProductLastAxisFastest) {
  SweepGrid grid;
  grid.axis("a", std::vector<std::string>{"x", "y"})
      .axis("b", std::vector<double>{1, 2, 3});
  EXPECT_EQ(grid.size(), 6u);
  const auto specs = grid.expand("test");
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].id(), "test[a=x,b=1]");
  EXPECT_EQ(specs[1].id(), "test[a=x,b=2]");
  EXPECT_EQ(specs[2].id(), "test[a=x,b=3]");
  EXPECT_EQ(specs[3].id(), "test[a=y,b=1]");
  EXPECT_EQ(specs[5].id(), "test[a=y,b=3]");
  for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(specs[i].index, i);
}

TEST(SweepGrid, SetOverridesExistingAxis) {
  SweepGrid grid;
  grid.axis("extra_ns", std::vector<double>{35});
  grid.set("extra_ns", {"50", "100"});
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.expand("t")[1].at("extra_ns"), "100");
}

TEST(SweepGrid, SetUnknownAxisThrows) {
  SweepGrid grid;
  grid.axis("a", std::vector<std::string>{"x"});
  EXPECT_THROW(grid.set("nope", {"1"}), std::out_of_range);
}

TEST(SweepGrid, EmptyValuesAndDuplicateAxesThrow) {
  SweepGrid grid;
  EXPECT_THROW(grid.axis("a", std::vector<std::string>{}), std::invalid_argument);
  grid.axis("a", std::vector<std::string>{"x"});
  EXPECT_THROW(grid.axis("a", std::vector<std::string>{"y"}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

TEST(ScenarioSpec, TypedAccessors) {
  ScenarioSpec spec;
  spec.campaign = "t";
  spec.axes = {{"name", "streamcluster"}, {"extra_ns", "35.5"}, {"measured", "200000"}};
  EXPECT_TRUE(spec.has("name"));
  EXPECT_FALSE(spec.has("nope"));
  EXPECT_EQ(spec.at("name"), "streamcluster");
  EXPECT_DOUBLE_EQ(spec.num("extra_ns"), 35.5);
  EXPECT_EQ(spec.uint("measured"), 200000u);
  EXPECT_EQ(spec.integer("measured"), 200000);
  EXPECT_THROW(spec.at("nope"), std::out_of_range);
  EXPECT_THROW(spec.num("name"), std::invalid_argument);
  EXPECT_THROW(spec.uint("extra_ns"), std::invalid_argument);
}

TEST(ScenarioSpec, UintRejectsNegativesInsteadOfWrapping) {
  // strtoull would silently wrap "-32" to 2^64-32; the accessor must throw
  // so e.g. `--set fibers=-32` fails instead of packing a garbage rack.
  ScenarioSpec spec;
  spec.campaign = "t";
  spec.axes = {{"fibers", "-32"}, {"pad", " 5"}, {"hex", "0x10"}};
  EXPECT_THROW(spec.uint("fibers"), std::invalid_argument);
  EXPECT_THROW(spec.integer("fibers"), std::invalid_argument);
  EXPECT_THROW(spec.uint("pad"), std::invalid_argument);
  EXPECT_THROW(spec.uint("hex"), std::invalid_argument);
}

TEST(ScenarioSpec, DerivedSeedIsStableAndDistinguishesSpecs) {
  ScenarioSpec a;
  a.campaign = "fig6";
  a.axes = {{"bench", "x"}, {"extra_ns", "35"}};
  ScenarioSpec same = a;
  EXPECT_EQ(a.derived_seed(), same.derived_seed());

  ScenarioSpec other_axis = a;
  other_axis.axes[1].second = "85";
  EXPECT_NE(a.derived_seed(), other_axis.derived_seed());

  ScenarioSpec other_base = a;
  other_base.base_seed = 7;
  EXPECT_NE(a.derived_seed(), other_base.derived_seed());

  // index must NOT affect the seed: the same point keeps its stream even if
  // the surrounding grid is reshaped.
  ScenarioSpec other_index = a;
  other_index.index = 42;
  EXPECT_EQ(a.derived_seed(), other_index.derived_seed());
}

TEST(NumToString, RoundTripsExactly) {
  for (const double v : {0.0, 35.0, 1.0 / 3.0, 0.0535, 1555.2, 1e-9, 123456789.123}) {
    const std::string s = scenario::num_to_string(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(scenario::num_to_string(160), "160");
}

// ---------------------------------------------------------------------------
// Result sinks
// ---------------------------------------------------------------------------

TEST(ResultSinks, CsvQuotesOnlyWhenNeeded) {
  std::ostringstream os;
  scenario::CsvSink sink(os);
  sink.open({"name", "value"});
  sink.write(ResultRow{{"plain", "1.5"}});
  sink.write(ResultRow{{"a,b", "say \"hi\""}});
  sink.close();
  EXPECT_EQ(os.str(), "name,value\nplain,1.5\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(ResultSinks, JsonlEmitsNumbersUnquoted) {
  std::ostringstream os;
  scenario::JsonlSink sink(os);
  sink.open({"bench", "slowdown", "note"});
  sink.write(ResultRow{{"nw", "0.79", "line\nbreak"}});
  sink.close();
  EXPECT_EQ(os.str(), "{\"bench\":\"nw\",\"slowdown\":0.79,\"note\":\"line\\nbreak\"}\n");
}

TEST(ResultSinks, JsonlQuotesNonJsonNumericForms) {
  // strtod accepts these, but emitting them unquoted would produce invalid
  // JSON; only RFC 8259 number syntax may go unquoted.
  std::ostringstream os;
  scenario::JsonlSink sink(os);
  sink.open({"a", "b", "c", "d", "e", "f"});
  sink.write(ResultRow{{"+50", "0x1f", "5.", ".5", "-inf", "007"}});
  sink.close();
  EXPECT_EQ(os.str(),
            "{\"a\":\"+50\",\"b\":\"0x1f\",\"c\":\"5.\",\"d\":\".5\","
            "\"e\":\"-inf\",\"f\":\"007\"}\n");

  std::ostringstream os2;
  scenario::JsonlSink sink2(os2);
  sink2.open({"a", "b", "c", "d"});
  sink2.write(ResultRow{{"-1.5e-3", "0", "35", "0.79"}});
  sink2.close();
  EXPECT_EQ(os2.str(), "{\"a\":-1.5e-3,\"b\":0,\"c\":35,\"d\":0.79}\n");
}

TEST(ResultSinks, TablePrintsHeaderAndRows) {
  std::ostringstream os;
  scenario::TableSink sink(os);
  sink.open({"col"});
  sink.write(ResultRow{{"cell"}});
  sink.close();
  EXPECT_NE(os.str().find("col"), std::string::npos);
  EXPECT_NE(os.str().find("cell"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaign registry + cheap campaigns against the golden numbers
// ---------------------------------------------------------------------------

TEST(Campaigns, RegistryHasThePaperPresets) {
  for (const char* name : {"fig6", "fig8", "fig9", "table1", "table3", "sec6c"}) {
    const Campaign& c = scenario::campaign_by_name(name);
    EXPECT_EQ(c.name, name);
    EXPECT_FALSE(c.columns.empty()) << name;
    EXPECT_GT(c.default_grid().size(), 0u) << name;
  }
  EXPECT_THROW(scenario::campaign_by_name("nope"), std::out_of_range);
}

TEST(Campaigns, Table3MatchesGoldenPacking) {
  const auto res = SweepRunner().run(scenario::campaign_by_name("table3"));
  ASSERT_EQ(res.rows.size(), 5u);  // one row per chip type
  const struct {
    const char* chip;
    int chips, mcms;
  } expect[] = {
      {"CPU", 14, 10}, {"GPU", 3, 171}, {"NIC", 203, 3}, {"HBM", 4, 128}, {"DDR4", 27, 38}};
  for (const auto& e : expect) {
    const auto& row = res.find({{"chip", e.chip}});
    EXPECT_EQ(res.num(row, "chips_per_mcm"), e.chips) << e.chip;
    EXPECT_EQ(res.num(row, "mcm_count"), e.mcms) << e.chip;
    EXPECT_EQ(res.num(row, "total_mcms"), 350) << e.chip;
  }
}

TEST(Campaigns, Table1MatchesGoldenLinkCounts) {
  const auto res = SweepRunner().run(scenario::campaign_by_name("table1"));
  EXPECT_EQ(res.num(res.find({{"link", "100G-Ethernet"}}), "links"), 160);
  EXPECT_EQ(res.num(res.find({{"link", "400G-Ethernet"}}), "links"), 40);
  EXPECT_EQ(res.num(res.find({{"link", "TeraPHY-768G"}}), "links"), 21);
  EXPECT_EQ(res.num(res.find({{"link", "Comb-1T"}}), "links"), 16);
  EXPECT_EQ(res.num(res.find({{"link", "Comb-2T"}}), "links"), 8);
}

TEST(Campaigns, AggregatesOverEmptyFilterThrow) {
  // mean()/max() on a filter matching nothing must fail loudly, not report
  // a fake 0.0 measurement (e.g. a bench wrapper with a stale suite name).
  const auto res = SweepRunner().run(scenario::campaign_by_name("table1"));
  EXPECT_THROW(res.mean("links", {{"link", "NoSuchLink"}}), std::out_of_range);
  EXPECT_THROW(res.max("links", {{"link", "NoSuchLink"}}), std::out_of_range);
}

TEST(Campaigns, Sec6cMatchesGoldenPower) {
  const auto res = SweepRunner().run(scenario::campaign_by_name("sec6c"));
  const auto& row = res.find({{"fabric", "awgr"}});
  EXPECT_NEAR(res.num(row, "total_w") / 1000.0, 11.0, 1.0);
  EXPECT_NEAR(res.num(row, "overhead"), 0.05, 0.01);
  EXPECT_DOUBLE_EQ(res.num(row, "added_latency_ns"), 35.0);
}

// ---------------------------------------------------------------------------
// Runner behavior: ordering, validation, failure propagation
// ---------------------------------------------------------------------------

Campaign tiny_campaign(std::function<std::vector<ResultRow>(const ScenarioSpec&)> eval) {
  Campaign c;
  c.name = "tiny";
  c.description = "test";
  c.paper_ref = "n/a";
  c.columns = {"i", "seed"};
  c.axes = {{"i", {"0", "1", "2", "3", "4", "5", "6", "7"}}};
  c.evaluate = std::move(eval);
  return c;
}

TEST(SweepRunner, RowsArriveInGridOrderForAnyJobsCount) {
  const Campaign c = tiny_campaign([](const ScenarioSpec& spec) {
    return std::vector<ResultRow>{
        ResultRow{{spec.at("i"), scenario::num_to_string(
                                     static_cast<double>(spec.derived_seed() % 1000))}}};
  });
  const auto serial = SweepRunner(SweepOptions{.jobs = 1}).run(c);
  const auto parallel = SweepRunner(SweepOptions{.jobs = 4}).run(c);
  ASSERT_EQ(serial.rows.size(), 8u);
  ASSERT_EQ(parallel.rows.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(serial.rows[i].cells, parallel.rows[i].cells) << i;
    EXPECT_EQ(serial.rows[i].cells[0], scenario::num_to_string(static_cast<double>(i)));
  }
}

TEST(SweepRunner, EvaluatorFailurePropagatesFromParallelRun) {
  const Campaign c = tiny_campaign([](const ScenarioSpec& spec) -> std::vector<ResultRow> {
    if (spec.at("i") == "5") throw std::runtime_error("scenario 5 failed");
    return {ResultRow{{spec.at("i"), "0"}}};
  });
  EXPECT_THROW(SweepRunner(SweepOptions{.jobs = 4}).run(c), std::runtime_error);
  EXPECT_THROW(SweepRunner(SweepOptions{.jobs = 1}).run(c), std::runtime_error);
}

TEST(SweepRunner, MisshapenRowIsRejected) {
  const Campaign c = tiny_campaign([](const ScenarioSpec&) {
    return std::vector<ResultRow>{ResultRow{{"only-one-cell"}}};
  });
  EXPECT_THROW(SweepRunner().run(c), std::logic_error);
}

// ---------------------------------------------------------------------------
// Determinism: serial and parallel sweeps serialize byte-identically.
// (The satellite contract from ISSUE 2, extending tests/test_determinism.cpp
// to the sweep layer.)
// ---------------------------------------------------------------------------

std::pair<std::string, std::string> serialize(const Campaign& campaign,
                                              const SweepGrid& grid, std::size_t jobs,
                                              std::uint64_t seed) {
  std::ostringstream csv_os, jsonl_os;
  scenario::CsvSink csv(csv_os);
  scenario::JsonlSink jsonl(jsonl_os);
  SweepRunner(SweepOptions{.jobs = jobs, .base_seed = seed}).run(campaign, grid,
                                                                {&csv, &jsonl});
  return {csv_os.str(), jsonl_os.str()};
}

TEST(SweepDeterminism, CpuCampaignIsByteIdenticalAcrossJobs) {
  const Campaign& campaign = scenario::campaign_by_name("fig6");
  SweepGrid grid = campaign.default_grid();
  grid.set("bench", {"PARSEC/streamcluster/medium", "Rodinia/srad/default"});
  grid.set("cpusim.warmup", {"20000"});
  grid.set("cpusim.measured", {"50000"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1, 0);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4, 0);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

TEST(SweepDeterminism, GpuCampaignIsByteIdenticalAcrossJobs) {
  const Campaign& campaign = scenario::campaign_by_name("fig9");
  SweepGrid grid = campaign.default_grid();
  grid.set("app", {"backprop", "nw"});
  grid.set("gpusim.extra_hbm_ns", {"35"});
  const auto [csv1, jsonl1] = serialize(campaign, grid, 1, 0);
  const auto [csv4, jsonl4] = serialize(campaign, grid, 4, 0);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);
}

TEST(SweepDeterminism, RackCampaignsAreByteIdenticalAcrossJobs) {
  for (const char* name : {"table1", "table3", "sec6c"}) {
    const Campaign& campaign = scenario::campaign_by_name(name);
    const SweepGrid grid = campaign.default_grid();
    const auto [csv1, jsonl1] = serialize(campaign, grid, 1, 0);
    const auto [csv4, jsonl4] = serialize(campaign, grid, 4, 0);
    EXPECT_FALSE(csv1.empty()) << name;
    EXPECT_EQ(csv1, csv4) << name;
    EXPECT_EQ(jsonl1, jsonl4) << name;
  }
}

TEST(SweepDeterminism, BaseSeedReseedsTheWorkload) {
  const Campaign& campaign = scenario::campaign_by_name("fig6");
  SweepGrid grid = campaign.default_grid();
  grid.set("bench", {"Rodinia/srad/default"});
  grid.set("cpusim.core.kind", {"inorder"});
  grid.set("cpusim.warmup", {"20000"});
  grid.set("cpusim.measured", {"50000"});
  const auto [csv_a, jsonl_a] = serialize(campaign, grid, 2, 0);
  const auto [csv_b, jsonl_b] = serialize(campaign, grid, 2, 0);
  EXPECT_EQ(csv_a, csv_b);  // same seed replays exactly
  const auto [csv_c, jsonl_c] = serialize(campaign, grid, 2, 1234);
  EXPECT_NE(csv_a, csv_c);  // a different base seed re-seeds the trace
}

// ---------------------------------------------------------------------------
// Replay-rework byte identity: the fig6/fig8 campaigns now evaluate every
// latency point by replaying one recorded miss profile per (bench, core).
// These tests pin the campaign CSV/JSONL bytes against a reference campaign
// that still simulates every point from scratch — i.e. the exact evaluator
// the campaigns used before the rework — so the profile engine cannot move
// a single output byte.
// ---------------------------------------------------------------------------

/// The pre-replay eval_cpu_point: one full run_simulation per grid point
/// (baseline + perturbed), no memoization, no profiles.
std::vector<ResultRow> eval_cpu_point_from_scratch(const ScenarioSpec& spec) {
  const workloads::CpuBenchmark* bench = nullptr;
  for (const auto& b : workloads::cpu_benchmarks())
    if (b.full_name() == spec.at("bench")) bench = &b;
  if (bench == nullptr) throw std::out_of_range("no benchmark " + spec.at("bench"));

  cpusim::SimConfig cfg;
  cfg.core.kind = spec.at("cpusim.core.kind") == "inorder"
                      ? cpusim::CoreKind::kInOrder
                      : cpusim::CoreKind::kOutOfOrder;
  cfg.warmup_instructions = spec.uint("cpusim.warmup");
  cfg.measured_instructions = spec.uint("cpusim.measured");
  workloads::TraceConfig trace_cfg = bench->trace;
  if (spec.base_seed != 0) trace_cfg.seed = spec.derived_seed();

  cfg.dram.extra_ns = 0.0;
  workloads::SyntheticTrace baseline_trace(trace_cfg);
  const cpusim::SimResult baseline = cpusim::run_simulation(baseline_trace, cfg);

  const double extra = spec.num("cpusim.dram.extra_ns");
  cpusim::SimResult result = baseline;
  if (extra != 0.0) {
    cfg.dram.extra_ns = extra;
    workloads::SyntheticTrace trace(trace_cfg);
    result = cpusim::run_simulation(trace, cfg);
  }

  ResultRow row;
  row.cells = {bench->suite,
               bench->input,
               bench->full_name(),
               spec.at("cpusim.core.kind"),
               scenario::num_to_string(extra),
               scenario::num_to_string(baseline.time_ns),
               scenario::num_to_string(result.time_ns),
               scenario::num_to_string(result.time_ns / baseline.time_ns - 1.0),
               scenario::num_to_string(result.llc_miss_rate),
               scenario::num_to_string(result.ipc)};
  return {std::move(row)};
}

void expect_campaign_bytes_match_reference(
    const char* name, const SweepGrid& grid,
    std::function<std::vector<ResultRow>(const ScenarioSpec&)> reference_eval) {
  const Campaign& campaign = scenario::campaign_by_name(name);
  Campaign reference = campaign;  // same columns, same grid; old evaluator
  reference.evaluate = std::move(reference_eval);

  const auto [redesign_csv, redesign_jsonl] = serialize(campaign, grid, 2, 0);
  std::ostringstream csv_os, jsonl_os;
  scenario::CsvSink csv(csv_os);
  scenario::JsonlSink jsonl(jsonl_os);
  SweepRunner(SweepOptions{.jobs = 1}).run(reference, grid, {&csv, &jsonl});

  EXPECT_FALSE(redesign_csv.empty()) << name;
  EXPECT_EQ(redesign_csv, csv_os.str()) << name;
  EXPECT_EQ(redesign_jsonl, jsonl_os.str()) << name;
}

void expect_campaign_bytes_match_from_scratch(const char* name, SweepGrid grid) {
  expect_campaign_bytes_match_reference(name, grid, eval_cpu_point_from_scratch);
}

TEST(ReplayByteIdentity, Fig6CampaignCsvIsByteIdenticalToFromScratchSimulation) {
  SweepGrid grid = scenario::campaign_by_name("fig6").default_grid();
  grid.set("bench", {"PARSEC/streamcluster/large", "Rodinia/nw/default", "NAS/cg/B"});
  grid.set("cpusim.warmup", {"20000"});
  grid.set("cpusim.measured", {"50000"});
  expect_campaign_bytes_match_from_scratch("fig6", std::move(grid));
}

TEST(ReplayByteIdentity, Fig8CampaignCsvIsByteIdenticalToFromScratchSimulation) {
  // fig8's shape: one core, a 25/30/35 ns grid — every point must replay to
  // the exact bytes a per-point simulation produces.
  SweepGrid grid = scenario::campaign_by_name("fig8").default_grid();
  grid.set("bench", {"PARSEC/streamcluster/large", "PARSEC/canneal/medium"});
  grid.set("cpusim.warmup", {"20000"});
  grid.set("cpusim.measured", {"50000"});
  expect_campaign_bytes_match_from_scratch("fig8", std::move(grid));
}

// ---------------------------------------------------------------------------
// Redesign byte identity: every remaining built-in campaign (fig9, table1,
// table3, sec6c; the cosim_* campaigns live in tests/test_cosim.cpp) pinned
// against its pre-redesign evaluator — the exact string-surgery code the
// campaigns used before the typed-registry API, reproduced here verbatim
// modulo axis names.  The redesigned evaluators resolve config structs from
// the registry; these tests prove that cannot move a single output byte.
// ---------------------------------------------------------------------------

/// Pre-redesign eval_gpu_point: default GpuConfig base, axes parsed by hand.
std::vector<ResultRow> eval_gpu_point_pre_redesign(const ScenarioSpec& spec) {
  const gpusim::AppProfile* app = nullptr;
  for (const auto& a : workloads::gpu_apps())
    if (a.name == spec.at("app")) app = &a;
  if (app == nullptr) throw std::out_of_range("no app " + spec.at("app"));

  const gpusim::AppMissProfile profile =
      gpusim::record_app_profile(*app, gpusim::GpuConfig{});
  const double baseline_us =
      gpusim::replay_app(*app, profile, gpusim::GpuConfig{}).time_us;

  gpusim::GpuConfig gpu;
  gpu.extra_hbm_ns = spec.num("gpusim.extra_hbm_ns");
  gpu.hbm_bandwidth_derate = spec.num("gpusim.hbm_bandwidth_derate");
  const gpusim::AppResult result = gpusim::replay_app(*app, profile, gpu);

  ResultRow row;
  row.cells = {app->name,
               app->suite,
               spec.at("gpusim.extra_hbm_ns"),
               spec.at("gpusim.hbm_bandwidth_derate"),
               scenario::num_to_string(baseline_us),
               scenario::num_to_string(result.time_us),
               scenario::num_to_string(result.time_us / baseline_us - 1.0),
               scenario::num_to_string(result.l2_miss_rate),
               scenario::num_to_string(result.hbm_txn_per_instr),
               scenario::num_to_string(result.mem_instr_fraction)};
  return {std::move(row)};
}

/// Pre-redesign eval_table1_point.
std::vector<ResultRow> eval_table1_point_pre_redesign(const ScenarioSpec& spec) {
  const auto& link = phot::link_by_name(spec.at("link"));
  const phot::GBps escape{spec.num("escape_gbs")};
  ResultRow row;
  row.cells = {link.name,
               spec.at("escape_gbs"),
               scenario::num_to_string(link.links_for_escape(escape)),
               scenario::num_to_string(link.power_for_escape(escape).value),
               scenario::num_to_string(link.bandwidth.value),
               link.co_packaged ? "yes" : "no"};
  return {std::move(row)};
}

/// Pre-redesign eval_table3_point: hand-assembled McmConfig, default rack.
std::vector<ResultRow> eval_table3_point_pre_redesign(const ScenarioSpec& spec) {
  rack::McmConfig mcm;
  mcm.fibers = spec.integer("mcm.fibers");
  mcm.wavelengths_per_fiber = spec.integer("mcm.wavelengths_per_fiber");
  mcm.gbps_per_wavelength = phot::Gbps{spec.num("mcm.gbps_per_wavelength")};
  const rack::McmPlan plan = rack::pack_rack(rack::RackConfig{}, mcm);

  std::vector<ResultRow> rows;
  for (const auto& p : plan.types) {
    ResultRow row;
    row.cells = {spec.at("mcm.fibers"),
                 spec.at("mcm.wavelengths_per_fiber"),
                 spec.at("mcm.gbps_per_wavelength"),
                 rack::to_string(p.type),
                 scenario::num_to_string(p.chips_per_mcm),
                 scenario::num_to_string(p.mcm_count),
                 scenario::num_to_string(p.per_chip_escape.value),
                 scenario::num_to_string(p.per_chip_share.value),
                 scenario::num_to_string(plan.total_mcms)};
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Pre-redesign eval_sec6c_point: hand-parsed fabric, default everything.
std::vector<ResultRow> eval_sec6c_point_pre_redesign(const ScenarioSpec& spec) {
  const core::RackSystem system(rack::fabric_kind_codec().parse(spec.at("system.fabric")));
  const phot::PowerBreakdown power = system.power_overhead();
  const phot::BaselineRackPower baseline;
  ResultRow row;
  row.cells = {spec.at("system.fabric"),
               scenario::num_to_string(power.transceivers.value),
               scenario::num_to_string(power.switches.value),
               scenario::num_to_string(power.total.value),
               scenario::num_to_string(baseline.total().value),
               scenario::num_to_string(power.overhead_vs_baseline),
               scenario::num_to_string(system.added_memory_latency_ns())};
  return {std::move(row)};
}

TEST(RedesignByteIdentity, Fig9CampaignMatchesPreRedesignEvaluator) {
  SweepGrid grid = scenario::campaign_by_name("fig9").default_grid();
  grid.set("app", {"backprop", "nw", "hotspot"});
  expect_campaign_bytes_match_reference("fig9", grid, eval_gpu_point_pre_redesign);
}

TEST(RedesignByteIdentity, Table1CampaignMatchesPreRedesignEvaluator) {
  expect_campaign_bytes_match_reference(
      "table1", scenario::campaign_by_name("table1").default_grid(),
      eval_table1_point_pre_redesign);
}

TEST(RedesignByteIdentity, Table3CampaignMatchesPreRedesignEvaluator) {
  expect_campaign_bytes_match_reference(
      "table3", scenario::campaign_by_name("table3").default_grid(),
      eval_table3_point_pre_redesign);
}

TEST(RedesignByteIdentity, Sec6cCampaignMatchesPreRedesignEvaluator) {
  expect_campaign_bytes_match_reference(
      "sec6c", scenario::campaign_by_name("sec6c").default_grid(),
      eval_sec6c_point_pre_redesign);
}

// ---------------------------------------------------------------------------
// The redesigned --set surface: any registered knob is addressable on any
// campaign; unknown paths and out-of-range values are rejected up front.
// ---------------------------------------------------------------------------

TEST(ParamAxes, OverrideAxisReplacesExistingGridAxis) {
  SweepGrid grid = scenario::campaign_by_name("fig8").default_grid();
  grid.override_axis("cpusim.dram.extra_ns", {"50", "100"});
  ASSERT_TRUE(grid.has("cpusim.dram.extra_ns"));
  EXPECT_EQ(grid.expand("t")[0].at("cpusim.dram.extra_ns"), "50");
  ASSERT_EQ(grid.overrides().size(), 1u);
  EXPECT_EQ(grid.overrides()[0].name, "cpusim.dram.extra_ns");
}

TEST(ParamAxes, OverrideAxisAppendsNovelRegisteredKnob) {
  // table3 does not sweep the rack geometry, but any registered knob can be
  // pinned onto it; resolve<rack::RackConfig> then sees the override.
  SweepGrid grid = scenario::campaign_by_name("table3").default_grid();
  const std::size_t before = grid.size();
  grid.override_axis("rack.nodes", {"64"});
  EXPECT_EQ(grid.size(), before);  // single value: no new sweep points
  const auto spec = grid.expand("table3")[0];
  EXPECT_EQ(spec.resolve<rack::RackConfig>("rack").nodes, 64);
  // And the evaluator actually consumes it: half the nodes, fewer MCMs.
  const auto res =
      SweepRunner().run(scenario::campaign_by_name("table3"), grid);
  EXPECT_LT(res.num(res.find({{"chip", "CPU"}}), "total_mcms"), 350);
}

TEST(ParamAxes, UnknownPathRejectedWithSuggestions) {
  SweepGrid grid = scenario::campaign_by_name("fig6").default_grid();
  try {
    grid.override_axis("cpusim.dram.extra_nss", {"35"});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("cpusim.dram.extra_ns"), std::string::npos)
        << e.what();
  }
  // A dotted path inside a known section is a typo, not a free axis — even
  // through the plain axis()/set() surface.
  SweepGrid fresh;
  EXPECT_THROW(fresh.axis("cpusim.warmupp", std::vector<std::string>{"1"}),
               std::out_of_range);
}

TEST(ParamAxes, OutOfRangeAndMistypedValuesRejectedUpFront) {
  SweepGrid grid = scenario::campaign_by_name("fig6").default_grid();
  EXPECT_THROW(grid.override_axis("cpusim.dram.extra_ns", {"-5"}), std::out_of_range);
  EXPECT_THROW(grid.override_axis("cpusim.dram.extra_ns", {"35ns"}),
               std::invalid_argument);
  EXPECT_THROW(grid.override_axis("cpusim.core.kind", {"superscalar"}),
               std::invalid_argument);
  EXPECT_THROW(grid.override_axis("rack.nodes", {"0"}), std::out_of_range);
}

TEST(ParamAxes, ResolveBuildsTypedConfigFromAxes) {
  ScenarioSpec spec;
  spec.campaign = "t";
  spec.axes = {{"bench", "x"},
               {"cpusim.core.kind", "ooo"},
               {"cpusim.dram.extra_ns", "35"},
               {"cpusim.warmup", "1000"},
               {"cpusim.llc.size_bytes", "1048576"}};
  const auto cfg = spec.resolve<cpusim::SimConfig>("cpusim");
  EXPECT_EQ(cfg.core.kind, cpusim::CoreKind::kOutOfOrder);
  EXPECT_DOUBLE_EQ(cfg.dram.extra_ns, 35.0);
  EXPECT_EQ(cfg.warmup_instructions, 1000u);
  EXPECT_EQ(cfg.hierarchy.llc.size_bytes, 1048576u);
  // Untouched knobs keep their struct defaults.
  EXPECT_EQ(cfg.measured_instructions, cpusim::SimConfig{}.measured_instructions);
}

// ---------------------------------------------------------------------------
// Manifests: every run emits one, into the SweepResult, the machine sinks'
// headers, and (via the CLI) a sidecar file.
// ---------------------------------------------------------------------------

TEST(Manifests, RunnerEmitsManifestIntoResultAndSinkHeaders) {
  const auto& campaign = scenario::campaign_by_name("table1");
  SweepGrid grid = campaign.default_grid();
  grid.override_axis("mcm.gbps_per_wavelength", {"32"});

  std::ostringstream csv_os, jsonl_os;
  scenario::CsvSink csv(csv_os);
  scenario::JsonlSink jsonl(jsonl_os);
  const auto res = SweepRunner().run(campaign, grid, {&csv, &jsonl});

  ASSERT_FALSE(res.manifest_json.empty());
  // Campaign id, the override, and the full resolved tree are all present.
  EXPECT_NE(res.manifest_json.find("\"campaign\":\"table1\""), std::string::npos);
  EXPECT_NE(res.manifest_json.find("\"mcm.gbps_per_wavelength\":\"32\""),
            std::string::npos)
      << res.manifest_json;
  EXPECT_NE(res.manifest_json.find("\"cosim.arrivals_per_ms\""), std::string::npos);
  // CSV: `# manifest ...` comment line above the header; JSONL: first line.
  EXPECT_EQ(csv_os.str().rfind("# manifest {", 0), 0u) << csv_os.str().substr(0, 80);
  EXPECT_EQ(jsonl_os.str().rfind("{\"manifest\":{", 0), 0u);
}

TEST(Manifests, ManifestIsDeterministicAcrossJobsLevels) {
  const auto& campaign = scenario::campaign_by_name("table3");
  const auto a = SweepRunner(SweepOptions{.jobs = 1}).run(campaign);
  const auto b = SweepRunner(SweepOptions{.jobs = 4}).run(campaign);
  EXPECT_EQ(a.manifest_json, b.manifest_json);
}

}  // namespace
}  // namespace photorack
