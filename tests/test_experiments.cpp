// Integration/regression tests pinning the reproduction's headline shapes,
// read from the fig6 and fig9 campaign rows the bench binaries summarize.
// The CPU sweep runs reduced instruction counts to stay fast; the bench
// binaries run the full configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/stats.hpp"
#include "workloads/cpu_profiles.hpp"

namespace photorack {
namespace {

using scenario::SweepResult;
using scenario::SweepRunner;
using Filter = SweepResult::Filter;

/// fig6 at +0/25/35/85 ns on both cores, at reduced instruction counts.
const SweepResult& cpu_sweep() {
  const auto& fig6 = scenario::campaign_by_name("fig6");
  static const SweepResult res =
      SweepRunner().run(fig6, fig6.default_grid()
                                  .set("cpusim.dram.extra_ns", {"0", "25", "35", "85"})
                                  .set("cpusim.warmup", {"300000"})
                                  .set("cpusim.measured", {"600000"}));
  return res;
}

/// fig9 at +0/35/85 ns, each at full and at the electronic HBM bandwidth.
const SweepResult& gpu_sweep() {
  const auto& fig9 = scenario::campaign_by_name("fig9");
  static const SweepResult res =
      SweepRunner().run(fig9, fig9.default_grid()
                                  .set("gpusim.extra_hbm_ns", {"0", "35", "85"})
                                  .set("gpusim.hbm_bandwidth_derate", {"1", "0.62"}));
  return res;
}

/// One in-order CPU cell at +35 ns.
double inorder_at35(const std::string& bench, const char* column) {
  const SweepResult& cpu = cpu_sweep();
  return cpu.num(cpu.find({{"bench", bench}, {"core", "inorder"}, {"extra_ns", "35"}}),
                 column);
}

/// Fig 12's photonic speedups: for each row matching `photonic`, the `time`
/// of the row with the same `key` matching `electronic`, over its own, minus 1.
std::vector<double> speedups(const SweepResult& res, const std::string& key,
                             const std::string& time, const Filter& photonic,
                             Filter electronic) {
  std::vector<double> out;
  electronic.emplace_back(key, "");
  for (const auto* row : res.where(photonic)) {
    electronic.back().second = res.cell(*row, key);
    out.push_back(res.num(res.find(electronic), time) / res.num(*row, time) - 1.0);
  }
  return out;
}

std::vector<double> cpu_speedups(const char* core) {
  return speedups(cpu_sweep(), "bench", "time_ns", {{"core", core}, {"extra_ns", "35"}},
                  {{"core", core}, {"extra_ns", "85"}});
}

std::vector<double> gpu_speedups(const char* electronic_derate) {
  return speedups(gpu_sweep(), "app", "time_us", {{"extra_ns", "35"}, {"derate", "1"}},
                  {{"extra_ns", "85"}, {"derate", electronic_derate}});
}

TEST(ExperimentsTest, SweepCoversFullMatrix) {
  // 61 benchmarks x 2 cores x 4 latencies.
  EXPECT_EQ(cpu_sweep().rows.size(), 61u * 2 * 4);
}

TEST(ExperimentsTest, BaselinesHaveZeroSlowdown) {
  for (const double s : cpu_sweep().values("slowdown", {{"extra_ns", "0"}}))
    EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(ExperimentsTest, SlowdownsAreNonNegative) {
  const SweepResult& cpu = cpu_sweep();
  for (const auto& row : cpu.rows)
    EXPECT_GE(cpu.num(row, "slowdown"), -1e-9) << cpu.cell(row, "bench");
}

TEST(ExperimentsTest, OverallAveragesInPaperBand) {
  // Paper: 15% in-order, 22% OOO.  Allow a generous band — the shape
  // matters, not the third digit.
  const double io = cpu_sweep().mean("slowdown", {{"core", "inorder"}, {"extra_ns", "35"}});
  const double ooo = cpu_sweep().mean("slowdown", {{"core", "ooo"}, {"extra_ns", "35"}});
  EXPECT_GT(io, 0.07);
  EXPECT_LT(io, 0.25);
  EXPECT_GT(ooo, 0.10);
  EXPECT_LT(ooo, 0.35);
  EXPECT_GT(ooo, io);  // OOO suffers more in relative terms
}

TEST(ExperimentsTest, NasIsNegligiblyAffected) {
  EXPECT_LT(cpu_sweep().mean("slowdown",
                             {{"suite", "NAS"}, {"core", "inorder"}, {"extra_ns", "35"}}),
            0.05);
}

TEST(ExperimentsTest, NwIsTheWorstCpuBenchmark) {
  const SweepResult& cpu = cpu_sweep();
  const double nw = inorder_at35("Rodinia/nw/default", "slowdown");
  EXPECT_GT(nw, 0.6);
  for (const auto* row : cpu.where({{"core", "inorder"}, {"extra_ns", "35"}}))
    EXPECT_LE(cpu.num(*row, "slowdown"), nw + 1e-9) << cpu.cell(*row, "bench");
}

TEST(ExperimentsTest, StreamclusterInputSizeStory) {
  EXPECT_LT(inorder_at35("PARSEC/streamcluster/small", "llc_miss_rate"), 0.05);
  EXPECT_GT(inorder_at35("PARSEC/streamcluster/large", "llc_miss_rate"), 0.60);
  EXPECT_LT(inorder_at35("PARSEC/streamcluster/small", "slowdown"), 0.05);
  EXPECT_GT(inorder_at35("PARSEC/streamcluster/large", "slowdown"), 0.40);
}

TEST(ExperimentsTest, MissRateCorrelationIsStrong) {
  const auto pearson = [](const Filter& filter) {
    return sim::pearson(cpu_sweep().values("slowdown", filter),
                        cpu_sweep().values("llc_miss_rate", filter));
  };
  EXPECT_GT(pearson({{"suite", "PARSEC"}, {"input", "large"}, {"core", "inorder"},
                     {"extra_ns", "35"}}),
            0.6);
  EXPECT_GT(pearson({{"suite", "Rodinia"}, {"core", "inorder"}, {"extra_ns", "35"}}), 0.6);
}

TEST(ExperimentsTest, LatencySensitivityIsMonotone) {
  for (const char* core : {"inorder", "ooo"}) {
    const double s25 = cpu_sweep().mean("slowdown", {{"core", core}, {"extra_ns", "25"}});
    const double s35 = cpu_sweep().mean("slowdown", {{"core", core}, {"extra_ns", "35"}});
    EXPECT_LT(s25, s35);
    EXPECT_NEAR(s25 / s35, 25.0 / 35.0, 0.25);  // roughly proportional
  }
}

TEST(ExperimentsTest, Fig6RowsCoverAllGroups) {
  const SweepResult& cpu = cpu_sweep();
  std::set<std::pair<std::string, std::string>> groups;
  for (const auto& row : cpu.rows)
    groups.emplace(cpu.cell(row, "suite"), cpu.cell(row, "input"));
  EXPECT_EQ(groups.size(), 7u);  // 3 PARSEC + 3 NAS + 1 Rodinia
  for (const auto& [suite, input] : groups) {
    const Filter filter = {
        {"suite", suite}, {"input", input}, {"core", "inorder"}, {"extra_ns", "35"}};
    EXPECT_GE(cpu.max("slowdown", filter), cpu.mean("slowdown", filter)) << suite << input;
  }
}

TEST(ExperimentsTest, GpuAverageNearPaper) {
  const Filter at35 = {{"extra_ns", "35"}, {"derate", "1"}};
  const double avg = gpu_sweep().mean("slowdown", at35);
  EXPECT_GT(avg, 0.02);
  EXPECT_LT(avg, 0.10);  // paper: 5.35%
  EXPECT_LT(gpu_sweep().max("slowdown", at35), 0.15);
}

TEST(ExperimentsTest, Fig10InputsCorrelateWithSlowdown) {
  // Fig 10 reads these fig9 columns at +35 ns; its bench prints r = 0.826
  // (L2 miss rate) and 0.866 (HBM transactions per instruction).
  const SweepResult& gpu = gpu_sweep();
  const Filter at35 = {{"extra_ns", "35"}, {"derate", "1"}};
  const auto slowdown = gpu.values("slowdown", at35);
  EXPECT_GT(sim::pearson(slowdown, gpu.values("l2_miss_rate", at35)), 0.6);
  EXPECT_GT(sim::pearson(slowdown, gpu.values("hbm_txn_per_instr", at35)), 0.6);
  for (const double f : gpu.values("mem_instr_fraction", at35)) {
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.0);
  }
}

TEST(ExperimentsTest, GpusTolerateLatencyBetterThanCpus) {
  const SweepResult& gpu = gpu_sweep();
  double worst_gpu = 0, worst_cpu = 0;
  for (const auto& name : workloads::rodinia_cpu_gpu_intersection()) {
    worst_gpu = std::max(
        worst_gpu,
        gpu.num(gpu.find({{"app", name}, {"extra_ns", "35"}, {"derate", "1"}}), "slowdown"));
    worst_cpu = std::max(worst_cpu, inorder_at35("Rodinia/" + name + "/default", "slowdown"));
  }
  EXPECT_LT(worst_gpu, worst_cpu);
}

TEST(ExperimentsTest, PhotonicBeatsElectronicEverywhere) {
  const auto inorder = cpu_speedups("inorder");
  const auto gpu = gpu_speedups("0.62");
  EXPECT_GT(sim::mean_of(inorder), 0.0);
  EXPECT_GT(sim::mean_of(cpu_speedups("ooo")), 0.0);
  EXPECT_GT(sim::mean_of(gpu), 0.0);
  for (const double s : inorder) EXPECT_GE(s, -1e-9);
  for (const double s : gpu) EXPECT_GE(s, -1e-9);
}

TEST(ExperimentsTest, ElectronicGpuComparisonReflectsBandwidthDerate) {
  EXPECT_GT(sim::mean_of(gpu_speedups("0.62")), sim::mean_of(gpu_speedups("1")));
}

TEST(ExperimentsTest, FindThrowsForUnknownBenchmark) {
  EXPECT_THROW(cpu_sweep().find({{"bench", "PARSEC/nope/large"}, {"core", "inorder"},
                                 {"extra_ns", "35"}}),
               std::out_of_range);
  EXPECT_THROW(gpu_sweep().find({{"app", "nope"}, {"extra_ns", "35"}, {"derate", "1"}}),
               std::out_of_range);
}

TEST(ExperimentsTest, UnknownBenchmarkInAGridThrows) {
  const auto& fig6 = scenario::campaign_by_name("fig6");
  EXPECT_THROW(SweepRunner().run(fig6, fig6.default_grid().set("bench", {"PARSEC/nope/large"})),
               std::out_of_range);
  const auto& fig9 = scenario::campaign_by_name("fig9");
  EXPECT_THROW(SweepRunner().run(fig9, fig9.default_grid().set("app", {"nope"})),
               std::out_of_range);
}

}  // namespace
}  // namespace photorack
