// Co-sim campaign byte pins: the ten co-sim campaigns (cosim_*, ml_*,
// cluster_energy) run on their default grids and must serialize to exactly
// the header and data rows committed under tests/golden/ (`# manifest`
// comment lines are skipped on both sides).  cosim_tails, whose rows mix
// string and number cells, pins its JSONL rows too (the `{"manifest":` line
// is skipped the same way).  A refactor keeps these bytes; a fix that moves
// them re-pins on purpose.  To regenerate one campaign's golden, run from
// the build tree
//
//   ./src/scenario/photorack_sweep --campaign <c> --quiet --out golden-out/
//   grep -v '^#' golden-out/<c>.sweep.csv > ../tests/golden/<c>.csv
//   grep -v '^{"manifest":' golden-out/cosim_tails.jsonl > ../tests/golden/cosim_tails.jsonl
//
// and list every moved column, old -> new, in CHANGES.md.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

namespace photorack::scenario {
namespace {

/// The text without the lines that start with `skip` (the manifest line).
std::string rows_of(std::istream& in, const std::string& skip) {
  std::string out, line;
  while (std::getline(in, line))
    if (line.empty() || line.rfind(skip, 0) != 0) out += line + "\n";
  return out;
}

std::string golden_path(const std::string& name, const char* ext) {
  return std::string(PHOTORACK_GOLDEN_DIR) + "/" + name + ext;
}

class GoldenCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCampaign, DefaultGridMatchesCommittedCsv) {
  const std::string name = GetParam();
  const Campaign& campaign = campaign_by_name(name);
  const SweepResult res = SweepRunner(SweepOptions{.jobs = 2}).run(campaign);
  std::ostringstream csv_os, jsonl_os;
  write_csv(csv_os, res.columns, res.rows, res.manifest_json);
  write_jsonl(jsonl_os, res.columns, res.rows, res.manifest_json);

  std::istringstream produced(csv_os.str());
  std::ifstream golden(golden_path(name, ".csv"));
  ASSERT_TRUE(golden) << "no golden CSV for " << name;
  EXPECT_EQ(rows_of(produced, "#"), rows_of(golden, "#"));

  if (name != "cosim_tails") return;
  std::istringstream produced_jsonl(jsonl_os.str());
  std::ifstream golden_jsonl(golden_path(name, ".jsonl"));
  ASSERT_TRUE(golden_jsonl) << "no golden JSONL for " << name;
  EXPECT_EQ(rows_of(produced_jsonl, "{\"manifest\":"), rows_of(golden_jsonl, "{\"manifest\":"));
}

INSTANTIATE_TEST_SUITE_P(
    CosimCampaigns, GoldenCampaign,
    ::testing::Values("cosim_acceptance", "cosim_contention", "cosim_energy",
                      "cosim_tails", "cosim_availability", "cosim_blast_radius",
                      "ml_collectives", "ml_vs_hpc", "ml_mixed_rack", "cluster_energy"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace photorack::scenario
