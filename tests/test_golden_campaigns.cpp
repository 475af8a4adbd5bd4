// Co-sim campaign byte pins: the ten co-sim campaigns (cosim_*, ml_*,
// cluster_energy) run on their default grids and must serialize to exactly
// the header and data rows committed under tests/golden/ (`# manifest`
// comment lines are skipped on both sides).  A refactor keeps these bytes;
// a fix that moves them re-pins on purpose.  To regenerate one campaign's
// golden, run from the build tree
//
//   ./src/scenario/photorack_sweep --campaign <c> --quiet --out golden-out/
//   grep -v '^#' golden-out/<c>.sweep.csv > ../tests/golden/<c>.csv
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

/// The CSV text without its comment lines.
std::string rows_of(std::istream& in) {
  std::string out, line;
  while (std::getline(in, line))
    if (line.empty() || line[0] != '#') out += line + "\n";
  return out;
}

class GoldenCampaign : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCampaign, DefaultGridMatchesCommittedCsv) {
  const Campaign& campaign = campaign_by_name(GetParam());
  std::ostringstream os;
  CsvSink csv(os);
  SweepRunner(SweepOptions{.jobs = 2}).run(campaign, {&csv});
  std::istringstream produced(os.str());
  std::ifstream golden(std::string(PHOTORACK_GOLDEN_DIR) + "/" + GetParam() + ".csv");
  ASSERT_TRUE(golden) << "no golden CSV for " << GetParam();
  EXPECT_EQ(rows_of(produced), rows_of(golden));
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
