// Shared helpers for the co-simulation and scenario suites: one report
// comparison driven by the report field table, and one campaign serializer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "cosim/report_fields.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_runner.hpp"

namespace photorack::testutil {

/// Expect `a` and `b` identical — ==, not "close" — on every field of the
/// named sections of cosim::report_fields(), or on every field when no
/// section is named.  A field added to the table joins every comparison.
inline void expect_same_report(const cosim::CosimReport& a, const cosim::CosimReport& b,
                               std::initializer_list<std::string_view> sections = {}) {
  for (const cosim::ReportField& f : cosim::report_fields())
    if (sections.size() == 0 ||
        std::find(sections.begin(), sections.end(), f.section) != sections.end())
      EXPECT_EQ(f.get(a), f.get(b)) << f.name;
}

/// CSV and JSONL bytes (manifest line included) of one sweep at `jobs`
/// workers and base seed `seed`.
inline std::pair<std::string, std::string> serialize(const scenario::Campaign& campaign,
                                                     const scenario::SweepGrid& grid,
                                                     std::size_t jobs,
                                                     std::uint64_t seed = 0) {
  const auto res = scenario::SweepRunner(scenario::SweepOptions{.jobs = jobs, .base_seed = seed})
                       .run(campaign, grid);
  std::ostringstream csv_os, jsonl_os;
  scenario::write_csv(csv_os, res.columns, res.rows, res.manifest_json);
  scenario::write_jsonl(jsonl_os, res.columns, res.rows, res.manifest_json);
  return {csv_os.str(), jsonl_os.str()};
}

}  // namespace photorack::testutil
