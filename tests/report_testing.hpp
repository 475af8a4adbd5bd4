// Shared helpers for the co-simulation suites: one report comparison driven
// by the report field table, and one campaign serializer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
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

/// CSV and JSONL bytes of one sweep at `jobs` workers.
inline std::pair<std::string, std::string> serialize(const scenario::Campaign& campaign,
                                                     const scenario::SweepGrid& grid,
                                                     std::size_t jobs) {
  std::ostringstream csv_os, jsonl_os;
  scenario::CsvSink csv(csv_os);
  scenario::JsonlSink jsonl(jsonl_os);
  scenario::SweepRunner(scenario::SweepOptions{.jobs = jobs, .base_seed = 0})
      .run(campaign, grid, {&csv, &jsonl});
  return {csv_os.str(), jsonl_os.str()};
}

}  // namespace photorack::testutil
