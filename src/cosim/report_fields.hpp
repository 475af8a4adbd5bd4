#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cosim/rack_cosim.hpp"

namespace photorack::cosim {

/// One column of the co-simulation report schema: the name campaigns use as
/// a CSV header and the CLI prints as a row label, its unit, the report
/// section it belongs to, and the getter that reads it off a CosimReport.
///
/// Units: "count" (an integer tally), "frac" (a fraction in [0,1]), "x" (a
/// dimensionless multiplier), or a physical unit ("ms", "kJ", "kW", "Gb/s",
/// "hops").  Sections: jobs, tails, flows, speed, energy, events, fault, ml.
struct ReportField {
  std::string_view name;
  std::string_view unit;
  std::string_view section;
  double (*get)(const CosimReport&);
};

/// The one list of report columns, in presentation order.  The CLI table,
/// every co-sim campaign's columns and the tests' report comparisons all
/// read it, so a field added here reaches all three.
[[nodiscard]] const std::vector<ReportField>& report_fields();

/// Lookup by name; throws std::out_of_range naming the unknown field.
[[nodiscard]] const ReportField& report_field(std::string_view name);

}  // namespace photorack::cosim
