#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace photorack::scenario {

/// One sweep dimension: an axis name and the values it takes.  An axis
/// name is either a config-registry path (validated and range-checked as
/// values are added) or a free name the campaign interprets (benchmark,
/// app, policy).  Values are strings so a single grid can mix names and
/// numeric parameters; specs resolve them when evaluated.
struct Axis {
  std::string name;
  std::vector<std::string> values;
};

/// Cross-product builder: axes go in, the expanded list of ScenarioSpecs
/// comes out.  Expansion order is deterministic — axes vary like digits of a
/// mixed-radix counter with the LAST axis fastest — so spec indices are
/// stable and sweeps serialize identically run after run.
class SweepGrid {
 public:
  SweepGrid& axis(std::string name, std::vector<std::string> values);
  SweepGrid& axis(std::string name, std::vector<double> values);

  /// Replace the values of an existing axis.  Throws std::out_of_range for
  /// axes the grid does not have.
  SweepGrid& set(const std::string& name, std::vector<std::string> values);

  /// The CLI's `--set name=v1,v2`: replace an existing axis, or — when
  /// `name` is a registered parameter path the grid does not sweep — append
  /// it as a new axis so the override reaches every spec (and the manifest).
  /// Unknown names throw std::out_of_range listing near-miss suggestions
  /// from both the grid and the registry; out-of-range or mistyped values
  /// throw before anything runs.
  SweepGrid& override_axis(const std::string& name, std::vector<std::string> values);

  [[nodiscard]] const std::vector<Axis>& axes() const { return axes_; }
  [[nodiscard]] bool has(const std::string& name) const;
  /// The override_axis() calls applied so far, in order (for manifests).
  [[nodiscard]] const std::vector<Axis>& overrides() const { return overrides_; }

  /// Number of specs expand() will produce (product of axis sizes).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::vector<ScenarioSpec> expand(const std::string& campaign,
                                                 std::uint64_t base_seed = 0) const;

 private:
  std::vector<Axis> axes_;
  std::vector<Axis> overrides_;
};

/// Canonical string form of a numeric axis value: shortest representation
/// that round-trips the double exactly (sim::fmt_double).  Used both
/// by SweepGrid::axis(double) and by campaigns formatting result cells, so
/// values compare bit-exactly across serialize/parse cycles.
[[nodiscard]] std::string num_to_string(double v);

}  // namespace photorack::scenario
