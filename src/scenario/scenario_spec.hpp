#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/bindings.hpp"

namespace photorack::scenario {

/// One point of a design-space sweep, fully described by its axis values.
/// A spec is declarative: an axis is either a config-registry path
/// ("cpusim.dram.extra_ns") that resolve<T>() turns into a populated
/// config struct, or a free axis (benchmark name, app name, policy) the
/// campaign interprets itself.  The spec's identity — campaign name plus
/// every axis=value pair — also seeds the scenario, so a spec reproduces
/// bit-identically no matter where in a parallel sweep it runs.
struct ScenarioSpec {
  std::string campaign;
  std::size_t index = 0;  // stable position in the expanded grid
  std::vector<std::pair<std::string, std::string>> axes;  // in grid order
  std::uint64_t base_seed = 0;

  /// Canonical identity string: "campaign[axis1=v1,axis2=v2,...]".
  [[nodiscard]] std::string id() const;

  /// Deterministic per-scenario seed: a hash of id() mixed with base_seed.
  /// Equal specs derive equal seeds in every process, so parallel and serial
  /// sweeps are bit-identical; distinct specs get independent streams.
  [[nodiscard]] std::uint64_t derived_seed() const;

  [[nodiscard]] bool has(const std::string& axis) const;
  /// Value of an axis; throws std::out_of_range for unknown axes.
  [[nodiscard]] const std::string& at(const std::string& axis) const;
  /// Numeric accessors: strict whole-string parses (config/value_codec);
  /// trailing garbage ("35ns"), hex and wrapped negatives throw
  /// std::invalid_argument naming the axis.
  [[nodiscard]] double num(const std::string& axis) const;
  [[nodiscard]] std::uint64_t uint(const std::string& axis) const;
  [[nodiscard]] int integer(const std::string& axis) const;

  /// The spec as a config tree: every axis whose name is a registered path,
  /// set in axis order.  Free axes stay out.
  [[nodiscard]] config::ConfigTree tree() const;

  /// Build the registry section's config struct for this spec: struct
  /// defaults, then the tree's overrides inside `section`.  This is how
  /// evaluators receive typed configs instead of doing per-axis string
  /// surgery — and why a `--set any.path=value` override reaches every
  /// campaign that resolves the path's section.
  template <typename T>
  [[nodiscard]] T resolve(const std::string& section) const {
    return tree().build<T>(section);
  }
};

}  // namespace photorack::scenario
