#include "scenario/sweep_grid.hpp"

#include <algorithm>
#include <stdexcept>

#include "config/bindings.hpp"
#include "sim/table.hpp"

namespace photorack::scenario {

namespace {

/// Registry-validate a (possibly) parameter axis.  A registered path gets
/// every value parsed and range-checked up front, so a sweep cannot start
/// with a value that would throw mid-run.  A dotted name whose first
/// segment IS a registered section but whose path is not a knob is a typo —
/// reject it with the registry's near-miss suggestions.  Anything else is a
/// free axis the campaign interprets.
void validate_axis_values(const std::string& name,
                          const std::vector<std::string>& values) {
  const config::ParamRegistry& reg = config::registry();
  if (const config::ParamInfo* p = reg.find(name)) {
    for (const std::string& v : values) p->check(v);
    return;
  }
  const std::size_t dot = name.find('.');
  if (dot != std::string::npos && reg.find_section(name.substr(0, dot)) != nullptr)
    (void)reg.at(name);  // throws std::out_of_range with suggestions
}

}  // namespace

std::string num_to_string(double v) { return sim::fmt_double(v); }

SweepGrid& SweepGrid::axis(std::string name, std::vector<std::string> values) {
  if (values.empty())
    throw std::invalid_argument("SweepGrid: axis '" + name + "' has no values");
  if (has(name)) throw std::invalid_argument("SweepGrid: duplicate axis '" + name + "'");
  validate_axis_values(name, values);
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

SweepGrid& SweepGrid::axis(std::string name, std::vector<double> values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(num_to_string(v));
  return axis(std::move(name), std::move(cells));
}

SweepGrid& SweepGrid::set(const std::string& name, std::vector<std::string> values) {
  if (values.empty())
    throw std::invalid_argument("SweepGrid: axis '" + name + "' has no values");
  validate_axis_values(name, values);
  for (auto& ax : axes_) {
    if (ax.name == name) {
      ax.values = std::move(values);
      return *this;
    }
  }
  std::string known;
  for (const auto& ax : axes_) {
    if (!known.empty()) known += ", ";
    known += ax.name;
  }
  throw std::out_of_range("SweepGrid: unknown axis '" + name + "' (grid axes: " + known +
                          ")");
}

SweepGrid& SweepGrid::override_axis(const std::string& name,
                                    std::vector<std::string> values) {
  if (values.empty())
    throw std::invalid_argument("SweepGrid: override '" + name + "' has no values");
  if (has(name)) {
    overrides_.push_back({name, values});
    return set(name, std::move(values));  // set() validates param values
  }
  const config::ParamRegistry& reg = config::registry();
  if (reg.find(name) == nullptr) {
    // Neither a grid axis nor a registered knob: combine both vocabularies
    // in one error so the user sees what IS addressable.
    std::string known;
    for (const auto& ax : axes_) {
      if (!known.empty()) known += ", ";
      known += ax.name;
    }
    std::string msg =
        "unknown axis or parameter '" + name + "' (grid axes: " + known + ")";
    const std::string hint = config::format_suggestions(reg.suggest(name));
    if (!hint.empty()) msg += "; " + hint;
    throw std::out_of_range(msg);
  }
  // A registered knob the campaign does not sweep: append it as a new
  // (usually single-valued) axis so resolve<T>() picks it up in every spec.
  validate_axis_values(name, values);
  overrides_.push_back({name, values});
  axes_.push_back({name, std::move(values)});
  return *this;
}

bool SweepGrid::has(const std::string& name) const {
  for (const auto& ax : axes_)
    if (ax.name == name) return true;
  return false;
}

std::size_t SweepGrid::size() const {
  std::size_t n = 1;
  for (const auto& ax : axes_) n *= ax.values.size();
  return axes_.empty() ? 0 : n;
}

std::vector<ScenarioSpec> SweepGrid::expand(const std::string& campaign,
                                            std::uint64_t base_seed) const {
  std::vector<ScenarioSpec> specs;
  if (axes_.empty()) return specs;
  const std::size_t total = size();
  specs.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    ScenarioSpec spec;
    spec.campaign = campaign;
    spec.index = index;
    spec.base_seed = base_seed;
    spec.axes.reserve(axes_.size());
    // Mixed-radix decomposition, last axis fastest.
    std::size_t rem = index;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      const auto& ax = axes_[a];
      spec.axes.emplace_back(ax.name, ax.values[rem % ax.values.size()]);
      rem /= ax.values.size();
    }
    std::reverse(spec.axes.begin(), spec.axes.end());
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace photorack::scenario
