#include "scenario/scenario_spec.hpp"

#include <limits>
#include <stdexcept>

#include "config/value_codec.hpp"
#include "sim/rng.hpp"

namespace photorack::scenario {

std::string ScenarioSpec::id() const {
  std::string out = campaign;
  out += '[';
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (i) out += ',';
    out += axes[i].first;
    out += '=';
    out += axes[i].second;
  }
  out += ']';
  return out;
}

config::ConfigTree ScenarioSpec::tree() const {
  config::ConfigTree out(config::registry());
  for (const auto& [name, value] : axes)
    if (out.registry().has(name)) out.set(name, value);
  return out;
}

std::uint64_t ScenarioSpec::derived_seed() const {
  // FNV-1a over the identity string, then splitmix64 to spread the bits.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t mix = h ^ (base_seed * 0x9e3779b97f4a7c15ULL);
  return sim::splitmix64(mix);
}

bool ScenarioSpec::has(const std::string& axis) const {
  for (const auto& [name, value] : axes)
    if (name == axis) return true;
  return false;
}

const std::string& ScenarioSpec::at(const std::string& axis) const {
  for (const auto& [name, value] : axes)
    if (name == axis) return value;
  throw std::out_of_range("ScenarioSpec: no axis '" + axis + "' in " + id());
}

double ScenarioSpec::num(const std::string& axis) const {
  const std::string& v = at(axis);
  try {
    return config::parse_double(v);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("ScenarioSpec: axis '" + axis + "' value '" + v +
                                "' is not numeric");
  }
}

std::uint64_t ScenarioSpec::uint(const std::string& axis) const {
  const std::string& v = at(axis);
  try {
    return config::parse_uint64(v);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("ScenarioSpec: axis '" + axis + "' value '" + v +
                                "' is not an unsigned integer");
  }
}

int ScenarioSpec::integer(const std::string& axis) const {
  const std::uint64_t v = uint(axis);
  if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument("ScenarioSpec: axis '" + axis + "' value '" +
                                at(axis) + "' overflows int");
  return static_cast<int>(v);
}

}  // namespace photorack::scenario
