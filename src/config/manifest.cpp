#include "config/manifest.hpp"

namespace photorack::config {

namespace {

void append_axis_list(
    std::string& out,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& list) {
  out += '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":";
    out += sim::json_quote(list[i].first);
    out += ",\"values\":[";
    for (std::size_t j = 0; j < list[i].second.size(); ++j) {
      if (j) out += ',';
      out += sim::json_quote(list[i].second[j]);
    }
    out += "]}";
  }
  out += ']';
}

}  // namespace

std::string Manifest::to_json(const ParamRegistry& reg) const {
  // Resolve the full tree: defaults, then every SINGLE-valued registry-path
  // axis (a multi-valued axis is the sweep dimension itself — its values
  // live in "axes", and each row's column carries the point's value).
  ConfigTree tree(reg);
  for (const auto& [name, values] : axes)
    if (values.size() == 1 && reg.has(name)) tree.set(name, values.front());

  std::string out = "{\"schema\":1,\"tool\":";
  out += sim::json_quote(tool);
  out += ",\"campaign\":";
  out += sim::json_quote(campaign);
  out += ",\"base_seed\":";
  out += std::to_string(base_seed);
  out += ",\"axes\":";
  append_axis_list(out, axes);
  out += ",\"overrides\":";
  append_axis_list(out, overrides);
  out += ",\"params\":";
  out += tree.to_json();
  out += '}';
  return out;
}

}  // namespace photorack::config
