#include "config/param_registry.hpp"

#include <algorithm>

namespace photorack::config {

namespace {

/// Levenshtein distance, the usual two-row DP.  Paths are short (< 40
/// chars), so this is plenty fast for error-path suggestion ranking.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

const ParamInfo* ParamRegistry::find(const std::string& path) const {
  const auto it = param_index_.find(path);
  if (it == param_index_.end()) return nullptr;
  return &sections_[it->second.first]->params()[it->second.second];
}

const ParamInfo& ParamRegistry::at(const std::string& path) const {
  if (const ParamInfo* p = find(path)) return *p;
  std::string msg = "unknown parameter '" + path + "'";
  const std::string hint = format_suggestions(suggest(path));
  if (!hint.empty()) msg += " (" + hint + ")";
  throw std::out_of_range(msg);
}

const SectionInfo* ParamRegistry::find_section(const std::string& name) const {
  const auto it = section_index_.find(name);
  return it == section_index_.end() ? nullptr : sections_[it->second].get();
}

std::vector<const ParamInfo*> ParamRegistry::params() const {
  std::vector<const ParamInfo*> out;
  for (const auto& s : sections_)
    for (const auto& p : s->params()) out.push_back(&p);
  return out;
}

std::vector<std::string> ParamRegistry::suggest(const std::string& path,
                                                std::size_t max_results) const {
  // Rank every registered path by edit distance; also treat a matching
  // leaf name ("warmup" for "cpusim.warmup") as a strong suggestion, since
  // forgetting the section prefix is the common slip.
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& s : sections_) {
    for (const auto& p : s->params()) {
      std::size_t d = edit_distance(path, p.path);
      const std::size_t dot = p.path.rfind('.');
      const std::string leaf = dot == std::string::npos ? p.path : p.path.substr(dot + 1);
      if (leaf == path) d = std::min<std::size_t>(d, 1);
      ranked.emplace_back(d, p.path);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> out;
  for (const auto& [d, p] : ranked) {
    // Beyond half the path's length the "suggestion" is noise, not help.
    if (d > std::max<std::size_t>(3, path.size() / 2)) break;
    out.push_back(p);
    if (out.size() >= max_results) break;
  }
  return out;
}

const ParamInfo& ParamRegistry::at_in(const SectionInfo& s,
                                      const std::string& path) const {
  const ParamInfo& p = at(path);  // suggestions on unknown paths
  if (path.compare(0, s.name().size() + 1, s.name() + ".") != 0)
    throw std::out_of_range("parameter '" + path + "' is not in section '" + s.name() +
                            "'");
  return p;
}

void ParamRegistry::add_param(SectionInfo& s, ParamInfo p) {
  if (param_index_.count(p.path))
    throw std::logic_error("ParamRegistry: duplicate parameter '" + p.path + "'");
  param_index_.emplace(p.path,
                       std::make_pair(section_index_.at(s.name()), s.params_.size()));
  s.params_.push_back(std::move(p));
}

// ---------------------------------------------------------------------------
// ConfigTree
// ---------------------------------------------------------------------------

ConfigTree::ConfigTree(const ParamRegistry& reg) : reg_(&reg) {}

ConfigTree& ConfigTree::set(const std::string& path, const std::string& value) {
  const ParamInfo& p = reg_->at(path);  // throws with suggestions
  p.check(value);                       // throws on bad / out-of-range value
  overrides_.emplace_back(path, value);
  return *this;
}

const std::string& ConfigTree::value(const std::string& path) const {
  const ParamInfo& p = reg_->at(path);
  for (auto it = overrides_.rbegin(); it != overrides_.rend(); ++it)
    if (it->first == path) return it->second;
  return p.default_value;
}

std::string ConfigTree::to_json() const {
  std::vector<const ParamInfo*> all = reg_->params();
  std::sort(all.begin(), all.end(),
            [](const ParamInfo* a, const ParamInfo* b) { return a->path < b->path; });
  std::string out = "{";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i) out += ',';
    out += sim::json_quote(all[i]->path);
    out += ':';
    out += sim::json_quote(value(all[i]->path));
  }
  out += '}';
  return out;
}

std::string format_suggestions(const std::vector<std::string>& near) {
  if (near.empty()) return "";
  std::string out = "did you mean ";
  for (std::size_t i = 0; i < near.size(); ++i) {
    if (i) out += ", ";
    out += near[i];
  }
  out += '?';
  return out;
}

}  // namespace photorack::config
