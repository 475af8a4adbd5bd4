#include "obs/profile.hpp"

namespace photorack::obs {

Profiler::ScopeId Profiler::scope(const std::string& name) {
  for (ScopeId i = 0; i < entries_.size(); ++i)
    if (entries_[i].name == name) return i;
  entries_.push_back(Entry{name, 0, 0});
  return entries_.size() - 1;
}

void Profiler::record(ScopeId id, std::uint64_t ns) {
  Entry& e = entries_.at(id);
  ++e.count;
  e.total_ns += ns;
}

}  // namespace photorack::obs
