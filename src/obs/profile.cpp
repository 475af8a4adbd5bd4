#include "obs/profile.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "sim/table.hpp"

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

void Profiler::write_bench_json(std::ostream& os) const {
  os << "{\"benchmarks\":[";
  bool first = true;
  for (const Entry& e : entries_) {
    if (e.count == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << e.name
       << "\",\"items_per_sec\":" << sim::fmt_double(e.items_per_sec())
       << ",\"ns_per_op\":" << sim::fmt_double(e.ns_per_op()) << "}";
  }
  os << "]}\n";
}

void Profiler::write_bench_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os)
    throw std::runtime_error("obs: cannot open profile file '" + path + "' for writing");
  write_bench_json(os);
  os.flush();
  if (!os) throw std::runtime_error("obs: error writing profile file '" + path + "'");
}

}  // namespace photorack::obs
