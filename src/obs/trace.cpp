#include "obs/trace.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "sim/table.hpp"

namespace photorack::obs {

namespace {

/// Sim picoseconds -> Trace-Event-Format microseconds.
std::string fmt_ts(sim::TimePs ps) {
  return sim::fmt_double(static_cast<double>(ps) /
                         static_cast<double>(sim::kPsPerUs));
}

constexpr const char* kTrackNames[] = {"sim", "jobs", "flows", "power", "faults"};

}  // namespace

void TraceRecorder::push(Event e) {
  ++recorded_;
  if (ring_capacity_ != 0 && events_.size() == ring_capacity_) {
    events_.pop_front();  // flight recorder: oldest event falls out first
    ++dropped_;
  }
  events_.push_back(std::move(e));
}

void TraceRecorder::complete(Track track, std::string name, sim::TimePs begin,
                             sim::TimePs end, Args args) {
  if (end < begin)
    throw std::invalid_argument("TraceRecorder: span '" + name + "' ends before it begins");
  push(Event{'X', track, std::move(name), begin, end - begin, std::move(args)});
}

void TraceRecorder::instant(Track track, std::string name, sim::TimePs ts, Args args) {
  push(Event{'i', track, std::move(name), ts, 0, std::move(args)});
}

void TraceRecorder::counter(Track track, std::string name, sim::TimePs ts, double value) {
  push(Event{'C', track, std::move(name), ts, 0, Args{{"value", value}}});
}

void TraceRecorder::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata first, so viewers label the tracks.
  for (int tid = 0; tid < 5; ++tid) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":" << sim::json_quote(kTrackNames[tid]) << "}}";
  }
  for (const Event& e : events_) {
    os << ",\n{\"name\":" << sim::json_quote(e.name) << ",\"cat\":"
       << sim::json_quote(kTrackNames[static_cast<int>(e.track)])
       << ",\"ph\":\"" << e.ph << "\",\"ts\":" << fmt_ts(e.ts);
    if (e.ph == 'X') os << ",\"dur\":" << fmt_ts(e.dur);
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << static_cast<int>(e.track);
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ",";
        os << sim::json_quote(e.args[i].first) << ":"
           << sim::fmt_double(e.args[i].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void TraceRecorder::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os)
    throw std::runtime_error("obs: cannot open trace file '" + path + "' for writing");
  write_json(os);
  os.flush();
  if (!os)
    throw std::runtime_error("obs: error writing trace file '" + path + "'");
}

}  // namespace photorack::obs
