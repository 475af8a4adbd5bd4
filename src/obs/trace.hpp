#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace photorack::obs {

/// Named tracks the trace groups events onto.  They render as separate
/// threads in Perfetto / chrome://tracing (the recorder emits the matching
/// thread_name metadata), so the job timeline, the flow timeline and the
/// power counters stay visually separated.
enum class Track : int {
  kSim = 0,     // event-loop housekeeping (view refreshes, sampler ticks)
  kJobs = 1,    // job lifecycle: arrival/enqueue/reject instants, hold spans
  kFlows = 2,   // per-flow open->close spans
  kPower = 3,   // power/energy counter tracks
  kFaults = 4,  // fault engine: fail/repair/revoke/requeue/degrade instants
};

/// Deterministic Chrome-trace-event recorder keyed on SIMULATION time.
///
/// Every timestamp comes from the caller's sim::TimePs clock — never wall
/// clock — so two runs of the same seed produce byte-identical traces, and a
/// trace can be diffed like any other campaign artifact.  Events are held in
/// memory (traces are bounded by the run, or by the ring) and serialized by
/// write_json() in the Trace Event Format's "JSON object" flavor:
///
///   {"traceEvents":[...], "displayTimeUnit":"ms"}
///
/// with `ts`/`dur` in microseconds (double), loadable by Perfetto and
/// chrome://tracing as-is.
///
/// Flight-recorder mode: a non-zero `ring_capacity` keeps only the LAST
/// `ring_capacity` events (eviction in record order), so a long run can
/// carry a bounded always-on recorder and dump the tail on anomaly.
/// dropped() counts evictions.
///
/// The null sink is a null TraceRecorder pointer at the instrumentation
/// site: `if (trace) trace->instant(...)` — one pointer test when disabled.
class TraceRecorder {
 public:
  /// Numeric event arguments, rendered into the event's "args" object.
  using Args = std::vector<std::pair<std::string, double>>;

  explicit TraceRecorder(std::size_t ring_capacity = 0)
      : ring_capacity_(ring_capacity) {}

  /// A completed span [begin, end] on `track` (ph:"X").  Recorded when the
  /// span closes, which is when both endpoints are known; `end < begin`
  /// throws std::invalid_argument.
  void complete(Track track, std::string name, sim::TimePs begin, sim::TimePs end,
                Args args = {});

  /// A zero-duration instant at `ts` (ph:"i", thread-scoped).
  void instant(Track track, std::string name, sim::TimePs ts, Args args = {});

  /// One sample of counter track `name` (ph:"C"); Perfetto renders the
  /// series as a stepped area chart.
  void counter(Track track, std::string name, sim::TimePs ts, double value);

  [[nodiscard]] std::size_t events() const { return events_.size(); }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Serialize the trace; stream errors are left on `os` for the caller.
  void write_json(std::ostream& os) const;

  /// write_json() into `path`; throws std::runtime_error naming the path
  /// when the file cannot be opened or the write fails (no silent
  /// truncation — a trace that cannot be stored must be loud).
  void write_json_file(const std::string& path) const;

 private:
  struct Event {
    char ph;  // 'X' | 'i' | 'C'
    Track track;
    std::string name;
    sim::TimePs ts = 0;
    sim::TimePs dur = 0;  // 'X' only
    Args args;
  };

  void push(Event e);

  std::size_t ring_capacity_;
  std::deque<Event> events_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace photorack::obs
