#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace photorack::sim {

/// Always-on lifecycle counters of one EventQueue.  Kept as a plain struct
/// of integers (increments on the schedule/dispatch/cancel paths cost one
/// add each) so every simulator can surface event-loop health in its report
/// without an observability layer attached.
struct EventQueueStats {
  std::uint64_t scheduled = 0;     // ids issued: one per event, runs included
  std::uint64_t dispatched = 0;    // handlers actually executed
  std::uint64_t cancelled = 0;     // cancels that removed a pending event
  std::uint64_t pending_peak = 0;  // high-water mark of pending()
};

/// Discrete-event simulation kernel.
///
/// Events are closures ordered by (time, id); ids are issued in insertion
/// order, so ties in time fire in insertion order, which makes every
/// simulation in this project deterministic regardless of heap internals.
///
/// Storage: the binary heap holds small {time, seq, slot} nodes.  A plain
/// event's handler lives in a slot vector recycled through a free list and
/// is moved out before it runs.  Pending ids are one bit each in a bitset
/// indexed by id.  A sorted run (schedule_sorted) keeps only its next entry
/// in the heap, so arming a long precomputed timeline costs one heap node
/// instead of one per entry.
///
/// Cancelled plain nodes are counted.  Once they are more than half of the
/// heap, cancel() drops them all in one pass and rebuilds the heap, so a
/// workload that revokes most of what it schedules keeps a heap about as
/// deep as its live events.  Keys are unique, so any heap over the same
/// nodes pops in the same order: pop order never depends on when a purge
/// ran.  Run nodes are never purged; a cancelled run entry is skipped when
/// it surfaces.
class EventQueue {
 public:
  using Handler = std::function<void()>;
  /// Handler of a sorted run; called with the firing entry's index.
  using RunHandler = std::function<void(std::size_t)>;

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  /// Returns a monotonically increasing event id usable with cancel().
  std::uint64_t schedule_at(TimePs at, Handler fn);

  /// Schedule `fn` `delay` picoseconds after the current time.
  std::uint64_t schedule_after(TimePs delay, Handler fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule one event per entry of `times`: entry i runs `fn(i)` at
  /// times[i] under id first + i, where `first` is the returned id.  Ids,
  /// same-time order, pending(), stats() and cancel() behave exactly as if
  /// the entries had been scheduled one at a time with schedule_at.  `times`
  /// must be non-decreasing and start at or after now(); otherwise this
  /// throws std::invalid_argument before any state changes.  An empty run
  /// changes nothing and returns the id the next event will get.  `fn` is
  /// kept until the run's last entry leaves the queue and stays valid while
  /// handlers schedule more events.
  std::uint64_t schedule_sorted(std::vector<TimePs> times, RunHandler fn);

  /// Cancel a pending event.  A cancelled event never runs: its node is
  /// skipped when it reaches the head of the queue, or dropped earlier by a
  /// purge.  Its handler is destroyed then, so it may be destroyed during a
  /// later cancel() of some other event, not only when its node would have
  /// surfaced.  Returns false if the id was never scheduled; cancelling an
  /// already-fired (or already-cancelled) event returns true and is a true
  /// no-op — pending() and empty() are unaffected.  Safe to call from inside
  /// a running handler, including for events scheduled at the current
  /// timestamp.
  bool cancel(std::uint64_t event_id);

  /// Run a single event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `until` (exclusive) is reached.
  /// Returns the number of events executed.
  std::uint64_t run(TimePs until = INT64_MAX);

  /// Timestamp of the next pending event, or INT64_MAX when drained.
  /// Prunes lazily-cancelled entries off the heap top first, so the answer
  /// is the time step() would actually execute next — the lower bound a
  /// conservative-window coordinator (cluster::ClusterCosim) synchronizes
  /// on.  Does not advance time or run anything.
  [[nodiscard]] TimePs next_time();

  [[nodiscard]] TimePs now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::uint64_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] EventQueueStats stats() const {
    return EventQueueStats{next_seq_, executed_, cancelled_, pending_peak_};
  }

 private:
  /// One heap entry.  `slot` indexes slots_ for a plain event; with kRunBit
  /// set it indexes runs_, and `seq - first` is the entry's index in the run.
  struct Node {
    TimePs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Node& a, const Node& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// A sorted run: entry i has id first + i.  Boxed so its handler keeps
  /// its address while a running entry grows runs_.
  struct Run {
    std::uint64_t first;
    std::vector<TimePs> times;
    RunHandler fn;
  };
  static constexpr std::uint32_t kRunBit = std::uint32_t{1} << 31;

  [[nodiscard]] bool is_pending(std::uint64_t id) const {
    return (pending_bits_[id >> 6] >> (id & 63)) & 1;
  }
  void mark_pending(std::uint64_t id);
  void clear_pending(std::uint64_t id);
  void note_peak() {
    if (pending_ > pending_peak_) pending_peak_ = pending_;
  }

  /// Pops the heap top; a run entry with a successor is replaced by it.
  Node pop_top();
  /// Frees what a popped node held: its slot, or its run after the last entry.
  void retire(const Node& node);
  /// Drops cancelled nodes off the heap top.  False once the heap is empty.
  bool settle();
  /// True when `id` is an entry of a live sorted run.
  [[nodiscard]] bool in_run(std::uint64_t id) const;
  /// Drops every cancelled plain node, retiring its slot, and re-heapifies.
  void purge();

  std::vector<Node> heap_;
  std::vector<Handler> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Run>> runs_;
  // Bit `id` is set while the event is scheduled but neither fired nor
  // cancelled.  A node whose bit is clear was cancelled and is skipped when
  // it surfaces; bits are cleared before dispatch, so a late cancel() of a
  // fired event is a no-op.
  std::vector<std::uint64_t> pending_bits_;
  std::uint64_t pending_ = 0;
  std::size_t stale_ = 0;  // cancelled plain nodes still in heap_
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t pending_peak_ = 0;
};

}  // namespace photorack::sim
