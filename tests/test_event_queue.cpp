#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace photorack::sim {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) q.schedule_at(5, [&order, i] { order.push_back(i); });
  q.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  TimePs seen = -1;
  q.schedule_at(100, [&] { q.schedule_after(50, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_EQ(seen, 150);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(50, [] {}), std::invalid_argument);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(1234));
}

TEST(EventQueue, RunUntilStopsBeforeBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  const auto n = q.run(/*until=*/20);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  q.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) q.schedule_after(1, step);
  };
  q.schedule_at(0, step);
  q.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(q.now(), 99);
  EXPECT_EQ(q.executed(), 100u);
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  const auto a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

// ---------------------------------------------------------------------------
// Stress and interleaving (ISSUE 4 satellite): mass timestamp ties, cancels
// issued from inside running handlers, and re-entrant scheduling at the
// current timestamp — the patterns the co-simulation's coupled layers lean
// on for determinism.
// ---------------------------------------------------------------------------

TEST(EventQueueStress, TenThousandEqualTimestampsPopInInsertionOrder) {
  EventQueue q;
  constexpr int kEvents = 10'000;
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i)
    q.schedule_at(42, [&order, i] { order.push_back(i); });
  q.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i)
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "tie broken out of order at " << i;
  EXPECT_EQ(q.executed(), static_cast<std::uint64_t>(kEvents));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, CancelDuringDispatchSkipsSameTimeAndLaterEvents) {
  EventQueue q;
  std::vector<int> fired;
  std::uint64_t same_time_id = 0, later_id = 0;
  q.schedule_at(5, [&] {
    fired.push_back(0);
    EXPECT_TRUE(q.cancel(same_time_id));  // tie scheduled after this handler
    EXPECT_TRUE(q.cancel(later_id));
  });
  same_time_id = q.schedule_at(5, [&] { fired.push_back(1); });
  later_id = q.schedule_at(9, [&] { fired.push_back(2); });
  q.schedule_at(10, [&] { fired.push_back(3); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 3}));
}

TEST(EventQueueStress, CancellingTheRunningEventIsANoop) {
  EventQueue q;
  int fired = 0;
  std::uint64_t self = 0;
  self = q.schedule_at(5, [&] {
    ++fired;
    EXPECT_TRUE(q.cancel(self));  // already dispatched: returns true, no-op
  });
  q.schedule_at(6, [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, LateCancelOfFiredEventDoesNotCorruptPending) {
  EventQueue q;
  const auto early = q.schedule_at(1, [] {});
  q.step();
  q.schedule_at(10, [] {});
  ASSERT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(early));  // fired long ago: true, but a real no-op
  EXPECT_EQ(q.pending(), 1u);    // the regression: this used to drop to 0
  EXPECT_FALSE(q.empty());
  q.run();
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueStress, ReentrantSchedulingAtCurrentTimeRunsAfterExistingTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(7, [&] {
    order.push_back(0);
    // Same-timestamp re-entrant event: must fire after every tie that was
    // already queued (insertion order), not before.
    q.schedule_at(7, [&] { order.push_back(9); });
  });
  q.schedule_at(7, [&] { order.push_back(1); });
  q.schedule_at(7, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueueStress, DeepReentrantChainsAtOneTimestampTerminate) {
  EventQueue q;
  int depth = 0;
  std::function<void()> reenter = [&] {
    if (++depth < 5'000) q.schedule_at(q.now(), reenter);
  };
  q.schedule_at(3, reenter);
  q.run();
  EXPECT_EQ(depth, 5'000);
  EXPECT_EQ(q.now(), 3);
}

TEST(EventQueueStress, RandomCancellationStormStaysConsistent) {
  EventQueue q;
  // Deterministic LCG so the storm replays identically.
  std::uint64_t state = 12345;
  auto rnd = [&state](std::uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  std::vector<std::uint64_t> ids;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i)
    ids.push_back(q.schedule_at(static_cast<TimePs>(rnd(100)), [&] { ++fired; }));
  // Cancel a random half — repeats included, so some cancels hit ids that
  // are already cancelled and must stay no-ops.
  for (int i = 0; i < 5'000; ++i) EXPECT_TRUE(q.cancel(ids[rnd(ids.size())]));
  // Conservation: exactly the surviving pending events fire, nothing else.
  const std::uint64_t pending_before = q.pending();
  q.run();
  EXPECT_EQ(static_cast<std::uint64_t>(fired), pending_before);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueStats, CountsScheduledDispatchedCancelledAndPendingPeak) {
  EventQueue q;
  EXPECT_EQ(q.stats().scheduled, 0u);
  EXPECT_EQ(q.stats().dispatched, 0u);
  EXPECT_EQ(q.stats().cancelled, 0u);
  EXPECT_EQ(q.stats().pending_peak, 0u);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(q.schedule_at(static_cast<TimePs>(i + 1), [] {}));
  EXPECT_EQ(q.stats().scheduled, 5u);
  EXPECT_EQ(q.stats().pending_peak, 5u);

  // Only cancels that remove a pending event count; repeats are no-ops.
  EXPECT_TRUE(q.cancel(ids[0]));
  q.cancel(ids[0]);
  EXPECT_EQ(q.stats().cancelled, 1u);

  q.run();
  const EventQueueStats s = q.stats();
  EXPECT_EQ(s.scheduled, 5u);
  EXPECT_EQ(s.dispatched, 4u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.pending_peak, 5u);  // high-water mark survives the drain
}

TEST(EventQueueStress, CancelStormUnderRevocationConservesEveryJob) {
  // Shape of the fault engine's kill path: each "job" holds a pending
  // completion event; "fault" handlers interleaved with them cancel batches
  // of completions from INSIDE running handlers and schedule replacements
  // (the requeue).  Every job must end exactly once — completed or revoked —
  // no double fires, no lost events, with stats conserving throughout.
  EventQueue q;
  constexpr int kJobs = 2'000;
  std::vector<std::uint64_t> completion(kJobs, 0);
  std::vector<int> done(kJobs, 0);    // fires per job: must end at exactly 1
  std::vector<char> revoked(kJobs, 0);

  for (int j = 0; j < kJobs; ++j) {
    const TimePs at = static_cast<TimePs>(10 + (j * 7) % 1000);
    completion[j] = q.schedule_at(at, [&done, j] { ++done[j]; });
  }
  // Fault storm: 40 waves, each revoking a stripe of jobs mid-run and
  // rescheduling their completions later — cancel of an already-fired
  // completion must stay a no-op (those jobs keep their single fire).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto rnd = [&state](std::uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  for (int wave = 0; wave < 40; ++wave) {
    const TimePs at = static_cast<TimePs>(5 + wave * 25);
    q.schedule_at(at, [&, at] {
      for (int k = 0; k < 100; ++k) {
        const int j = static_cast<int>(rnd(kJobs));
        if (done[j] > 0 || revoked[j]) continue;  // completed or already dead
        EXPECT_TRUE(q.cancel(completion[j]));
        if (rnd(2)) {
          // requeue: a fresh completion later (never at a time in the past)
          completion[j] = q.schedule_at(at + 50 + static_cast<TimePs>(rnd(500)),
                                        [&done, j] { ++done[j]; });
        } else {
          revoked[j] = 1;  // kill: the job never completes
        }
      }
    });
  }
  q.run();
  EXPECT_TRUE(q.empty());
  int completed = 0, killed = 0;
  for (int j = 0; j < kJobs; ++j) {
    ASSERT_LE(done[j], 1) << "job " << j << " completed twice";
    ASSERT_FALSE(done[j] == 1 && revoked[j]) << "job " << j << " fired after kill";
    completed += done[j];
    killed += revoked[j];
  }
  EXPECT_EQ(completed + killed, kJobs);
  EXPECT_GT(killed, 0);
  EXPECT_GT(completed, 0);
  // Stats conservation: everything scheduled either dispatched or was
  // cancelled-while-pending; lazily-skipped entries never double-count.
  const EventQueueStats s = q.stats();
  EXPECT_EQ(s.scheduled, s.dispatched + s.cancelled);
}

TEST(EventQueueStats, PendingPeakTracksHighWaterNotCurrent) {
  EventQueue q;
  // Handler at t=1 schedules two more events: pending dips then rises.
  q.schedule_at(1, [&q] {
    q.schedule_at(2, [] {});
    q.schedule_at(3, [] {});
  });
  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.stats().pending_peak, 2u);
  EXPECT_EQ(q.stats().dispatched, 3u);
}

// ---------------------------------------------------------------------------
// Sorted runs and the slot/bitset storage, checked against the queue they
// replaced.
// ---------------------------------------------------------------------------

/// The original EventQueue (one heap entry per event, each owning its
/// closure, and an unordered_set of pending ids), kept as the behavioural
/// reference.  Its schedule_sorted is literally n schedule_at calls.
class ReferenceQueue {
 public:
  using Handler = std::function<void()>;
  using RunHandler = std::function<void(std::size_t)>;

  std::uint64_t schedule_at(TimePs at, Handler fn) {
    if (at < now_) throw std::invalid_argument("ReferenceQueue: scheduling in the past");
    const std::uint64_t id = next_seq_++;
    heap_.push(Entry{at, id, std::move(fn)});
    pending_ids_.insert(id);
    if (pending_ids_.size() > pending_peak_) pending_peak_ = pending_ids_.size();
    return id;
  }

  std::uint64_t schedule_sorted(std::vector<TimePs> times, RunHandler fn) {
    if (!times.empty() && times.front() < now_)
      throw std::invalid_argument("ReferenceQueue: run starts in the past");
    if (!std::is_sorted(times.begin(), times.end()))
      throw std::invalid_argument("ReferenceQueue: run is unsorted");
    const std::uint64_t first = next_seq_;
    const auto shared = std::make_shared<RunHandler>(std::move(fn));
    for (std::size_t i = 0; i < times.size(); ++i)
      schedule_at(times[i], [shared, i] { (*shared)(i); });
    return first;
  }

  bool cancel(std::uint64_t event_id) {
    if (event_id >= next_seq_) return false;
    cancelled_ += pending_ids_.erase(event_id);
    return true;
  }

  bool step() {
    while (!heap_.empty()) {
      Entry e = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      if (pending_ids_.erase(e.seq) == 0) continue;
      now_ = e.time;
      ++executed_;
      e.fn();
      return true;
    }
    return false;
  }

  TimePs next_time() {
    while (!heap_.empty()) {
      if (pending_ids_.count(heap_.top().seq) == 0) {
        heap_.pop();
        continue;
      }
      return heap_.top().time;
    }
    return INT64_MAX;
  }

  std::uint64_t run(TimePs until = INT64_MAX) {
    std::uint64_t n = 0;
    while (!heap_.empty()) {
      if (pending_ids_.count(heap_.top().seq) == 0) {
        heap_.pop();
        continue;
      }
      if (heap_.top().time >= until) break;
      step();
      ++n;
    }
    return n;
  }

  [[nodiscard]] TimePs now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending_ids_.empty(); }
  [[nodiscard]] std::uint64_t pending() const { return pending_ids_.size(); }
  [[nodiscard]] EventQueueStats stats() const {
    return EventQueueStats{next_seq_, executed_, cancelled_, pending_peak_};
  }

 private:
  struct Entry {
    TimePs time;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> pending_ids_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t pending_peak_ = 0;
};

/// Runs one queue through a seeded random sequence of operations.  Two
/// instances with the same seed stay in lockstep exactly as long as their
/// queues behave identically: every decision, handlers' included, comes from
/// the instance's own generator, and every observable result goes to `log`.
template <typename Queue>
class RandomOps {
 public:
  explicit RandomOps(std::uint64_t seed) : state_(seed) {}

  Queue q;
  std::vector<std::int64_t> log;
  std::vector<std::uint64_t> ids;  // every id issued, run entries included

  /// One top-level operation.
  void op() {
    switch (rnd(10)) {
      case 0:
      case 1:
      case 2:
        schedule_one();
        break;
      case 3:
        schedule_run();
        break;
      case 4:
      case 5:
        cancel_one();
        break;
      case 6:
      case 7:
        log.push_back(q.step() ? 1 : 0);
        break;
      case 8:
        log.push_back(static_cast<std::int64_t>(q.run(q.now() + static_cast<TimePs>(rnd(6)))));
        break;
      default:
        log.push_back(q.next_time());
        break;
    }
  }

 private:
  std::uint64_t rnd(std::uint64_t n) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state_ >> 33) % n;
  }

  /// Small time offsets, so ties between plain events and run entries are
  /// common.
  TimePs later() { return q.now() + static_cast<TimePs>(rnd(4)); }

  void fired(std::int64_t tag) {
    log.push_back(tag);
    log.push_back(q.now());
    // Handlers reach back into the queue: schedule (often at now(), behind
    // every queued tie), cancel anything, or arm a nested run.
    switch (rnd(6)) {
      case 0:
        schedule_one();
        break;
      case 1:
        cancel_one();
        break;
      case 2:
        if (rnd(4) == 0) schedule_run();
        break;
      default:
        break;
    }
  }

  void schedule_one() {
    const auto tag = static_cast<std::int64_t>(ids.size());
    const TimePs at = later();
    const std::uint64_t id = q.schedule_at(at, [this, tag] { fired(tag); });
    ids.push_back(id);
    log.push_back(static_cast<std::int64_t>(id));
  }

  void schedule_run() {
    std::vector<TimePs> times(rnd(6));
    TimePs t = later();
    for (TimePs& at : times) {
      t += static_cast<TimePs>(rnd(3));
      at = t;
    }
    const auto base = static_cast<std::int64_t>(1'000'000 * (ids.size() + 1));
    const std::uint64_t first =
        q.schedule_sorted(times, [this, base](std::size_t i) {
          fired(base + static_cast<std::int64_t>(i));
        });
    for (std::size_t i = 0; i < times.size(); ++i) ids.push_back(first + i);
    log.push_back(static_cast<std::int64_t>(first));
  }

  void cancel_one() {
    // Mostly issued ids (pending, fired, cancelled, run entries); sometimes
    // an id no event has had yet.
    const std::uint64_t id = ids.empty() || rnd(8) == 0
                                 ? q.stats().scheduled + rnd(3)
                                 : ids[rnd(ids.size())];
    log.push_back(q.cancel(id) ? 1 : 0);
  }

  std::uint64_t state_;
};

template <typename A, typename B>
void expect_same_state(const A& a, const B& b, const std::string& where) {
  ASSERT_EQ(a.log, b.log) << where;
  ASSERT_EQ(a.q.now(), b.q.now()) << where;
  ASSERT_EQ(a.q.pending(), b.q.pending()) << where;
  ASSERT_EQ(a.q.empty(), b.q.empty()) << where;
  const EventQueueStats sa = a.q.stats(), sb = b.q.stats();
  ASSERT_EQ(sa.scheduled, sb.scheduled) << where;
  ASSERT_EQ(sa.dispatched, sb.dispatched) << where;
  ASSERT_EQ(sa.cancelled, sb.cancelled) << where;
  ASSERT_EQ(sa.pending_peak, sb.pending_peak) << where;
}

TEST(EventQueueDifferential, RandomOperationsMatchTheReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomOps<EventQueue> fast(seed);
    RandomOps<ReferenceQueue> ref(seed);
    for (int op = 0; op < 300; ++op) {
      fast.op();
      ref.op();
      expect_same_state(fast, ref,
                        "seed " + std::to_string(seed) + " op " + std::to_string(op));
      if (HasFatalFailure()) return;
    }
    // Drain: the tails must agree too.
    fast.log.push_back(static_cast<std::int64_t>(fast.q.run()));
    ref.log.push_back(static_cast<std::int64_t>(ref.q.run()));
    expect_same_state(fast, ref, "seed " + std::to_string(seed) + " drain");
    if (HasFatalFailure()) return;
    ASSERT_TRUE(fast.q.empty());
  }
}

TEST(EventQueueSortedRun, ReturnsTheIdsThatOneAtATimeSchedulingWould) {
  const std::vector<TimePs> times{5, 5, 8, 13, 13};
  EventQueue run_q, plain_q;
  run_q.schedule_at(1, [] {});
  plain_q.schedule_at(1, [] {});
  const std::uint64_t first = run_q.schedule_sorted(times, [](std::size_t) {});
  std::vector<std::uint64_t> plain_ids;
  for (const TimePs t : times) plain_ids.push_back(plain_q.schedule_at(t, [] {}));
  for (std::size_t i = 0; i < times.size(); ++i) EXPECT_EQ(first + i, plain_ids[i]);
  EXPECT_EQ(run_q.pending(), plain_q.pending());
  EXPECT_EQ(run_q.stats().scheduled, plain_q.stats().scheduled);
  EXPECT_EQ(run_q.stats().pending_peak, plain_q.stats().pending_peak);
  EXPECT_EQ(run_q.schedule_at(2, [] {}), plain_q.schedule_at(2, [] {}));
}

TEST(EventQueueSortedRun, EntriesInterleaveWithTiesInIdOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(-1); });
  q.schedule_sorted({5, 5, 7}, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
    // A same-time event scheduled from a run entry fires after every tie
    // already queued, the run's own later entries included.
    if (i == 0) q.schedule_at(5, [&] { order.push_back(-2); });
  });
  q.schedule_at(5, [&] { order.push_back(-3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, -3, -2, 2}));
}

TEST(EventQueueSortedRun, UnsortedOrPastTimesThrowBeforeAnyStateChanges) {
  EventQueue q;
  q.schedule_at(100, [] {});
  ASSERT_TRUE(q.step());
  q.schedule_at(150, [] {});
  const EventQueueStats before = q.stats();
  int calls = 0;
  auto count = [&calls](std::size_t) { ++calls; };
  EXPECT_THROW(q.schedule_sorted({50, 120}, count), std::invalid_argument);
  EXPECT_THROW(q.schedule_sorted({120, 110}, count), std::invalid_argument);
  EXPECT_THROW(q.schedule_sorted({100, 130, 130, 129}, count), std::invalid_argument);
  const EventQueueStats after = q.stats();
  EXPECT_EQ(after.scheduled, before.scheduled);
  EXPECT_EQ(after.pending_peak, before.pending_peak);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), 100);
  EXPECT_EQ(q.next_time(), 150);
  EXPECT_EQ(q.schedule_at(160, [] {}), before.scheduled);  // no id was used up
  q.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(q.stats().dispatched, 3u);
}

TEST(EventQueueSortedRun, EmptyRunChangesNothing) {
  EventQueue q;
  q.schedule_at(3, [] {});
  const EventQueueStats before = q.stats();
  EXPECT_EQ(q.schedule_sorted({}, [](std::size_t) { FAIL() << "empty run fired"; }),
            before.scheduled);
  EXPECT_EQ(q.stats().scheduled, before.scheduled);
  EXPECT_EQ(q.stats().pending_peak, before.pending_peak);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.schedule_at(4, [] {}), before.scheduled);
  EXPECT_EQ(q.run(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSortedRun, NextTimeSkipsCancelledPlainAndRunHeadsWithoutAdvancing) {
  EventQueue q;
  std::vector<TimePs> fired;
  const auto plain = q.schedule_at(10, [&] { fired.push_back(q.now()); });
  const auto run = q.schedule_sorted({20, 30}, [&](std::size_t) { fired.push_back(q.now()); });
  q.schedule_at(40, [&] { fired.push_back(q.now()); });
  EXPECT_EQ(q.next_time(), 10);

  q.cancel(plain);
  EXPECT_EQ(q.next_time(), 20);
  q.cancel(run);  // the run's head entry
  EXPECT_EQ(q.next_time(), 30);
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.stats().dispatched, 0u);

  q.cancel(run + 1);  // the run's last entry, not yet at the heap top
  EXPECT_EQ(q.next_time(), 40);
  EXPECT_EQ(q.now(), 0);
  q.run();
  EXPECT_EQ(fired, (std::vector<TimePs>{40}));
  EXPECT_EQ(q.next_time(), INT64_MAX);
}

TEST(EventQueueSortedRun, HandlerSurvivesNestedRunsAndEvents) {
  // The run's handler captures little enough to live inside std::function
  // itself; nested runs and events scheduled from it must not move it while
  // it runs (the sanitizer build catches a use after free here).
  EventQueue q;
  std::vector<std::size_t> seen;
  std::vector<std::size_t>* log = &seen;
  int nested = 0;
  q.schedule_sorted({1, 2, 3}, [&q, log, &nested](std::size_t i) {
    for (int k = 0; k < 8; ++k) {
      q.schedule_sorted({q.now() + 1, q.now() + 2}, [&nested](std::size_t) { ++nested; });
      q.schedule_after(1, [] {});
    }
    log->push_back(i);
  });
  q.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(nested, 3 * 8 * 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSortedRun, CancellingEveryEntryDrainsTheRun) {
  EventQueue q;
  int calls = 0;
  const auto first = q.schedule_sorted({1, 1, 2, 3}, [&](std::size_t) { ++calls; });
  for (std::uint64_t id = first; id < first + 4; ++id) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().cancelled, 4u);
  EXPECT_EQ(q.next_time(), INT64_MAX);
  EXPECT_FALSE(q.step());
  EXPECT_EQ(calls, 0);
  // The finished run's storage is reused by the next one.
  q.schedule_sorted({5}, [&](std::size_t) { ++calls; });
  q.run();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace photorack::sim
