#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::sim {

std::uint64_t EventQueue::schedule_at(TimePs at, Handler fn) {
  if (at < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  const std::uint64_t id = next_seq_++;
  heap_.push_back(Node{at, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  mark_pending(id);
  ++pending_;
  note_peak();
  return id;
}

std::uint64_t EventQueue::schedule_sorted(std::vector<TimePs> times, RunHandler fn) {
  const std::uint64_t first = next_seq_;
  if (times.empty()) return first;
  if (times.front() < now_)
    throw std::invalid_argument("EventQueue: sorted run starts in the past");
  if (!std::is_sorted(times.begin(), times.end()))
    throw std::invalid_argument("EventQueue: sorted run times must be non-decreasing");
  // Runs are few: reuse a finished run's entry before growing.
  const auto free_run = std::find(runs_.begin(), runs_.end(), nullptr);
  const auto index = static_cast<std::uint32_t>(free_run - runs_.begin());
  const TimePs head = times.front();
  const std::uint64_t n = times.size();
  auto run = std::make_unique<Run>(Run{first, std::move(times), std::move(fn)});
  if (free_run == runs_.end()) {
    runs_.push_back(std::move(run));
  } else {
    *free_run = std::move(run);
  }
  next_seq_ += n;
  for (std::uint64_t id = first; id < next_seq_; ++id) mark_pending(id);
  pending_ += n;
  note_peak();
  heap_.push_back(Node{head, first, kRunBit | index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return first;
}

void EventQueue::mark_pending(std::uint64_t id) {
  const std::size_t word = id >> 6;
  if (word >= pending_bits_.size()) pending_bits_.resize(word + 1, 0);
  pending_bits_[word] |= std::uint64_t{1} << (id & 63);
}

void EventQueue::clear_pending(std::uint64_t id) {
  pending_bits_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  --pending_;
}

bool EventQueue::cancel(std::uint64_t event_id) {
  if (event_id >= next_seq_) return false;  // never scheduled
  // Fired/cancelled ids are already clear: only a real removal counts
  // toward the cancelled stat.
  if (is_pending(event_id)) {
    clear_pending(event_id);
    ++cancelled_;
    // A plain event's node stays in the heap until it surfaces or a purge
    // drops it; a run entry has a node only while it is the run's head.
    if (!in_run(event_id) && ++stale_ * 2 > heap_.size()) purge();
  }
  return true;
}

bool EventQueue::in_run(std::uint64_t id) const {
  return std::any_of(runs_.begin(), runs_.end(), [id](const std::unique_ptr<Run>& run) {
    return run && id >= run->first && id - run->first < run->times.size();
  });
}

void EventQueue::purge() {
  std::erase_if(heap_, [this](const Node& node) {
    if ((node.slot & kRunBit) || is_pending(node.seq)) return false;
    retire(node);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

EventQueue::Node EventQueue::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Node top = heap_.back();
  if (top.slot & kRunBit) {
    const Run& run = *runs_[top.slot & ~kRunBit];
    const std::uint64_t next = top.seq + 1 - run.first;
    if (next < run.times.size()) {
      heap_.back() = Node{run.times[next], top.seq + 1, top.slot};
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      return top;
    }
  }
  heap_.pop_back();
  return top;
}

void EventQueue::retire(const Node& node) {
  if (node.slot & kRunBit) {
    std::unique_ptr<Run>& run = runs_[node.slot & ~kRunBit];
    if (node.seq + 1 - run->first == run->times.size()) run.reset();
  } else {
    slots_[node.slot] = nullptr;
    free_slots_.push_back(node.slot);
  }
}

bool EventQueue::settle() {
  while (!heap_.empty()) {
    if (is_pending(heap_.front().seq)) return true;
    const Node node = pop_top();  // cancelled: discard
    if (!(node.slot & kRunBit)) --stale_;
    retire(node);
  }
  return false;
}

bool EventQueue::step() {
  if (!settle()) return false;
  const Node top = pop_top();
  clear_pending(top.seq);
  now_ = top.time;
  ++executed_;
  if (top.slot & kRunBit) {
    const Run& run = *runs_[top.slot & ~kRunBit];
    run.fn(static_cast<std::size_t>(top.seq - run.first));
    retire(top);
  } else {
    Handler fn = std::move(slots_[top.slot]);
    retire(top);
    fn();
  }
  return true;
}

TimePs EventQueue::next_time() { return settle() ? heap_.front().time : INT64_MAX; }

std::uint64_t EventQueue::run(TimePs until) {
  std::uint64_t n = 0;
  while (settle() && heap_.front().time < until) {
    step();
    ++n;
  }
  return n;
}

}  // namespace photorack::sim
