#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/assert.hpp"

namespace prema::sim {

namespace {

/// Heap order. std::push_heap/pop_heap keep the greatest element on top, so
/// "greater" is "fires earlier": lower time, then lower insertion seq.
constexpr auto kFiresLater = [](const auto& a, const auto& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
};

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (EventId{gen} << 32) | slot;
}

}  // namespace

EventId EventQueue::schedule(SimTime t, std::function<void()> fn) {
  PREMA_CHECK_MSG(t >= 0.0, "event scheduled at negative time");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    PREMA_CHECK_MSG(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                    "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even (free) -> odd (pending)
  s.fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), kFiresLater);
  ++live_count_;
  return make_id(slot, s.gen);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;  // odd (pending) -> even (free): every id naming it is now stale
  free_.push_back(slot);
  --live_count_;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // Only a pending slot (odd generation) at the id's generation is live;
  // kNoEvent, fired, cancelled and unknown ids all fall through here.
  if (slot >= slots_.size() || slots_[slot].gen != gen || (gen & 1U) == 0) return;
  release(slot);
  skim();
}

void EventQueue::skim() {
  while (!heap_.empty() && slots_[heap_.front().slot].gen != heap_.front().gen) {
    std::pop_heap(heap_.begin(), heap_.end(), kFiresLater);
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  PREMA_CHECK_MSG(!heap_.empty(), "next_time on empty event queue");
  return heap_.front().time;  // skim() keeps the head live
}

EventQueue::Popped EventQueue::pop() {
  PREMA_CHECK_MSG(!heap_.empty(), "pop on empty event queue");
  const Entry head = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), kFiresLater);
  heap_.pop_back();
  // Move the callback out before firing: it may schedule new events, which
  // can grow (and so move) the slot slab.
  Popped popped{head.time, make_id(head.slot, head.gen),
                std::move(slots_[head.slot].fn)};
  release(head.slot);
  skim();
  return popped;
}

SimTime EventQueue::run_next() {
  Popped popped = pop();
  popped.fn();
  return popped.time;
}

}  // namespace prema::sim
