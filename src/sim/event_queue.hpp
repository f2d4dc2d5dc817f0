#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

/// \file event_queue.hpp
/// Deterministic pending-event set. Events firing at equal times are ordered
/// by insertion sequence number, so a run is a pure function of the seed and
/// the program — the property every experiment in EXPERIMENTS.md relies on.
///
/// Layout: a binary min-heap of small POD entries keyed on (time, insertion
/// seq), and a slab of callback slots recycled through a free list. An entry
/// names its slot and the slot's generation at scheduling time; cancelling
/// or firing bumps the generation, so the heap entry goes stale and is
/// skipped when it surfaces. Every operation is O(1) apart from the heap's
/// O(log n) sift, with no per-event hashing.

namespace prema::sim {

/// Handle that can be used to cancel a scheduled event: the slot index in
/// the low 32 bits, the slot's generation in the high 32. Ids of fired or
/// cancelled events stay stale even after their slot is reused. Ids carry
/// no ordering.
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  /// A popped event: its time, the id it was scheduled under, its callback.
  struct Popped {
    SimTime time;
    EventId id;
    std::function<void()> fn;
  };

  /// Schedule `fn` to fire at absolute time `t`. Returns a cancellation id.
  EventId schedule(SimTime t, std::function<void()> fn);

  /// Cancel a scheduled event. Cancelling an already-fired, already-
  /// cancelled or unknown id is allowed and does nothing.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; only valid when !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pop and run the earliest live event, returning its time.
  SimTime run_next();

  /// Pop the earliest live event without running it. Lets the caller update
  /// its notion of "now" before firing the callback. The id is stale from
  /// here on: cancelling it is a no-op.
  Popped pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    std::function<void()> fn;
    /// Odd while an event is pending in the slot, even while it is free; a
    /// pending event's id therefore never equals kNoEvent.
    std::uint32_t gen = 0;
  };

  /// Free `slot` for reuse and invalidate every id naming it.
  void release(std::uint32_t slot);
  /// Pop stale entries off the top so the head is live (or the heap empty).
  void skim();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace prema::sim
