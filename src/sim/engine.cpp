#include "sim/engine.hpp"

#include <utility>

#include "support/assert.hpp"

namespace prema::sim {

void ProcState::advance(util::TimeCategory cat, double seconds) {
  PREMA_CHECK_MSG(seconds >= 0.0, "negative activity duration");
  ledger_.charge(cat, seconds);
  clock_ += seconds;
}

void ProcState::catch_up(SimTime t, util::TimeCategory gap_cat) {
  if (t <= clock_) return;
  ledger_.charge(gap_cat, t - clock_);
  clock_ = t;
}

Engine::Engine(MachineConfig cfg) : cfg_(cfg) {
  PREMA_CHECK_MSG(cfg_.nprocs > 0, "machine needs at least one processor");
  PREMA_CHECK_MSG(cfg_.mflops > 0.0, "compute rate must be positive");
  util::SplitMix64 sm(cfg_.seed);
  procs_.reserve(static_cast<std::size_t>(cfg_.nprocs));
  for (ProcId p = 0; p < cfg_.nprocs; ++p) {
    procs_.emplace_back(p, sm.next());
  }
}

ProcState& Engine::proc(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < cfg_.nprocs, "proc id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

const ProcState& Engine::proc(ProcId p) const {
  PREMA_CHECK_MSG(p >= 0 && p < cfg_.nprocs, "proc id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

EventId Engine::at(SimTime t, std::function<void()> fn) {
  PREMA_CHECK_MSG(t >= now_, "event scheduled in the past");
  return queue_.schedule(t, std::move(fn));
}

EventId Engine::after(SimTime delay, std::function<void()> fn) {
  PREMA_CHECK_MSG(delay >= 0.0, "negative event delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

RunStats Engine::run(std::uint64_t max_events, SimTime max_time) {
  RunStats stats;
  while (!queue_.empty()) {
    if (stats.events >= max_events) {
      stats.hit_event_limit = true;
      break;
    }
    if (queue_.next_time() > max_time) {
      stats.hit_time_limit = true;
      break;
    }
    EventQueue::Popped ev = queue_.pop();
    now_ = ev.time;  // callbacks observe the time they fire at
    firing_ = ev.id;
    ev.fn();
    ++stats.events;
  }
  firing_ = kNoEvent;
  stats.end_time = now_;
  return stats;
}

}  // namespace prema::sim
