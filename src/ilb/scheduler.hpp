#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "mol/delivery.hpp"

/// \file scheduler.hpp
/// PREMA's per-processor work-unit scheduler: the queue behind the
/// pick-and-process loop. Application messages accepted by the MOL become
/// queued work units here; the runtime picks them round-robin across target
/// objects (FIFO within an object, which together with MOL delivery numbers
/// preserves per-sender order).
///
/// The scheduler is also the load model: the balancing framework reads the
/// queued weight (application hints), and migration surrenders an object's
/// queued units via take_queued.

namespace prema::ilb {

class Scheduler {
 public:
  struct ObjectLoad {
    mol::MobilePtr ptr;
    std::size_t units = 0;
    double weight = 0.0;
  };

  /// Queue an accepted delivery (MOL on_delivery hook).
  void enqueue(mol::Delivery&& d);

  /// Pop the next work unit (round-robin over ready objects) and mark its
  /// target as the currently executing object.
  std::optional<mol::Delivery> pick();

  /// The work unit picked last has finished executing.
  void complete();

  /// Remove and return every queued unit targeting `ptr` (object migration).
  /// The executing object cannot surrender its units.
  std::vector<mol::Delivery> take_queued(const mol::MobilePtr& ptr);

  [[nodiscard]] bool has_work() const { return !ready_.empty(); }
  [[nodiscard]] std::size_t queued_units() const { return total_units_; }
  /// Load visible to the balancer: the queued weight hints only (the running
  /// unit is committed to this processor either way).
  [[nodiscard]] double queued_weight() const { return total_weight_; }
  [[nodiscard]] bool executing() const { return executing_; }

  /// Per-object queued load, excluding the currently executing object —
  /// exactly the set a balancing policy may migrate.
  [[nodiscard]] std::vector<ObjectLoad> migratable_loads() const;

 private:
  /// Re-anchor the weight aggregate after removals: summing arbitrary
  /// application weights in and out leaves floating-point residue, and a
  /// drained queue must report *exactly* zero load — policies compare loads
  /// against watermarks and sentinels, and a stray -1e-16 reads as "below
  /// every threshold" or, worse, as a negative load.
  void settle_weight() {
    if (total_units_ == 0) {
      total_weight_ = 0.0;
    } else if (total_weight_ < 0.0) {
      total_weight_ = 0.0;
    }
  }

  /// Ordered map: migratable_loads() iterates it to build the policy's view
  /// of movable work, so iteration order must be deterministic.
  std::map<mol::MobilePtr, std::deque<mol::Delivery>> per_object_;
  std::deque<mol::MobilePtr> ready_;  ///< each object with queued units, once
  std::size_t total_units_ = 0;
  double total_weight_ = 0.0;
  bool executing_ = false;
  mol::MobilePtr executing_ptr_;
};

}  // namespace prema::ilb
