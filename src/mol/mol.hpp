#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmcs/machine.hpp"
#include "mol/coords.hpp"
#include "mol/delivery.hpp"
#include "mol/mobile_object.hpp"
#include "mol/mobile_ptr.hpp"
#include "support/thread_annotations.hpp"

/// \file mol.hpp
/// The Mobile Object Layer (Chrisochoides et al. 2000): a global namespace of
/// migratable objects over the DMCS. Provides
///   - mobile pointers: location-independent names;
///   - transparent migration: an object, its pending (queued) messages, and
///     its ordering state move together;
///   - automatic message forwarding: messages sent to a stale location chase
///     the object along forwarding addresses, and the final receiver lazily
///     updates the sender's location cache;
///   - per-sender FIFO ordering: messages from one sender to one object are
///     delivered in send order even across migrations (sequence numbers and a
///     resequencing buffer that migrates with the object).
///
/// Concurrency: every public method takes the node's state lock itself
/// (Node::state_mutex, recursive) before touching the directory, so callers —
/// MolLayer's registered DMCS handlers, the PREMA runtime facade, balancing
/// policies running on the polling thread — need no locking discipline of
/// their own; holding the state lock already (the runtime does) just nests.
/// Hooks installed via set_hooks are invoked *with the state lock held*.

namespace prema::mol {

/// Per-node Mobile Object Layer state and protocol logic.
class Mol {
 public:
  /// Callbacks into the layer above (the scheduler / PREMA runtime).
  struct Hooks {
    /// An application message was accepted in order for a local object.
    std::function<void(Delivery&&)> on_delivery;
    /// Surrender the not-yet-executed deliveries queued for `ptr`; they will
    /// migrate with the object. May return an empty vector.
    std::function<std::vector<Delivery>(const MobilePtr&)> take_queued;
    /// An object (and its queued deliveries, re-announced via on_delivery)
    /// arrived by migration.
    std::function<void(const MobilePtr&)> on_installed;
  };

  struct Stats {
    std::uint64_t resequenced = 0;     ///< messages held in the reorder buffer
    std::uint64_t forwards = 0;        ///< route messages passed along
    std::uint64_t migrations_out = 0;
    std::uint64_t migrations_in = 0;
  };

  Mol(dmcs::Node& node, const ObjectTypeRegistry& types,
      dmcs::HandlerId route_h, dmcs::HandlerId migrate_h, dmcs::HandlerId update_h,
      dmcs::HandlerId offer_h, dmcs::HandlerId commit_h);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Install a new local object and return its machine-unique mobile pointer
  /// (home = this processor).
  MobilePtr add_object(std::unique_ptr<MobileObject> obj);

  /// Send an application message to the object named by `target`, wherever it
  /// currently lives. `handler` is a PREMA-level object-handler id; `weight`
  /// is the application's load hint for the resulting work unit.
  void message(const MobilePtr& target, ObjectHandlerId handler,
               std::vector<std::uint8_t> payload, double weight = 1.0);

  /// Uninstall a local object and ship it — with its queued deliveries and
  /// ordering state — to `dst`. The caller (balancing policy) must not
  /// migrate an object whose work unit is currently executing.
  void migrate(const MobilePtr& ptr, ProcId dst);

  /// The local object named by `ptr`, or nullptr if it is not resident here.
  /// The pointer stays valid until the object migrates away; callers that can
  /// race a migration (none today — policies only migrate idle objects) must
  /// hold the state lock across use.
  [[nodiscard]] MobileObject* find(const MobilePtr& ptr);
  [[nodiscard]] bool is_local(const MobilePtr& ptr) const;
  [[nodiscard]] std::size_t local_count() const;
  [[nodiscard]] std::vector<MobilePtr> local_ptrs() const;

  /// Snapshot copy (the poller may be mutating counters concurrently).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] dmcs::Node& node() { return node_; }

  /// DMCS handler bodies (invoked by MolLayer's registered handlers).
  void on_route(dmcs::Message&& msg);
  void on_migrate(dmcs::Message&& msg);
  void on_location_update(dmcs::Message&& msg);
  void on_offer(dmcs::Message&& msg);
  void on_commit(dmcs::Message&& msg);

  /// Migrations offered but not yet commit-acked (transactional handoff).
  /// Zero at quiescence on a correct run — the delivery-ledger checks assert
  /// this after fault-injected experiments.
  [[nodiscard]] std::size_t in_transit_count() const;

  // -- topology accounting (per-object coordinates) --------------------------

  /// Turn on coordinate accounting for this run. Must be called
  /// before the run starts and never mid-run: enabling it appends a topology
  /// section to the migrate wire image, so flipping it between runs (or
  /// mid-run) would change traced byte sizes and break sim determinism
  /// comparisons. The runtime enables it machine-wide when the configured
  /// policy (or any policy in a service switch schedule) wants topology.
  void enable_topology() { topology_ = true; }
  [[nodiscard]] bool topology_enabled() const { return topology_; }

  /// Register (or update) an object's spatial coordinates. A no-op unless
  /// topology accounting is enabled — so applications may call it
  /// unconditionally without perturbing scalar-policy runs. The coordinates
  /// leave with the object when it migrates.
  void set_coords(const MobilePtr& ptr, const Coords& c);
  [[nodiscard]] std::optional<Coords> coords(const MobilePtr& ptr) const;

 private:
  struct Buffered {
    ObjectHandlerId handler;
    double weight;
    std::vector<std::uint8_t> payload;
  };

  struct LocalEntry {
    std::unique_ptr<MobileObject> obj;
    std::uint64_t next_delivery = 0;
    /// Next seq per sender. Ordered map: migrate_locked serializes this onto
    /// the wire, and hash order would make the packed bytes nondeterministic.
    std::map<ProcId, std::uint32_t> expected;
    std::map<std::pair<ProcId, std::uint32_t>, Buffered> reorder;
  };

  // Locked bodies of the public methods; all directory state is touched here,
  // under the node's state lock (which the public wrappers acquire).
  void message_locked(const MobilePtr& target, ObjectHandlerId handler,
                      std::vector<std::uint8_t> payload, double weight)
      PREMA_REQUIRES(node_.state_mutex());
  void migrate_locked(const MobilePtr& ptr, ProcId dst)
      PREMA_REQUIRES(node_.state_mutex());
  void on_route_locked(dmcs::Message&& msg) PREMA_REQUIRES(node_.state_mutex());
  void on_migrate_locked(dmcs::Message&& msg) PREMA_REQUIRES(node_.state_mutex());
  void on_offer_locked(dmcs::Message&& msg) PREMA_REQUIRES(node_.state_mutex());
  void send_commit(ProcId to, const MobilePtr& ptr, std::uint64_t epoch)
      PREMA_REQUIRES(node_.state_mutex());

  /// Best current guess for where `ptr` lives (never this processor).
  [[nodiscard]] ProcId best_known(const MobilePtr& ptr) const
      PREMA_REQUIRES(node_.state_mutex());
  [[nodiscard]] bool is_local_locked(const MobilePtr& ptr) const
      PREMA_REQUIRES(node_.state_mutex());

  void accept(const MobilePtr& ptr, LocalEntry& entry, ProcId origin,
              std::uint32_t seq, Buffered&& msg)
      PREMA_REQUIRES(node_.state_mutex());
  void deliver(const MobilePtr& ptr, LocalEntry& entry, ProcId origin,
               Buffered&& msg) PREMA_REQUIRES(node_.state_mutex());
  void send_route(ProcId dst, const MobilePtr& target, ProcId origin,
                  std::uint32_t seq, std::uint32_t hops, ObjectHandlerId handler,
                  double weight, std::vector<std::uint8_t>&& payload)
      PREMA_REQUIRES(node_.state_mutex());
  void learn(const MobilePtr& ptr, ProcId loc) PREMA_REQUIRES(node_.state_mutex());

  dmcs::Node& node_;
  const ObjectTypeRegistry& types_;
  dmcs::HandlerId route_h_, migrate_h_, update_h_, offer_h_, commit_h_;
  Hooks hooks_;  ///< installed before run(), then read-only

  // -- directory state, guarded by the node's state lock --------------------
  // The worker thread and the preemptive polling thread both run MOL protocol
  // code (policy handlers on the poller migrate objects; the worker routes
  // application messages), so every map below is shared mutable state.
  Stats stats_ PREMA_GUARDED_BY(node_.state_mutex());
  std::uint32_t next_index_ PREMA_GUARDED_BY(node_.state_mutex()) = 0;
  /// Ordered map: local_ptrs() feeds policy decisions and migrate scans
  /// iterate it, so iteration order must be deterministic.
  std::map<MobilePtr, LocalEntry> local_
      PREMA_GUARDED_BY(node_.state_mutex());
  /// Where each object went from here (forwarding addresses).
  std::unordered_map<MobilePtr, ProcId> forwarding_
      PREMA_GUARDED_BY(node_.state_mutex());
  /// Lazily learned locations.
  std::unordered_map<MobilePtr, ProcId> cache_
      PREMA_GUARDED_BY(node_.state_mutex());
  /// Authoritative directory for the mobile pointers homed here.
  std::unordered_map<std::uint32_t, ProcId> home_dir_
      PREMA_GUARDED_BY(node_.state_mutex());
  /// Next outgoing sequence number, per target.
  std::unordered_map<MobilePtr, std::uint32_t> next_seq_out_
      PREMA_GUARDED_BY(node_.state_mutex());

  // -- transactional migration (used when the node runs reliable transport) --
  /// Offers sent but not yet commit-acked: ptr -> (destination, epoch). The
  /// forwarding address is installed at offer time, so routing keeps working
  /// while the commit is in flight; the entry only tracks the open handoff.
  struct InTransit {
    ProcId dst;
    std::uint64_t epoch;
  };
  std::unordered_map<MobilePtr, InTransit> in_transit_
      PREMA_GUARDED_BY(node_.state_mutex());
  /// Offers already installed here, keyed by (sender, epoch): a duplicated
  /// offer re-sends the commit instead of cloning the object. Bounded by the
  /// number of inbound migrations over the run.
  std::set<std::pair<ProcId, std::uint64_t>> installed_offers_
      PREMA_GUARDED_BY(node_.state_mutex());
  std::uint64_t migration_epoch_ PREMA_GUARDED_BY(node_.state_mutex()) = 0;

  // -- topology accounting ---------------------------------------------------
  /// Coordinates registered here or carried in by a migration (topology
  /// runs only); an entry leaves with its object in the migrate image.
  std::map<MobilePtr, Coords> coords_ PREMA_GUARDED_BY(node_.state_mutex());

  /// Set once before the run (see enable_topology); read-only afterwards.
  bool topology_ = false;
};

/// Machine-wide MOL: registers the DMCS handlers once and owns one Mol per
/// processor.
class MolLayer {
 public:
  explicit MolLayer(dmcs::Machine& machine);

  [[nodiscard]] Mol& at(ProcId p);
  [[nodiscard]] ObjectTypeRegistry& types() { return types_; }

 private:
  ObjectTypeRegistry types_;
  std::vector<std::unique_ptr<Mol>> nodes_;
};

}  // namespace prema::mol
