#include "mol/mol.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/log.hpp"

namespace prema::mol {

using dmcs::Message;
using dmcs::MsgKind;
using util::ByteReader;
using util::ByteWriter;

namespace {

void put_ptr(ByteWriter& w, const MobilePtr& p) {
  w.put<ProcId>(p.home);
  w.put<std::uint32_t>(p.index);
}

MobilePtr get_ptr(ByteReader& r) {
  MobilePtr p;
  p.home = r.get<ProcId>();
  p.index = r.get<std::uint32_t>();
  return p;
}

}  // namespace

Mol::Mol(dmcs::Node& node, const ObjectTypeRegistry& types, dmcs::HandlerId route_h,
         dmcs::HandlerId migrate_h, dmcs::HandlerId update_h,
         dmcs::HandlerId offer_h, dmcs::HandlerId commit_h)
    : node_(node),
      types_(types),
      route_h_(route_h),
      migrate_h_(migrate_h),
      update_h_(update_h),
      offer_h_(offer_h),
      commit_h_(commit_h) {}

MobilePtr Mol::add_object(std::unique_ptr<MobileObject> obj) {
  PREMA_CHECK_MSG(obj != nullptr, "cannot register a null object");
  util::RecursiveLock g(node_.state_mutex());
  const MobilePtr ptr{node_.rank(), next_index_++};
  local_.emplace(ptr, LocalEntry{std::move(obj), 0, {}, {}});
  home_dir_[ptr.index] = node_.rank();
  return ptr;
}

MobileObject* Mol::find(const MobilePtr& ptr) {
  util::RecursiveLock g(node_.state_mutex());
  auto it = local_.find(ptr);
  return it == local_.end() ? nullptr : it->second.obj.get();
}

bool Mol::is_local(const MobilePtr& ptr) const {
  util::RecursiveLock g(node_.state_mutex());
  return is_local_locked(ptr);
}

bool Mol::is_local_locked(const MobilePtr& ptr) const {
  return local_.find(ptr) != local_.end();
}

std::size_t Mol::local_count() const {
  util::RecursiveLock g(node_.state_mutex());
  return local_.size();
}

std::vector<MobilePtr> Mol::local_ptrs() const {
  util::RecursiveLock g(node_.state_mutex());
  std::vector<MobilePtr> out;
  out.reserve(local_.size());
  for (const auto& [ptr, entry] : local_) out.push_back(ptr);
  return out;
}

Mol::Stats Mol::stats() const {
  util::RecursiveLock g(node_.state_mutex());
  return stats_;
}

ProcId Mol::best_known(const MobilePtr& ptr) const {
  // The home directory is refreshed on every install, so on the home
  // processor it beats a forwarding address recorded when the object left
  // here — unless it still (stalely) points at ourselves because the install
  // notification has not arrived yet. Forwarding addresses always point to a
  // strictly later owner, so chasing them terminates; the directory and the
  // lazily learned cache are entry points into that chain.
  if (ptr.home == node_.rank()) {
    if (auto it = home_dir_.find(ptr.index);
        it != home_dir_.end() && it->second != node_.rank()) {
      return it->second;
    }
  }
  if (auto it = forwarding_.find(ptr); it != forwarding_.end()) return it->second;
  if (auto it = cache_.find(ptr); it != cache_.end()) return it->second;
  return ptr.home;
}

void Mol::message(const MobilePtr& target, ObjectHandlerId handler,
                  std::vector<std::uint8_t> payload, double weight) {
  util::RecursiveLock g(node_.state_mutex());
  message_locked(target, handler, std::move(payload), weight);
}

void Mol::message_locked(const MobilePtr& target, ObjectHandlerId handler,
                         std::vector<std::uint8_t> payload, double weight) {
  PREMA_CHECK_MSG(!target.is_null(), "message to null mobile pointer");
  const std::uint32_t seq = next_seq_out_[target]++;
  const ProcId dst = is_local_locked(target) ? node_.rank() : best_known(target);
  send_route(dst, target, node_.rank(), seq, 0, handler, weight, std::move(payload));
}

void Mol::send_route(ProcId dst, const MobilePtr& target, ProcId origin,
                     std::uint32_t seq, std::uint32_t hops, ObjectHandlerId handler,
                     double weight, std::vector<std::uint8_t>&& payload) {
  // wire:mol.route pack w
  ByteWriter w(payload.size() + 48);
  put_ptr(w, target);
  w.put<ProcId>(origin);
  w.put<std::uint32_t>(seq);
  w.put<std::uint32_t>(hops);
  w.put<ObjectHandlerId>(handler);
  w.put<double>(weight);
  w.put_bytes(payload);
  node_.send(dst, Message{route_h_, node_.rank(), MsgKind::kApp, w.take()});
}

void Mol::on_route(Message&& msg) {
  util::RecursiveLock g(node_.state_mutex());
  on_route_locked(std::move(msg));
}

void Mol::on_route_locked(Message&& msg) {
  // wire:mol.route unpack r
  ByteReader r(msg.payload);
  const MobilePtr target = get_ptr(r);
  const ProcId origin = r.get<ProcId>();
  const std::uint32_t seq = r.get<std::uint32_t>();
  const std::uint32_t hops = r.get<std::uint32_t>();
  const auto handler = r.get<ObjectHandlerId>();
  const double weight = r.get<double>();
  auto payload = r.get_bytes();

  auto it = local_.find(target);
  if (it != local_.end()) {
    if (hops > 0 && origin != node_.rank()) {
      // The sender's location information was stale; tell it where the
      // object actually lives so future messages go direct.
      // wire:mol.update pack w
      ByteWriter w;
      put_ptr(w, target);
      w.put<ProcId>(node_.rank());
      node_.send(origin, Message{update_h_, node_.rank(), MsgKind::kSystem, w.take()});
    }
    accept(target, it->second, origin, seq, Buffered{handler, weight, std::move(payload)});
    return;
  }

  // Not here: chase the object.
  const auto hop_limit = static_cast<std::uint32_t>(4 * node_.nprocs() + 16);
  PREMA_CHECK_MSG(hops < hop_limit, "mobile-object route loop detected");
  const ProcId next = best_known(target);
  PREMA_CHECK_MSG(next != node_.rank(), "route stuck: object unknown at its best-known location");
  ++stats_.forwards;
  send_route(next, target, origin, seq, hops + 1, handler, weight, std::move(payload));
}

void Mol::accept(const MobilePtr& ptr, LocalEntry& entry, ProcId origin,
                 std::uint32_t seq, Buffered&& msg) {
  std::uint32_t& expected = entry.expected[origin];
  PREMA_CHECK_MSG(seq >= expected, "duplicate mobile-object message");
  if (seq != expected) {
    entry.reorder.emplace(std::make_pair(origin, seq), std::move(msg));
    ++stats_.resequenced;
    return;
  }
  deliver(ptr, entry, origin, std::move(msg));
  ++expected;
  for (;;) {
    auto it = entry.reorder.find({origin, expected});
    if (it == entry.reorder.end()) break;
    deliver(ptr, entry, origin, std::move(it->second));
    entry.reorder.erase(it);
    ++expected;
  }
}

void Mol::deliver(const MobilePtr& ptr, LocalEntry& entry, ProcId origin,
                  Buffered&& msg) {
  Delivery d;
  d.target = ptr;
  d.handler = msg.handler;
  d.origin = origin;
  d.weight = msg.weight;
  d.delivery_no = entry.next_delivery++;
  d.payload = std::move(msg.payload);
  PREMA_CHECK_MSG(static_cast<bool>(hooks_.on_delivery),
                  "MOL has no delivery sink installed");
  hooks_.on_delivery(std::move(d));
}

void Mol::migrate(const MobilePtr& ptr, ProcId dst) {
  util::RecursiveLock g(node_.state_mutex());
  migrate_locked(ptr, dst);
}

void Mol::migrate_locked(const MobilePtr& ptr, ProcId dst) {
  PREMA_CHECK_MSG(dst >= 0 && dst < node_.nprocs(), "migrate to invalid rank");
  auto it = local_.find(ptr);
  PREMA_CHECK_MSG(it != local_.end(), "cannot migrate a non-local object");
  if (dst == node_.rank()) return;
  LocalEntry entry = std::move(it->second);
  local_.erase(it);

  std::vector<Delivery> queued;
  if (hooks_.take_queued) queued = hooks_.take_queued(ptr);

  // wire:mol.migrate pack w
  ByteWriter w;
  put_ptr(w, ptr);
  w.put<std::uint32_t>(entry.obj->type_id());
  {
    ByteWriter ow;
    entry.obj->serialize(ow);
    w.put_bytes(ow.bytes());
  }
  w.put<std::uint64_t>(entry.next_delivery);
  w.put<std::uint64_t>(entry.expected.size());
  for (const auto& [origin, seq] : entry.expected) {
    w.put<ProcId>(origin);
    w.put<std::uint32_t>(seq);
  }
  w.put<std::uint64_t>(queued.size());
  for (const auto& d : queued) {
    w.put<ObjectHandlerId>(d.handler);
    w.put<ProcId>(d.origin);
    w.put<double>(d.weight);
    w.put<std::uint64_t>(d.delivery_no);
    w.put_bytes(d.payload);
  }
  w.put<std::uint64_t>(entry.reorder.size());
  for (const auto& [key, buffered] : entry.reorder) {
    w.put<ProcId>(key.first);
    w.put<std::uint32_t>(key.second);
    w.put<ObjectHandlerId>(buffered.handler);
    w.put<double>(buffered.weight);
    w.put_bytes(buffered.payload);
  }
  if (topology_) {
    // Topology appendix: the object's coordinates travel with it. Present
    // exactly when topology accounting is on, which is fixed before the run
    // — so traced migration byte sizes stay deterministic within a run and
    // identical across runs of the same configuration.
    const auto cit = coords_.find(ptr);
    w.put<std::uint8_t>(cit != coords_.end() ? 1 : 0);
    if (cit != coords_.end()) {
      w.put<double>(cit->second.x);
      w.put<double>(cit->second.y);
      w.put<double>(cit->second.z);
      coords_.erase(cit);
    }
  }

  forwarding_[ptr] = dst;
  cache_.erase(ptr);
  ++stats_.migrations_out;
  if (auto* ts = node_.trace()) {
    ts->record(trace::EventKind::kMigrationOut, node_.now(), dst, w.size());
  }

  if (!node_.reliable_transport()) {
    node_.send(dst, Message{migrate_h_, node_.rank(), MsgKind::kSystem, w.take()});
    return;
  }
  // Transactional handoff: wrap the migration image in an *offer* and hold
  // the (ptr, epoch) open until the receiver's commit comes back. The object
  // is installed exactly once at the receiver (duplicated offers are absorbed
  // by its installed-offer ledger), and the open-handoff set here must drain
  // to empty at quiescence — a dropped offer or commit keeps retransmitting
  // at the transport layer until it lands.
  const std::uint64_t epoch = ++migration_epoch_;
  in_transit_[ptr] = InTransit{dst, epoch};
  // wire:mol.offer pack ow
  ByteWriter ow;
  put_ptr(ow, ptr);
  ow.put<std::uint64_t>(epoch);
  ow.put_bytes(w.bytes());
  node_.send(dst, Message{offer_h_, node_.rank(), MsgKind::kSystem, ow.take()});
}

std::size_t Mol::in_transit_count() const {
  util::RecursiveLock g(node_.state_mutex());
  return in_transit_.size();
}

void Mol::on_offer(Message&& msg) {
  util::RecursiveLock g(node_.state_mutex());
  on_offer_locked(std::move(msg));
}

void Mol::on_offer_locked(Message&& msg) {
  const ProcId from = msg.src;
  // wire:mol.offer unpack r
  ByteReader r(msg.payload);
  const MobilePtr ptr = get_ptr(r);
  const auto epoch = r.get<std::uint64_t>();
  if (!installed_offers_.emplace(from, epoch).second) {
    // Already installed this handoff (duplicated offer): just re-ack.
    send_commit(from, ptr, epoch);
    return;
  }
  Message inner;
  inner.handler = migrate_h_;
  inner.src = from;
  inner.kind = MsgKind::kSystem;
  inner.payload = r.get_bytes();
  on_migrate_locked(std::move(inner));
  send_commit(from, ptr, epoch);
}

void Mol::send_commit(ProcId to, const MobilePtr& ptr, std::uint64_t epoch) {
  // wire:mol.commit pack w
  ByteWriter w;
  put_ptr(w, ptr);
  w.put<std::uint64_t>(epoch);
  node_.send(to, Message{commit_h_, node_.rank(), MsgKind::kSystem, w.take()});
}

void Mol::on_commit(Message&& msg) {
  util::RecursiveLock g(node_.state_mutex());
  // wire:mol.commit unpack r
  ByteReader r(msg.payload);
  const MobilePtr ptr = get_ptr(r);
  const auto epoch = r.get<std::uint64_t>();
  auto it = in_transit_.find(ptr);
  if (it != in_transit_.end() && it->second.epoch == epoch) in_transit_.erase(it);
}

void Mol::on_migrate(Message&& msg) {
  util::RecursiveLock g(node_.state_mutex());
  on_migrate_locked(std::move(msg));
}

void Mol::on_migrate_locked(Message&& msg) {
  if (auto* ts = node_.trace()) {
    ts->record(trace::EventKind::kMigrationIn, node_.now(), msg.src, msg.payload.size());
  }
  // wire:mol.migrate unpack r
  ByteReader r(msg.payload);
  const MobilePtr ptr = get_ptr(r);
  const auto type_id = r.get<std::uint32_t>();
  auto obj_bytes = r.get_bytes();
  LocalEntry entry;
  {
    ByteReader or_(obj_bytes);
    entry.obj = types_.make(type_id, or_);
  }
  entry.next_delivery = r.get<std::uint64_t>();
  const auto n_expected = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_expected; ++i) {
    const auto origin = r.get<ProcId>();
    const auto seq = r.get<std::uint32_t>();
    entry.expected[origin] = seq;
  }
  std::vector<Delivery> queued;
  const auto n_queued = r.get<std::uint64_t>();
  queued.reserve(n_queued);
  for (std::uint64_t i = 0; i < n_queued; ++i) {
    Delivery d;
    d.target = ptr;
    d.handler = r.get<ObjectHandlerId>();
    d.origin = r.get<ProcId>();
    d.weight = r.get<double>();
    d.delivery_no = r.get<std::uint64_t>();
    d.payload = r.get_bytes();
    queued.push_back(std::move(d));
  }
  const auto n_reorder = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_reorder; ++i) {
    const auto origin = r.get<ProcId>();
    const auto seq = r.get<std::uint32_t>();
    Buffered b;
    b.handler = r.get<ObjectHandlerId>();
    b.weight = r.get<double>();
    b.payload = r.get_bytes();
    entry.reorder.emplace(std::make_pair(origin, seq), std::move(b));
  }
  if (topology_) {
    // Topology appendix (mirrors migrate_locked's pack).
    const auto has_coords = r.get<std::uint8_t>();
    if (has_coords != 0) {
      Coords c;
      c.x = r.get<double>();
      c.y = r.get<double>();
      c.z = r.get<double>();
      coords_[ptr] = c;
    }
  }

  // Install. Any forwarding/cache entry from a previous residence epoch is now
  // obsolete: the object is *here*.
  forwarding_.erase(ptr);
  cache_.erase(ptr);
  local_.emplace(ptr, std::move(entry));
  ++stats_.migrations_in;

  // Tell the home processor so new senders find the object directly.
  if (ptr.home != node_.rank()) {
    // wire:mol.update pack w
    ByteWriter w;
    put_ptr(w, ptr);
    w.put<ProcId>(node_.rank());
    node_.send(ptr.home, Message{update_h_, node_.rank(), MsgKind::kSystem, w.take()});
  } else {
    home_dir_[ptr.index] = node_.rank();
  }

  // Re-announce the queued work units on this processor; delivery numbers
  // were assigned at first acceptance, so execution order is preserved.
  for (auto& d : queued) {
    PREMA_CHECK_MSG(static_cast<bool>(hooks_.on_delivery),
                    "MOL has no delivery sink installed");
    hooks_.on_delivery(std::move(d));
  }
  if (hooks_.on_installed) hooks_.on_installed(ptr);
}

void Mol::on_location_update(Message&& msg) {
  util::RecursiveLock g(node_.state_mutex());
  // wire:mol.update unpack r
  ByteReader r(msg.payload);
  const MobilePtr ptr = get_ptr(r);
  const ProcId loc = r.get<ProcId>();
  learn(ptr, loc);
}

void Mol::learn(const MobilePtr& ptr, ProcId loc) {
  if (is_local_locked(ptr)) return;  // we hold it; updates are stale by definition
  if (ptr.home == node_.rank()) {
    home_dir_[ptr.index] = loc;
    return;
  }
  cache_[ptr] = loc;
}

void Mol::set_coords(const MobilePtr& ptr, const Coords& c) {
  // No-op when topology accounting is off, so applications may register
  // coordinates unconditionally without perturbing scalar-policy runs.
  if (!topology_) return;
  util::RecursiveLock g(node_.state_mutex());
  coords_[ptr] = c;
}

std::optional<Coords> Mol::coords(const MobilePtr& ptr) const {
  if (!topology_) return std::nullopt;
  util::RecursiveLock g(node_.state_mutex());
  const auto it = coords_.find(ptr);
  if (it == coords_.end()) return std::nullopt;
  return it->second;
}

MolLayer::MolLayer(dmcs::Machine& machine) {
  auto& reg = machine.registry();
  // The handler bodies lock the node's state themselves (see mol.hpp), so
  // these registered thunks are plain dispatchers.
  const auto route_h = reg.add("mol.route", [this](dmcs::Node& n, Message&& m) {
    at(n.rank()).on_route(std::move(m));
  });
  const auto migrate_h = reg.add("mol.migrate", [this](dmcs::Node& n, Message&& m) {
    at(n.rank()).on_migrate(std::move(m));
  });
  const auto update_h = reg.add("mol.update", [this](dmcs::Node& n, Message&& m) {
    at(n.rank()).on_location_update(std::move(m));
  });
  // Registered unconditionally (not only under a fault plan) so handler ids
  // stay identical between reliable and fault-free runs.
  const auto offer_h = reg.add("mol.offer", [this](dmcs::Node& n, Message&& m) {
    at(n.rank()).on_offer(std::move(m));
  });
  const auto commit_h = reg.add("mol.commit", [this](dmcs::Node& n, Message&& m) {
    at(n.rank()).on_commit(std::move(m));
  });
  nodes_.reserve(static_cast<std::size_t>(machine.nprocs()));
  for (ProcId p = 0; p < machine.nprocs(); ++p) {
    nodes_.push_back(std::make_unique<Mol>(machine.node(p), types_, route_h,
                                           migrate_h, update_h, offer_h, commit_h));
  }
}

Mol& MolLayer::at(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < static_cast<ProcId>(nodes_.size()),
                  "MOL rank out of range");
  return *nodes_[static_cast<std::size_t>(p)];
}

}  // namespace prema::mol
