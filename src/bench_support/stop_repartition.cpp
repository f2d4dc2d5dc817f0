#include "bench_support/stop_repartition.hpp"

#include <algorithm>
#include <map>

#include "graph/csr_graph.hpp"
#include "partition/multilevel.hpp"
#include "support/assert.hpp"

namespace prema::srp {

using dmcs::Message;
using dmcs::MsgKind;
using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

namespace {

/// Completion counts are batched to the root every this many units.
constexpr int kCompletionBatch = 32;

void put_ptr(ByteWriter& w, const mol::MobilePtr& p) {
  w.put<ProcId>(p.home);
  w.put<std::uint32_t>(p.index);
}

mol::MobilePtr get_ptr(ByteReader& r) {
  mol::MobilePtr p;
  p.home = r.get<ProcId>();
  p.index = r.get<std::uint32_t>();
  return p;
}

}  // namespace

struct Runtime::NodeRt {
  Context ctx;
  dmcs::Node* node = nullptr;
  mol::Mol* mol = nullptr;
  ilb::Scheduler sched;

  mol::Delivery current;
  bool has_current = false;

  bool halted = false;
  bool low_notified = false;
  int completions_since_report = 0;

  // During a migration phase: the objects this processor must end up owning.
  std::vector<mol::MobilePtr> expected;
  bool migdone_sent = false;
};

class Runtime::Program final : public dmcs::Program {
 public:
  Program(Runtime& rt, NodeRt& node) : rt_(rt), node_(node) {}

  void main(dmcs::Node&) override {
    if (rt_.main_) rt_.main_(node_.ctx);
  }

  bool service(dmcs::Node& n) override {
    if (node_.halted) return false;
    rt_.maybe_notify_low(n);
    auto d = node_.sched.pick();
    if (!d) return false;
    node_.current = std::move(*d);
    node_.has_current = true;
    n.execute(Message{rt_.exec_h_, n.rank(), MsgKind::kApp, {}}, [this, &n] {
      node_.sched.complete();
      ++node_.completions_since_report;
      if (node_.completions_since_report >= kCompletionBatch) {
        ByteWriter w;
        w.put<std::int64_t>(node_.completions_since_report);
        node_.completions_since_report = 0;
        n.send(0, Message{rt_.completed_h_, n.rank(), MsgKind::kSystem, w.take()});
      }
    });
    return true;
  }

  void on_idle(dmcs::Node& n) override {
    // Flush the completion batch so the root's outstanding estimate is fresh.
    if (node_.completions_since_report > 0) {
      ByteWriter w;
      w.put<std::int64_t>(node_.completions_since_report);
      node_.completions_since_report = 0;
      n.send(0, Message{rt_.completed_h_, n.rank(), MsgKind::kSystem, w.take()});
    }
    if (!node_.halted) rt_.maybe_notify_low(n);
  }

 private:
  Runtime& rt_;
  NodeRt& node_;
};

Runtime::Runtime(dmcs::Machine& machine, SrpConfig cfg)
    : machine_(machine), cfg_(cfg) {
  mol_layer_ = std::make_unique<mol::MolLayer>(machine_);
  auto& reg = machine_.registry();
  exec_h_ = reg.add("srp.exec", [this](dmcs::Node& n, Message&& m) {
    exec_wrapper(n, std::move(m));
  });
  low_h_ = reg.add("srp.low", [this](dmcs::Node& n, Message&& m) {
    on_low(n, std::move(m));
  });
  halt_h_ = reg.add("srp.halt", [this](dmcs::Node& n, Message&& m) {
    on_halt(n, std::move(m));
  });
  report_h_ = reg.add("srp.report", [this](dmcs::Node& n, Message&& m) {
    on_report(n, std::move(m));
  });
  assign_h_ = reg.add("srp.assign", [this](dmcs::Node& n, Message&& m) {
    on_assign(n, std::move(m));
  });
  migdone_h_ = reg.add("srp.migdone", [this](dmcs::Node& n, Message&& m) {
    on_migdone(n, std::move(m));
  });
  resume_h_ = reg.add("srp.resume", [this](dmcs::Node& n, Message&& m) {
    on_resume(n, std::move(m));
  });
  completed_h_ = reg.add("srp.completed", [this](dmcs::Node& n, Message&& m) {
    on_completed(n, std::move(m));
  });

  nodes_.reserve(static_cast<std::size_t>(machine_.nprocs()));
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    auto rt = std::make_unique<NodeRt>();
    rt->node = &machine_.node(p);
    rt->mol = &mol_layer_->at(p);
    rt->ctx.node_ = rt->node;
    rt->ctx.mol_ = rt->mol;
    nodes_.push_back(std::move(rt));
  }
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    NodeRt* r = nodes_[static_cast<std::size_t>(p)].get();
    mol::Mol::Hooks hooks;
    hooks.on_delivery = [r](mol::Delivery&& d) {
      r->sched.enqueue(std::move(d));
      r->low_notified = false;  // fresh work: the dry spell ended
    };
    hooks.take_queued = [r](const mol::MobilePtr& ptr) {
      return r->sched.take_queued(ptr);
    };
    hooks.on_installed = [this, r](const mol::MobilePtr&) {
      check_migration_done(*r->node);
    };
    r->mol->set_hooks(std::move(hooks));
  }
}

Runtime::~Runtime() = default;

Runtime::NodeRt& Runtime::rt(ProcId p) {
  PREMA_CHECK(p >= 0 && p < static_cast<ProcId>(nodes_.size()));
  return *nodes_[static_cast<std::size_t>(p)];
}

mol::ObjectHandlerId Runtime::register_object_handler(const std::string& name,
                                                      ObjectHandler fn) {
  for (const auto& existing : handler_names_) {
    PREMA_CHECK_MSG(existing != name, "duplicate object-handler name");
  }
  handlers_.push_back(std::move(fn));
  handler_names_.push_back(name);
  return static_cast<mol::ObjectHandlerId>(handlers_.size());
}

void Runtime::exec_wrapper(dmcs::Node& n, Message&&) {
  NodeRt& r = rt(n.rank());
  PREMA_CHECK_MSG(r.has_current, "exec without a picked unit");
  mol::Delivery d = std::move(r.current);
  r.has_current = false;
  auto* obj = r.mol->find(d.target);
  PREMA_CHECK_MSG(obj != nullptr, "executing unit's object is not resident");
  PREMA_CHECK(d.handler != 0 && d.handler <= handlers_.size());
  ByteReader reader(d.payload);
  handlers_[d.handler - 1](r.ctx, *obj, reader, d);
}

double Runtime::run() {
  PREMA_CHECK_MSG(!ran_, "srp Runtime::run may only be called once");
  ran_ = true;
  return machine_.run([this](ProcId p) {
    return std::make_unique<Program>(*this, rt(p));
  });
}

void Runtime::maybe_notify_low(dmcs::Node& n) {
  NodeRt& r = rt(n.rank());
  if (r.low_notified || r.halted) return;
  if (r.sched.queued_weight() >= cfg_.low_watermark) return;
  r.low_notified = true;
  n.send(0, Message{low_h_, n.rank(), MsgKind::kSystem, {}});
}

void Runtime::on_low(dmcs::Node& n, Message&&) {
  PREMA_CHECK_MSG(n.rank() == 0, "low-water notification reached a non-root");
  if (exchange_active_) return;
  const double since = n.now() - last_exchange_end_;
  if (since < cfg_.cooldown_s) {
    // Re-examine once the cooldown expires (the starved processor will not
    // ask again on its own).
    if (!low_retry_pending_) {
      low_retry_pending_ = true;
      n.send_self_after(cfg_.cooldown_s - since + 1e-6,
                        Message{low_h_, 0, MsgKind::kSystem, {}});
    }
    return;
  }
  low_retry_pending_ = false;
  if (total_units_ > 0) {
    const double outstanding =
        1.0 - static_cast<double>(completed_units_) /
                  static_cast<double>(total_units_);
    if (outstanding <= 0.0) return;  // nothing left at all
  }
  // Start a global exchange: every processor halts at its next poll point
  // and reports its weighted object list.
  exchange_active_ = true;
  ++exchanges_;
  reports_ = 0;
  gathered_.clear();
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    n.send(p, Message{halt_h_, 0, MsgKind::kSystem, {}});
  }
}

void Runtime::on_halt(dmcs::Node& n, Message&&) {
  NodeRt& r = rt(n.rank());
  r.halted = true;
  n.set_wait_category(TimeCategory::kSynchronization);
  send_report_if_halted(n);
}

void Runtime::send_report_if_halted(dmcs::Node& n) {
  NodeRt& r = rt(n.rank());
  PREMA_CHECK(r.halted);
  const auto loads = r.sched.migratable_loads();
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(loads.size()));
  for (const auto& l : loads) {
    put_ptr(w, l.ptr);
    w.put<double>(l.weight);
  }
  n.send(0, Message{report_h_, n.rank(), MsgKind::kSystem, w.take()});
}

void Runtime::on_report(dmcs::Node& n, Message&& msg) {
  PREMA_CHECK_MSG(n.rank() == 0, "workload report reached a non-root");
  ByteReader r(msg.payload);
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    Reported rep;
    rep.ptr = get_ptr(r);
    rep.weight = r.get<double>();
    rep.owner = msg.src;
    gathered_.push_back(rep);
  }
  ++reports_;
  if (reports_ == machine_.nprocs()) root_finish_gather(n);
}

void Runtime::root_finish_gather(dmcs::Node& n) {
  // Decide whether there is enough outstanding work to warrant moving
  // anything (paper §5: the Figure 4(d) case declines here).
  bool balance = true;
  if (total_units_ > 0) {
    const double outstanding =
        1.0 - static_cast<double>(completed_units_) /
                  static_cast<double>(total_units_);
    balance = outstanding >= cfg_.min_outstanding_fraction;
  }
  if (!balance || gathered_.empty()) {
    last_exchange_end_ = n.now();
    exchange_active_ = false;
    for (ProcId p = 0; p < machine_.nprocs(); ++p) {
      n.send(p, Message{resume_h_, 0, MsgKind::kSystem, {}});
    }
    return;
  }
  ++repartitions_;

  // Deterministic vertex order.
  std::sort(gathered_.begin(), gathered_.end(),
            [](const Reported& a, const Reported& b) { return a.ptr < b.ptr; });
  graph::GraphBuilder gb(static_cast<graph::VertexId>(gathered_.size()));
  graph::Partition old_part(gathered_.size());
  for (std::size_t i = 0; i < gathered_.size(); ++i) {
    gb.set_vertex_weight(static_cast<graph::VertexId>(i),
                         std::max(1e-9, gathered_[i].weight));
    old_part[i] = gathered_[i].owner;
  }
  const auto g = gb.build();
  part::AdaptiveOptions aopts;
  aopts.k = machine_.nprocs();
  aopts.alpha = cfg_.alpha;
  const auto res = part::adaptive_repartition(g, old_part, aopts);

  // The repartitioner runs in parallel on all processors; each is charged a
  // share of the modeled cost (the figures' "Partition Calculation Time").
  const double calc_s =
      part::modeled_partition_seconds(g, machine_.nprocs(), cfg_.proc_mflops) /
          machine_.nprocs() +
      5e-3;
  // Each processor only needs its slice: the objects it must send away and
  // the objects it will own afterwards.
  struct Slice {
    std::vector<std::pair<mol::MobilePtr, ProcId>> moves;  // (ptr, to)
    std::vector<mol::MobilePtr> expected;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(machine_.nprocs()));
  for (std::size_t i = 0; i < gathered_.size(); ++i) {
    const auto dst = static_cast<ProcId>(res.partition[i]);
    const auto owner = gathered_[i].owner;
    slices[static_cast<std::size_t>(dst)].expected.push_back(gathered_[i].ptr);
    if (dst != owner) {
      slices[static_cast<std::size_t>(owner)].moves.emplace_back(gathered_[i].ptr, dst);
    }
  }
  migdone_reports_ = 0;
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    const Slice& s = slices[static_cast<std::size_t>(p)];
    ByteWriter w(24 * (s.moves.size() + s.expected.size()) + 24);
    w.put<double>(calc_s);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(s.moves.size()));
    for (const auto& [ptr, dst] : s.moves) {
      put_ptr(w, ptr);
      w.put<ProcId>(dst);
    }
    w.put<std::uint32_t>(static_cast<std::uint32_t>(s.expected.size()));
    for (const auto& ptr : s.expected) put_ptr(w, ptr);
    n.send(p, Message{assign_h_, 0, MsgKind::kSystem, w.take()});
  }
}

void Runtime::on_assign(dmcs::Node& n, Message&& msg) {
  NodeRt& r = rt(n.rank());
  ByteReader reader(msg.payload);
  const double calc_s = reader.get<double>();
  n.compute_seconds(calc_s, TimeCategory::kPartitionCalc);
  r.expected.clear();
  r.migdone_sent = false;
  const auto n_moves = reader.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_moves; ++i) {
    const auto ptr = get_ptr(reader);
    const auto dst = reader.get<ProcId>();
    if (r.mol->is_local(ptr)) {
      r.mol->migrate(ptr, dst);
      ++migrations_;
    }
  }
  const auto n_expected = reader.get<std::uint32_t>();
  r.expected.reserve(n_expected);
  for (std::uint32_t i = 0; i < n_expected; ++i) r.expected.push_back(get_ptr(reader));
  check_migration_done(n);
}

void Runtime::check_migration_done(dmcs::Node& n) {
  NodeRt& r = rt(n.rank());
  if (!r.halted || r.migdone_sent) return;
  for (const auto& ptr : r.expected) {
    if (!r.mol->is_local(ptr)) return;
  }
  r.migdone_sent = true;
  n.send(0, Message{migdone_h_, n.rank(), MsgKind::kSystem, {}});
}

void Runtime::on_migdone(dmcs::Node& n, Message&&) {
  PREMA_CHECK_MSG(n.rank() == 0, "migration report reached a non-root");
  ++migdone_reports_;
  if (migdone_reports_ < machine_.nprocs()) return;
  migdone_reports_ = 0;
  last_exchange_end_ = n.now();
  exchange_active_ = false;
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    n.send(p, Message{resume_h_, 0, MsgKind::kSystem, {}});
  }
}

void Runtime::on_resume(dmcs::Node& n, Message&&) {
  NodeRt& r = rt(n.rank());
  r.halted = false;
  r.expected.clear();
  // A processor that is still starved after the exchange may notify again
  // (after the root's cooldown) — the repeated-synchronization pathology.
  r.low_notified = false;
  n.set_wait_category(TimeCategory::kIdle);
}

void Runtime::on_completed(dmcs::Node& n, Message&& msg) {
  PREMA_CHECK_MSG(n.rank() == 0, "completion report reached a non-root");
  ByteReader r(msg.payload);
  completed_units_ += r.get<std::int64_t>();
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

mol::MobilePtr Context::add_object(std::unique_ptr<mol::MobileObject> obj) {
  return mol_->add_object(std::move(obj));
}

void Context::message(const mol::MobilePtr& target, mol::ObjectHandlerId handler,
                      std::vector<std::uint8_t> payload, double weight) {
  mol_->message(target, handler, std::move(payload), weight);
}

}  // namespace prema::srp
