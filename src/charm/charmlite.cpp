#include "charm/charmlite.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <queue>
#include <set>

#include "graph/csr_graph.hpp"
#include "partition/multilevel.hpp"
#include "support/assert.hpp"

namespace prema::charmlite {

using dmcs::Message;
using dmcs::MsgKind;
using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

namespace {

/// Extra per-entry scheduling overhead (pick-and-process bookkeeping).
constexpr double kSchedulingCostS = 2e-6;

struct Invocation {
  EntryId entry = 0;
  std::vector<std::uint8_t> payload;
};

}  // namespace

/// Per-processor charmlite state.
struct Runtime::NodeState {
  std::unordered_map<ChareIdx, std::unique_ptr<Chare>> chares;
  std::unordered_map<ChareIdx, std::deque<Invocation>> queues;
  std::deque<ChareIdx> ready;
  std::vector<ProcId> location;          ///< global view, refreshed per sync
  std::unordered_map<ChareIdx, double> measured;  ///< LB database (this phase)
  std::set<ChareIdx> synced;
  bool contributed = false;
  bool mig_done_sent = false;
  bool waiting_resume = false;
  int expected_owned = -1;

  // The invocation currently being executed (set before Node::execute).
  ChareIdx current = -1;
  std::optional<Invocation> current_inv;
};

class Runtime::Program final : public dmcs::Program {
 public:
  Program(Runtime& rt, ProcId rank) : rt_(rt), rank_(rank) {}

  void main(dmcs::Node& n) override {
    if (rt_.main_) {
      ChareContext ctx;
      ctx.rt_ = &rt_;
      ctx.node_ = &n;
      ctx.index_ = -1;
      rt_.main_(ctx);
    }
  }

  bool service(dmcs::Node& n) override {
    NodeState& s = rt_.ns(rank_);
    if (s.waiting_resume) return false;
    while (!s.ready.empty()) {
      const ChareIdx idx = s.ready.front();
      s.ready.pop_front();
      auto qit = s.queues.find(idx);
      if (qit == s.queues.end() || qit->second.empty()) continue;
      if (s.synced.count(idx) != 0) continue;  // parked until resume
      n.compute_seconds(kSchedulingCostS, TimeCategory::kScheduling);
      s.current = idx;
      s.current_inv = std::move(qit->second.front());
      qit->second.pop_front();
      if (qit->second.empty()) s.queues.erase(qit);
      rt_.execute_next(n);
      return true;
    }
    return false;
  }

  void on_idle(dmcs::Node& n) override {
    // A processor that owns no elements still has to join the barrier.
    rt_.maybe_contribute(n);
  }

 private:
  Runtime& rt_;
  ProcId rank_;
};

// ---------------------------------------------------------------------------
// ChareContext
// ---------------------------------------------------------------------------

ProcId ChareContext::rank() const { return node_->rank(); }
int ChareContext::nprocs() const { return node_->nprocs(); }
double ChareContext::now() const { return node_->now(); }

void ChareContext::compute(double mflop) {
  node_->compute(mflop, TimeCategory::kComputation);
  if (index_ >= 0) {
    // Runtime instrumentation: the LB database records what each chare
    // actually consumed this phase (§3.2, measurement-based prediction).
    rt_->ns(node_->rank()).measured[index_] += mflop;
  }
}

void ChareContext::send(ChareIdx idx, EntryId entry,
                        std::vector<std::uint8_t> payload) {
  PREMA_CHECK_MSG(idx >= 0 && idx < rt_->array_n_, "chare index out of range");
  ByteWriter w(payload.size() + 16);
  w.put<ChareIdx>(idx);
  w.put<EntryId>(entry);
  w.put_bytes(payload);
  auto& s = rt_->ns(node_->rank());
  const ProcId dst = s.location[static_cast<std::size_t>(idx)];
  node_->send(dst, Message{rt_->msg_h_, node_->rank(), MsgKind::kApp, w.take()});
}

void ChareContext::at_sync() {
  PREMA_CHECK_MSG(index_ >= 0, "at_sync outside an entry method");
  rt_->ns(node_->rank()).synced.insert(index_);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(dmcs::Machine& machine, CharmConfig cfg)
    : machine_(machine), cfg_(cfg) {
  auto& reg = machine_.registry();
  msg_h_ = reg.add("charm.msg", [this](dmcs::Node& n, Message&& m) {
    deliver_to_chare(n, std::move(m));
  });
  exec_h_ = reg.add("charm.exec", [this](dmcs::Node& n, Message&&) {
    NodeState& s = ns(n.rank());
    PREMA_CHECK_MSG(s.current >= 0 && s.current_inv.has_value(),
                    "charm exec without a picked invocation");
    Invocation inv = std::move(*s.current_inv);
    s.current_inv.reset();
    auto it = s.chares.find(s.current);
    PREMA_CHECK_MSG(it != s.chares.end(), "entry method for a missing element");
    PREMA_CHECK_MSG(inv.entry != 0 && inv.entry <= entries_.size(),
                    "unknown entry id");
    ChareContext ctx;
    ctx.rt_ = this;
    ctx.node_ = &n;
    ctx.index_ = s.current;
    ByteReader r(inv.payload);
    entries_[inv.entry - 1](ctx, *it->second, r);
  });
  sync_h_ = reg.add("charm.sync", [this](dmcs::Node& n, Message&& m) {
    handle_sync_contribution(n, std::move(m));
  });
  assign_h_ = reg.add("charm.assign", [this](dmcs::Node& n, Message&& m) {
    handle_assignment(n, std::move(m));
  });
  migrate_h_ = reg.add("charm.migrate", [this](dmcs::Node& n, Message&& m) {
    handle_migrate(n, std::move(m));
  });
  mig_done_h_ = reg.add("charm.migdone", [this](dmcs::Node& n, Message&& m) {
    handle_mig_done(n, std::move(m));
  });
  resume_h_ = reg.add("charm.resume", [this](dmcs::Node& n, Message&& m) {
    handle_resume(n, std::move(m));
  });
  nodes_.reserve(static_cast<std::size_t>(machine_.nprocs()));
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    nodes_.push_back(std::make_unique<NodeState>());
  }
}

Runtime::~Runtime() = default;

Runtime::NodeState& Runtime::ns(ProcId p) {
  PREMA_CHECK(p >= 0 && p < static_cast<ProcId>(nodes_.size()));
  return *nodes_[static_cast<std::size_t>(p)];
}

EntryId Runtime::register_entry(const std::string& name, EntryMethod fn) {
  for (const auto& existing : entry_names_) {
    PREMA_CHECK_MSG(existing != name, "duplicate entry name");
  }
  entries_.push_back(std::move(fn));
  entry_names_.push_back(name);
  return static_cast<EntryId>(entries_.size());
}

ProcId Runtime::initial_home(ChareIdx idx) const {
  const int p = machine_.nprocs();
  const ChareIdx per = (array_n_ + p - 1) / p;  // block distribution
  return std::min<ProcId>(idx / per, p - 1);
}

void Runtime::create_array(ChareIdx n, ChareInit init, EntryId resume_entry) {
  PREMA_CHECK_MSG(array_n_ == 0, "charmlite supports one chare array per run");
  PREMA_CHECK(n > 0);
  array_n_ = n;
  init_ = std::move(init);
  resume_entry_ = resume_entry;
  db_load_.assign(static_cast<std::size_t>(n), 0.0);
  db_where_.assign(static_cast<std::size_t>(n), 0);
  for (ChareIdx i = 0; i < n; ++i) {
    db_where_[static_cast<std::size_t>(i)] = initial_home(i);
  }
}

double Runtime::measured_load(ChareIdx idx) const {
  return db_load_[static_cast<std::size_t>(idx)];
}

double Runtime::run() {
  PREMA_CHECK_MSG(!ran_, "charmlite Runtime::run may only be called once");
  PREMA_CHECK_MSG(array_n_ > 0, "create_array before run");
  ran_ = true;
  // Build the elements at their initial homes and set the location views.
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    NodeState& s = ns(p);
    s.location.assign(static_cast<std::size_t>(array_n_), 0);
    for (ChareIdx i = 0; i < array_n_; ++i) {
      s.location[static_cast<std::size_t>(i)] = initial_home(i);
    }
  }
  for (ChareIdx i = 0; i < array_n_; ++i) {
    ns(initial_home(i)).chares.emplace(i, init_(i));
  }
  return machine_.run(
      [this](ProcId p) { return std::make_unique<Program>(*this, p); });
}

void Runtime::deliver_to_chare(dmcs::Node& n, Message&& msg) {
  ByteReader r(msg.payload);
  const auto idx = r.get<ChareIdx>();
  const auto entry = r.get<EntryId>();
  auto payload = r.get_bytes();
  NodeState& s = ns(n.rank());
  auto it = s.chares.find(idx);
  if (it == s.chares.end()) {
    // Stale location (the chare moved at the last sync): forward.
    const ProcId next = s.location[static_cast<std::size_t>(idx)];
    PREMA_CHECK_MSG(next != n.rank(), "charm message stuck: unknown element");
    n.send(next, std::move(msg));
    return;
  }
  const bool was_empty = s.queues[idx].empty();
  s.queues[idx].push_back(Invocation{entry, std::move(payload)});
  if (was_empty) s.ready.push_back(idx);
}

void Runtime::execute_next(dmcs::Node& n) {
  n.execute(Message{exec_h_, n.rank(), MsgKind::kApp, {}}, [this, &n] {
    NodeState& st = ns(n.rank());
    // If the element still has work and did not park itself, requeue it.
    if (st.queues.count(st.current) != 0 && st.synced.count(st.current) == 0) {
      st.ready.push_back(st.current);
    }
    st.current = -1;
    maybe_contribute(n);
  });
}

void Runtime::maybe_contribute(dmcs::Node& n) {
  NodeState& s = ns(n.rank());
  if (s.contributed || s.waiting_resume) return;
  // Loaded processors join the barrier when all their elements have parked
  // themselves with at_sync; element-less processors join eagerly so the
  // barrier can complete (and are released by the resume broadcast).
  if (!s.chares.empty() && s.synced.size() != s.chares.size()) return;
  s.contributed = true;
  s.waiting_resume = true;
  // From here the processor is blocked in the balancing barrier.
  n.set_wait_category(util::TimeCategory::kSynchronization);
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.chares.size()));
  for (const auto& [idx, chare] : s.chares) {
    w.put<ChareIdx>(idx);
    w.put<double>(s.measured.count(idx) ? s.measured.at(idx) : 0.0);
  }
  n.send(0, Message{sync_h_, n.rank(), MsgKind::kSystem, w.take()});
}

void Runtime::handle_sync_contribution(dmcs::Node& n, Message&& msg) {
  PREMA_CHECK_MSG(n.rank() == 0, "sync contribution reached a non-root");
  ByteReader r(msg.payload);
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto idx = r.get<ChareIdx>();
    const double load = r.get<double>();
    db_load_[static_cast<std::size_t>(idx)] = load;
    db_where_[static_cast<std::size_t>(idx)] = msg.src;
  }
  ++contributions_;
  if (contributions_ < machine_.nprocs()) return;
  contributions_ = 0;
  ++sync_rounds_;

  // Balancing step: run the strategy on the measured database.
  const auto assignment = run_strategy(db_load_, db_where_);
  // Charge the decision cost as Partition Calculation time on the root: the
  // strategy costs 30% of a multilevel partition of the chare graph.
  graph::GraphBuilder gb(array_n_);
  for (ChareIdx i = 0; i < array_n_; ++i) {
    gb.set_vertex_weight(i, std::max(1e-9, db_load_[static_cast<std::size_t>(i)]));
  }
  n.compute_seconds(
      part::modeled_partition_seconds(gb.build(), machine_.nprocs()) * 0.3,
      TimeCategory::kPartitionCalc);

  ByteWriter w;
  w.put_vector(assignment);
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    n.send(p, Message{assign_h_, 0, MsgKind::kSystem, w.bytes()});
  }
  mig_done_reports_ = 0;
  db_where_ = assignment;
}

std::vector<ProcId> Runtime::run_strategy(const std::vector<double>& loads,
                                          const std::vector<ProcId>& where) {
  const int p = machine_.nprocs();
  std::vector<ProcId> out = where;
  switch (cfg_.strategy) {
    case Strategy::kNone:
      return out;
    case Strategy::kRotate:
      for (auto& loc : out) loc = (loc + 1) % p;
      return out;
    case Strategy::kGreedy: {
      std::vector<ChareIdx> order(loads.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](ChareIdx a, ChareIdx b) {
        if (loads[static_cast<std::size_t>(a)] != loads[static_cast<std::size_t>(b)]) {
          return loads[static_cast<std::size_t>(a)] > loads[static_cast<std::size_t>(b)];
        }
        return a < b;
      });
      std::priority_queue<std::pair<double, ProcId>,
                          std::vector<std::pair<double, ProcId>>, std::greater<>>
          heap;
      for (ProcId q = 0; q < p; ++q) heap.emplace(0.0, q);
      for (const ChareIdx c : order) {
        auto [w, q] = heap.top();
        heap.pop();
        out[static_cast<std::size_t>(c)] = q;
        heap.emplace(w + loads[static_cast<std::size_t>(c)], q);
      }
      return out;
    }
  }
  return out;
}

void Runtime::handle_assignment(dmcs::Node& n, Message&& msg) {
  ByteReader r(msg.payload);
  const auto assignment = r.get_vector<ProcId>();
  NodeState& s = ns(n.rank());
  s.location.assign(assignment.begin(), assignment.end());
  s.expected_owned = 0;
  for (const auto loc : assignment) {
    if (loc == n.rank()) ++s.expected_owned;
  }
  // Ship away elements that no longer belong here, with their parked queues.
  std::vector<ChareIdx> leaving;
  for (const auto& [idx, chare] : s.chares) {
    if (assignment[static_cast<std::size_t>(idx)] != n.rank()) {
      leaving.push_back(idx);
    }
  }
  for (const ChareIdx idx : leaving) {
    ByteWriter w;
    w.put<ChareIdx>(idx);
    {
      ByteWriter body;
      s.chares.at(idx)->serialize(body);
      w.put_bytes(body.bytes());
    }
    auto qit = s.queues.find(idx);
    const auto pending =
        static_cast<std::uint32_t>(qit == s.queues.end() ? 0 : qit->second.size());
    w.put<std::uint32_t>(pending);
    if (qit != s.queues.end()) {
      for (const auto& inv : qit->second) {
        w.put<EntryId>(inv.entry);
        w.put_bytes(inv.payload);
      }
      s.queues.erase(qit);
    }
    s.chares.erase(idx);
    s.synced.erase(idx);
    s.measured.erase(idx);
    n.send(s.location[static_cast<std::size_t>(idx)],
           Message{migrate_h_, n.rank(), MsgKind::kSystem, w.take()});
  }
  s.ready.clear();  // rebuilt on resume
  migrations_ += leaving.size();
  handle_mig_check(n);
}

void Runtime::handle_migrate(dmcs::Node& n, Message&& msg) {
  ByteReader r(msg.payload);
  const auto idx = r.get<ChareIdx>();
  auto body = r.get_bytes();
  {
    ByteReader br(body);
    PREMA_CHECK_MSG(static_cast<bool>(factory_), "no chare factory registered");
    NodeState& s = ns(n.rank());
    s.chares.emplace(idx, factory_(idx, br));
    const auto pending = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < pending; ++i) {
      Invocation inv;
      inv.entry = r.get<EntryId>();
      inv.payload = r.get_bytes();
      s.queues[idx].push_back(std::move(inv));
    }
    s.synced.insert(idx);  // arrived parked; resume un-parks
  }
  handle_mig_check(n);
}

void Runtime::handle_mig_check(dmcs::Node& n) {
  NodeState& s = ns(n.rank());
  if (s.expected_owned < 0 || s.mig_done_sent) return;
  if (static_cast<int>(s.chares.size()) != s.expected_owned) return;
  s.mig_done_sent = true;
  n.send(0, Message{mig_done_h_, n.rank(), MsgKind::kSystem, {}});
}

void Runtime::handle_mig_done(dmcs::Node& n, Message&&) {
  PREMA_CHECK_MSG(n.rank() == 0, "migration report reached a non-root");
  ++mig_done_reports_;
  if (mig_done_reports_ < machine_.nprocs()) return;
  mig_done_reports_ = 0;
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    n.send(p, Message{resume_h_, 0, MsgKind::kSystem, {}});
  }
}

void Runtime::handle_resume(dmcs::Node& n, Message&&) {
  NodeState& s = ns(n.rank());
  n.set_wait_category(util::TimeCategory::kIdle);
  s.waiting_resume = false;
  s.contributed = false;
  s.mig_done_sent = false;
  s.expected_owned = -1;
  s.synced.clear();
  s.measured.clear();  // fresh profile for the next phase
  s.ready.clear();
  for (const auto& [idx, q] : s.queues) {
    if (!q.empty()) s.ready.push_back(idx);
  }
  if (resume_entry_ != 0) {
    for (const auto& [idx, chare] : s.chares) {
      const bool was_empty = s.queues[idx].empty();
      s.queues[idx].push_back(Invocation{resume_entry_, {}});
      if (was_empty) s.ready.push_back(idx);
    }
  }
}

}  // namespace prema::charmlite
