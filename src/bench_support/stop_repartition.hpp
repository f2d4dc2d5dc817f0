#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmcs/machine.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"
#include "partition/adaptive.hpp"

/// \file stop_repartition.hpp
/// The "ParMETIS" baseline of the paper's evaluation (§3.1, §5): explicit
/// stop-and-repartition over the same MOL/scheduler substrate PREMA uses.
///
/// Protocol (paper §5): work executes with no balancing until a processor's
/// queued load falls below the water-mark; it notifies the root. The root —
/// which tracks completed work units — decides whether enough outstanding
/// work warrants balancing. If so it halts every processor (each joins at its
/// next poll point: a long work unit delays the whole machine — the
/// synchronization penalty), gathers the weighted object graph, runs the
/// Unified Repartitioning algorithm (|Ecut| + alpha * |Vmove|), broadcasts
/// the new assignment, migrates objects, and resumes. If the outstanding
/// fraction is too small it resumes without moving anything — the paper's
/// Figure 4(d) pathology, where the synchronization is paid repeatedly for
/// nothing.

namespace prema::srp {

class Runtime;

/// Application-facing context (mirrors prema::Context for this runtime).
class Context {
 public:
  [[nodiscard]] ProcId rank() const { return node_->rank(); }
  [[nodiscard]] int nprocs() const { return node_->nprocs(); }
  [[nodiscard]] double now() const { return node_->now(); }
  [[nodiscard]] dmcs::Node& node() { return *node_; }

  mol::MobilePtr add_object(std::unique_ptr<mol::MobileObject> obj);
  /// Send a work message; `weight` is the hint the repartitioner will see.
  void message(const mol::MobilePtr& target, mol::ObjectHandlerId handler,
               std::vector<std::uint8_t> payload = {}, double weight = 1.0);
  void compute(double mflop) {
    node_->compute(mflop, util::TimeCategory::kComputation);
  }

 private:
  friend class Runtime;
  dmcs::Node* node_ = nullptr;
  mol::Mol* mol_ = nullptr;
};

using ObjectHandler = std::function<void(Context&, mol::MobileObject&,
                                         util::ByteReader&, const mol::Delivery&)>;

struct SrpConfig {
  /// Queued weight hints below which a processor notifies the root.
  double low_watermark = 2.0;
  /// The root declines to balance when the outstanding fraction of total
  /// work-unit count drops below this.
  double min_outstanding_fraction = 0.10;
  /// Minimum time between two global exchanges.
  double cooldown_s = 15.0;
  /// Relative Cost Factor for the unified repartitioner.
  double alpha = 1.0;
  /// Emulated compute rate used for the modeled partitioner cost.
  double proc_mflops = 333.0;
};

class Runtime {
 public:
  Runtime(dmcs::Machine& machine, SrpConfig cfg = {});
  ~Runtime();

  [[nodiscard]] mol::ObjectTypeRegistry& object_types() { return mol_layer_->types(); }
  mol::ObjectHandlerId register_object_handler(const std::string& name,
                                               ObjectHandler fn);
  void set_main(std::function<void(Context&)> fn) { main_ = std::move(fn); }

  /// Total work units the application will create (drives the root's
  /// outstanding-work estimate).
  void set_total_units(std::int64_t n) { total_units_ = n; }

  double run();

  // -- introspection --------------------------------------------------------
  [[nodiscard]] int exchanges() const { return exchanges_; }
  [[nodiscard]] int repartitions() const { return repartitions_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] mol::Mol& mol_at(ProcId p) { return mol_layer_->at(p); }

 private:
  struct NodeRt;
  class Program;

  NodeRt& rt(ProcId p);
  void exec_wrapper(dmcs::Node& n, dmcs::Message&& msg);
  void on_low(dmcs::Node& n, dmcs::Message&& msg);
  void on_halt(dmcs::Node& n, dmcs::Message&& msg);
  void on_report(dmcs::Node& n, dmcs::Message&& msg);
  void on_assign(dmcs::Node& n, dmcs::Message&& msg);
  void on_migdone(dmcs::Node& n, dmcs::Message&& msg);
  void on_resume(dmcs::Node& n, dmcs::Message&& msg);
  void on_completed(dmcs::Node& n, dmcs::Message&& msg);
  void maybe_notify_low(dmcs::Node& n);
  void send_report_if_halted(dmcs::Node& n);
  void check_migration_done(dmcs::Node& n);
  void root_finish_gather(dmcs::Node& n);

  dmcs::Machine& machine_;
  SrpConfig cfg_;
  std::unique_ptr<mol::MolLayer> mol_layer_;
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  std::vector<ObjectHandler> handlers_;
  std::vector<std::string> handler_names_;
  std::function<void(Context&)> main_;
  std::int64_t total_units_ = 0;

  dmcs::HandlerId exec_h_{}, low_h_{}, halt_h_{}, report_h_{}, assign_h_{},
      migdone_h_{}, resume_h_{}, completed_h_{};

  // Root state.
  bool exchange_active_ = false;
  bool low_retry_pending_ = false;
  double last_exchange_end_ = -1e18;
  int reports_ = 0;
  int migdone_reports_ = 0;
  std::int64_t completed_units_ = 0;
  int exchanges_ = 0;
  int repartitions_ = 0;
  std::uint64_t migrations_ = 0;
  struct Reported {
    mol::MobilePtr ptr;
    double weight;
    ProcId owner;
  };
  std::vector<Reported> gathered_;
  bool ran_ = false;
};

}  // namespace prema::srp
