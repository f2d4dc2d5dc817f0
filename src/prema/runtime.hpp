#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmcs/machine.hpp"
#include "ilb/balancer.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"
#include "service/arrivals.hpp"
#include "service/ledger.hpp"

/// \file runtime.hpp
/// PREMA: the Parallel Runtime Environment for Multicomputer Applications —
/// the paper's contribution, assembled from the substrates below it:
///
///   DMCS  (src/dmcs)  active messages, explicit/preemptive polling
///   MOL   (src/mol)   global namespace, migration, forwarding, ordering
///   ILB   (src/ilb)   scheduler + pluggable balancing policies
///
/// An application: registers mobile-object types and object handlers, gives
/// each rank a main() that creates objects and sends them messages, then
/// calls run(). Messages to objects become scheduled work units; the chosen
/// policy moves objects (with their pending work) between processors; a
/// Mattern-style quiescence detector confirms global termination.
///
/// See examples/quickstart.cpp for the paper's Figure 2 rendered against
/// this API.

namespace prema {

class Runtime;

/// Per-processor view handed to application code (main functions and object
/// handlers). Thin veneer over the node + its MOL instance.
class Context {
 public:
  [[nodiscard]] ProcId rank() const { return node_->rank(); }
  [[nodiscard]] int nprocs() const { return node_->nprocs(); }
  [[nodiscard]] double now() const { return node_->now(); }
  [[nodiscard]] util::Rng& rng() { return node_->rng(); }
  [[nodiscard]] dmcs::Node& node() { return *node_; }

  /// Install a new mobile object on this processor.
  mol::MobilePtr add_object(std::unique_ptr<mol::MobileObject> obj);

  /// Send an application message to a mobile object, wherever it lives. The
  /// registered handler runs with the object when the destination scheduler
  /// picks the resulting work unit. `weight` is the load hint the balancer
  /// sees (the paper feeds deliberately inaccurate hints to study adaptivity).
  void message(const mol::MobilePtr& target, mol::ObjectHandlerId handler,
               std::vector<std::uint8_t> payload = {}, double weight = 1.0);

  /// Register (or update) an object's spatial coordinates for the
  /// topology-aware sfc policy. A no-op unless the run's policy wants
  /// topology, so applications may call it unconditionally.
  void set_coords(const mol::MobilePtr& ptr, const mol::Coords& c) {
    mol_->set_coords(ptr, c);
  }

  /// Account `mflop` Mflop of application computation (defines the enclosing
  /// work unit's duration on the emulated machine; spins on the real one).
  void compute(double mflop) {
    node_->compute(mflop, util::TimeCategory::kComputation);
  }

 private:
  friend class Runtime;
  dmcs::Node* node_ = nullptr;
  mol::Mol* mol_ = nullptr;
};

/// Signature of an application object handler: runs on the processor that
/// currently holds `obj`, with the message payload and delivery metadata.
using ObjectHandler = std::function<void(Context&, mol::MobileObject&,
                                         util::ByteReader&, const mol::Delivery&)>;

struct RuntimeConfig {
  ilb::BalancerConfig balancer;
  /// Balancing policy registry name (see ilb::make_policy).
  std::string policy = "work_stealing";
  /// Overrides `policy` when set: builds one policy instance per processor
  /// (for tuned parameters the registry defaults don't cover).
  std::function<std::unique_ptr<ilb::Policy>()> policy_factory;
  /// Event tracing (src/trace). Off by default; when enabled the runtime
  /// attaches a recorder to the machine before run().
  trace::TraceConfig trace;
};

/// Open-loop service mode (run_service): instead of seeding all work in
/// main() and running to quiescence, each rank owns a deterministic arrival
/// generator whose stream injects requests for `duration_s` of machine time
/// while the balancer rebalances on an `epoch_s` cadence. Termination
/// detection is held off until every clock passes the deadline, then the
/// normal Mattern waves drain the tail and end the run.
struct ServiceConfig {
  /// Arrival injection window, seconds of machine time. No arrival fires at
  /// or after the deadline; in-flight work then drains to quiescence.
  double duration_s = 1.0;
  /// Rebalancing cadence: every epoch each rank polls its balancer and, when
  /// tracing, records its load in a `service-epoch` event, independent of
  /// whether its queue ran dry.
  double epoch_s = 50e-3;
  service::ArrivalConfig arrivals;
  /// Application sink for each generated request: typically hashes
  /// `a.client` to a mobile object and sends it a message carrying the
  /// arrival timestamp and cost. Runs on the arrival rank, lock held.
  std::function<void(Context&, const service::Arrival&)> on_arrival;
  /// Optional latency ledger; when set, arrivals are counted per rank
  /// (completions are the application's to record, since only it knows when
  /// a request's handler ran).
  service::ServiceLedger* ledger = nullptr;

  /// Mid-window policy switch: at machine time `t`, every rank swaps its
  /// balancer's policy for a fresh `make_policy(policy)` instance.
  struct PolicySwitch {
    double t = 0.0;
    std::string policy;
  };
  /// Applied at the first epoch tick at or after each entry's time (sorted
  /// by the runtime). If any scheduled policy wants topology, MOL topology
  /// accounting is enabled from the start of the run — switching never flips
  /// it mid-run, which would change traced migration byte sizes.
  std::vector<PolicySwitch> policy_switches;
};

class Runtime {
 public:
  explicit Runtime(dmcs::Machine& machine, const RuntimeConfig& cfg = {});
  ~Runtime();  // out-of-line: NodeRt/TermCoordinator are incomplete here

  /// Register a mobile-object factory (must happen on construction path,
  /// before run(), identically on every build of the same application).
  [[nodiscard]] mol::ObjectTypeRegistry& object_types() { return mol_layer_->types(); }

  /// Register an application object handler under a stable name; returns the
  /// id to pass to Context::message.
  mol::ObjectHandlerId register_object_handler(const std::string& name,
                                               ObjectHandler fn);

  /// Per-rank application entry point, run once at start.
  void set_main(std::function<void(Context&)> fn) { main_ = std::move(fn); }

  /// Execute to quiescence; returns the makespan in seconds.
  double run();

  /// Execute in open-loop service mode (see ServiceConfig); returns the
  /// makespan in seconds (injection window plus drain tail).
  double run_service(ServiceConfig svc);

  // -- post-run / introspection -------------------------------------------
  [[nodiscard]] mol::Mol& mol_at(ProcId p) { return mol_layer_->at(p); }
  [[nodiscard]] ilb::Balancer& balancer_at(ProcId p);
  /// Post-run, single-threaded reads of coordinator state (the workers have
  /// joined by the time run() returns, so no lock is taken).
  [[nodiscard]] bool termination_detected() const
      PREMA_NO_THREAD_SAFETY_ANALYSIS {
    return term_detected_;
  }
  [[nodiscard]] std::uint64_t termination_waves() const
      PREMA_NO_THREAD_SAFETY_ANALYSIS {
    return term_waves_;
  }

 private:
  class NodeProgram;
  struct NodeRt;

  // Termination detection (Mattern-style counting waves, coordinator rank 0,
  // combined through block leaders; see runtime.cpp).
  struct TermCoordinator;
  void term_send(ProcId from, ProcId to, std::vector<std::uint8_t> payload);
  void term_fan_out(ProcId leader, const std::vector<std::uint8_t>& payload);
  void term_on_idle(NodeRt& rt);
  void term_on_wire(NodeRt& rt, dmcs::Message&& msg);
  static void term_record_report(TermCoordinator& c, int slot, std::int64_t sent,
                                 std::int64_t recv);
  void term_member_report(NodeRt& leader, ProcId p, std::int64_t sent,
                          std::int64_t recv);
  void term_consider_wave(NodeRt& r0);
  static void term_open_wave(TermCoordinator& c, std::uint64_t wave);
  void term_start_wave(NodeRt& r0, std::uint64_t snapshot);
  void term_schedule_retry(NodeRt& r0);
  static bool term_tally_ack(TermCoordinator& c, std::uint64_t wave,
                             std::uint64_t sent, std::uint64_t recv, bool idle,
                             int count, int expected);
  void term_block_ack(NodeRt& leader, std::uint64_t wave, std::uint64_t sent,
                      std::uint64_t recv, bool idle);
  void term_record_ack(NodeRt& r0, std::uint64_t wave, std::uint64_t sent,
                       std::uint64_t recv, bool idle, int count);

  // Service mode (open-loop arrivals + epoch cadence).
  void service_start(NodeRt& r);
  void service_on_arrival(NodeRt& r);
  void service_on_epoch(NodeRt& r);

  void exec_wrapper(dmcs::Node& n, dmcs::Message&& msg);
  NodeRt& rt(ProcId p);

  dmcs::Machine& machine_;
  std::unique_ptr<mol::MolLayer> mol_layer_;
  std::vector<std::unique_ptr<NodeRt>> nodes_;
  std::vector<ObjectHandler> object_handlers_;
  std::vector<std::string> object_handler_names_;
  /// Interned trace names for object handlers, parallel to the vectors above
  /// (filled at run() when tracing is enabled).
  std::vector<trace::StrId> handler_name_ids_;
  std::function<void(Context&)> main_;

  dmcs::HandlerId exec_h_ = dmcs::kNoHandler;
  dmcs::HandlerId policy_h_ = dmcs::kNoHandler;
  dmcs::HandlerId term_h_ = dmcs::kNoHandler;
  dmcs::HandlerId svc_arrival_h_ = dmcs::kNoHandler;
  dmcs::HandlerId svc_epoch_h_ = dmcs::kNoHandler;

  /// Set by run_service before the workers start, then read-only for the
  /// whole run; null in run-to-quiescence mode.
  std::unique_ptr<ServiceConfig> svc_;

  /// The capability guarding rank 0's termination state (the per-block slots
  /// and the global wave): that part of the detector runs entirely inside
  /// rank 0's message handlers / idle hook, so rank 0's state mutex is what
  /// those paths already hold. A block leader's tally lives in its NodeRt,
  /// under its own state mutex.
  [[nodiscard]] util::RecursiveMutex& coord_mutex()
      PREMA_RETURN_CAPABILITY(machine_.node(0).state_mutex()) {
    return machine_.node(0).state_mutex();
  }
  /// Annotation shim for out-of-line coordinator paths (term_consider_wave
  /// and friends), mirroring NodeRt::assert_state_held.
  void assert_coord_held() PREMA_ASSERT_CAPABILITY(coord_mutex()) {}

  std::unique_ptr<TermCoordinator> term_ PREMA_GUARDED_BY(coord_mutex());
  bool term_detected_ PREMA_GUARDED_BY(coord_mutex()) = false;
  std::uint64_t term_waves_ PREMA_GUARDED_BY(coord_mutex()) = 0;
  bool ran_ = false;
};

}  // namespace prema
