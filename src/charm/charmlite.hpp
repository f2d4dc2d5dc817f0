#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmcs/machine.hpp"
#include "support/byte_buffer.hpp"

/// \file charmlite.hpp
/// "charmlite": a Charm++-style baseline runtime (paper §3.2), built on the
/// same DMCS substrate as PREMA so the two are compared apples-to-apples.
/// It reproduces the properties the paper measures:
///
///  - the application is decomposed into a 1-D *chare array* much larger
///    than the processor count; messages invoke *entry methods* on elements;
///  - a pick-and-process loop executes entry methods **atomically** — there
///    is no preemption, so runtime messages wait behind coarse entries;
///  - load balancing is *measurement-based*: the runtime records each
///    chare's execution time into a distributed LB database (the principle
///    of persistent computation), and rebalances only at **AtSync barriers**
///    using the Greedy strategy (§3.2).

namespace prema::charmlite {

using ChareIdx = std::int32_t;
using EntryId = std::uint32_t;

/// A migratable array element.
class Chare {
 public:
  virtual ~Chare() = default;
  virtual void serialize(util::ByteWriter& w) const = 0;
};

class Runtime;

/// What an entry method sees while executing on some processor.
class ChareContext {
 public:
  [[nodiscard]] ProcId rank() const;
  [[nodiscard]] int nprocs() const;
  [[nodiscard]] double now() const;
  [[nodiscard]] ChareIdx index() const { return index_; }

  /// Account application computation (defines this entry's duration).
  void compute(double mflop);

  /// Send a message to array element `idx`, invoking `entry` there.
  void send(ChareIdx idx, EntryId entry, std::vector<std::uint8_t> payload = {});

  /// Signal that this chare reached its synchronization point; when every
  /// chare has, the runtime runs the balancing strategy and then invokes the
  /// array's resume entry on every element (Charm++'s AtSync/ResumeFromSync).
  void at_sync();

 private:
  friend class Runtime;
  Runtime* rt_ = nullptr;
  dmcs::Node* node_ = nullptr;
  ChareIdx index_ = -1;
};

using EntryMethod = std::function<void(ChareContext&, Chare&, util::ByteReader&)>;
using ChareFactory =
    std::function<std::unique_ptr<Chare>(ChareIdx idx, util::ByteReader&)>;
using ChareInit = std::function<std::unique_ptr<Chare>(ChareIdx idx)>;

enum class Strategy : std::uint8_t {
  kNone = 0,   ///< AtSync barriers release immediately; nothing moves
  kGreedy,     ///< sort chares by measured load, heaviest to lightest proc
  kRotate      ///< shift every chare one proc (testing / worst case)
};

struct CharmConfig {
  Strategy strategy = Strategy::kGreedy;
};

class Runtime {
 public:
  Runtime(dmcs::Machine& machine, CharmConfig cfg = {});
  ~Runtime();

  /// Register the element type's migration factory (once, before run()).
  void set_chare_factory(ChareFactory factory) { factory_ = std::move(factory); }

  /// Register an entry method under a stable name; ids are dense from 1.
  EntryId register_entry(const std::string& name, EntryMethod fn);

  /// Declare the (single) 1-D chare array: `n` elements built block-
  /// distributed across processors by `init`; `resume_entry` runs on every
  /// element after each AtSync rebalancing step (0 = none).
  void create_array(ChareIdx n, ChareInit init, EntryId resume_entry = 0);

  /// Per-rank application entry point (typically rank 0 seeds messages).
  void set_main(std::function<void(ChareContext&)> fn) { main_ = std::move(fn); }

  /// Execute to quiescence; returns the makespan.
  double run();

  // -- introspection --------------------------------------------------------
  [[nodiscard]] int sync_rounds() const { return sync_rounds_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] double measured_load(ChareIdx idx) const;

 private:
  friend class ChareContext;
  struct NodeState;
  class Program;

  [[nodiscard]] ProcId initial_home(ChareIdx idx) const;
  NodeState& ns(ProcId p);
  void deliver_to_chare(dmcs::Node& n, dmcs::Message&& msg);
  void execute_next(dmcs::Node& n);
  void handle_sync_contribution(dmcs::Node& n, dmcs::Message&& msg);
  void handle_assignment(dmcs::Node& n, dmcs::Message&& msg);
  void handle_migrate(dmcs::Node& n, dmcs::Message&& msg);
  void handle_mig_check(dmcs::Node& n);
  void handle_mig_done(dmcs::Node& n, dmcs::Message&& msg);
  void handle_resume(dmcs::Node& n, dmcs::Message&& msg);
  void maybe_contribute(dmcs::Node& n);
  std::vector<ProcId> run_strategy(const std::vector<double>& loads,
                                   const std::vector<ProcId>& where);

  dmcs::Machine& machine_;
  CharmConfig cfg_;
  ChareFactory factory_;
  ChareInit init_;
  std::function<void(ChareContext&)> main_;
  std::vector<EntryMethod> entries_;
  std::vector<std::string> entry_names_;
  ChareIdx array_n_ = 0;
  EntryId resume_entry_ = 0;

  dmcs::HandlerId msg_h_ = dmcs::kNoHandler;
  dmcs::HandlerId exec_h_ = dmcs::kNoHandler;
  dmcs::HandlerId sync_h_ = dmcs::kNoHandler;
  dmcs::HandlerId assign_h_ = dmcs::kNoHandler;
  dmcs::HandlerId migrate_h_ = dmcs::kNoHandler;
  dmcs::HandlerId mig_done_h_ = dmcs::kNoHandler;
  dmcs::HandlerId resume_h_ = dmcs::kNoHandler;

  std::vector<std::unique_ptr<NodeState>> nodes_;

  // Central LB coordinator state (rank 0).
  int contributions_ = 0;
  std::vector<double> db_load_;      ///< measured load per chare (the LB db)
  std::vector<ProcId> db_where_;     ///< current location per chare
  int mig_done_reports_ = 0;
  int sync_rounds_ = 0;
  std::uint64_t migrations_ = 0;
  bool ran_ = false;
};

}  // namespace prema::charmlite
