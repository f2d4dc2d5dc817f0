// Quickstart: the paper's Figure 2 — performing a task over the nodes of a
// tree — written against this library's PREMA API.
//
// The sequential version walks child pointers:
//
//     void tree_node_t::do_work() {
//       if (left)  left->do_work();
//       if (right) right->do_work();
//       ... do more work for the local node ...
//     }
//
// The PREMA version replaces local pointers with mobile pointers and direct
// calls with messages (the paper's ilb_message): each tree node is a mobile
// object the runtime may migrate, so the traversal is automatically load
// balanced — here by the Work Stealing policy, with preemptive (implicit)
// message processing.
//
// Run:  ./quickstart [--trace-out=trace.json]
//                    [--fault-profile=<name>] [--fault-seed=<n>]
//
// With --trace-out the run records an event trace and writes Chrome
// trace-event JSON you can open at https://ui.perfetto.dev, plus a text
// summary of the recorded counters on stdout.
//
// With --fault-profile the emulated network injects faults (message drops,
// duplication, reordering, latency spikes, payload corruption, node
// slowdowns — profiles: lossy1pct | burst-reorder | one-slow-node) and the
// runtime's reliable transport masks them: the traversal still visits every
// node exactly once and termination detection still fires.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "fault/fault_plan.hpp"
#include "prema/runtime.hpp"
#include "support/parse.hpp"
#include "trace/export.hpp"

using namespace prema;

namespace {

/// A tree node as a mobile object: children are mobile pointers, not raw
/// pointers, so the node works no matter where the runtime moved it.
class TreeNode : public mol::MobileObject {
 public:
  static constexpr std::uint32_t kTypeId = 1;

  TreeNode() = default;
  TreeNode(mol::MobilePtr l, mol::MobilePtr r, double mflop)
      : left(l), right(r), work_mflop(mflop) {}

  [[nodiscard]] std::uint32_t type_id() const override { return kTypeId; }
  void serialize(util::ByteWriter& w) const override {
    w.put<mol::MobilePtr>(left);
    w.put<mol::MobilePtr>(right);
    w.put<double>(work_mflop);
  }
  static std::unique_ptr<mol::MobileObject> make(util::ByteReader& r) {
    auto n = std::make_unique<TreeNode>();
    n->left = r.get<mol::MobilePtr>();
    n->right = r.get<mol::MobilePtr>();
    n->work_mflop = r.get<double>();
    return n;
  }

  mol::MobilePtr left = mol::kNullMobilePtr;
  mol::MobilePtr right = mol::kNullMobilePtr;
  double work_mflop = 50.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--fault-profile=", 16) == 0) {
      fault_profile = argv[i] + 16;
      if (!fault::is_fault_profile(fault_profile)) {
        std::fprintf(stderr, "unknown fault profile: %s\n", fault_profile.c_str());
        return 2;
      }
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      if (!util::parse_u64(argv[i] + 13, fault_seed)) {
        std::fprintf(stderr, "bad --fault-seed value: %s\n", argv[i] + 13);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out=<file>] [--fault-profile=<name>]"
                   " [--fault-seed=<n>]\n",
                   argv[0]);
      return 2;
    }
  }

  // An emulated 8-processor machine with preemptive (implicit) polling.
  sim::MachineConfig mcfg;
  mcfg.nprocs = 8;
  mcfg.mflops = 333.0;
  dmcs::PollingConfig pcfg;
  pcfg.mode = dmcs::PollingMode::kPreemptive;
  dmcs::SimMachine machine(mcfg, pcfg);
  if (fault_profile != "none") {
    machine.set_fault_plan(std::make_shared<fault::FaultPlan>(
        fault::make_fault_profile(fault_profile), fault_seed, mcfg.nprocs));
    std::printf("quickstart: fault profile %s (seed %llu), reliable transport on\n",
                fault_profile.c_str(),
                static_cast<unsigned long long>(fault_seed));
  }

  RuntimeConfig rcfg;
  rcfg.policy = "work_stealing";
  rcfg.trace.enabled = !trace_out.empty();
  Runtime rt(machine, rcfg);
  rt.object_types().add(TreeNode::kTypeId, TreeNode::make);

  int nodes_worked = 0;
  // Figure 2's do_work_handler: recurse into the children by message, then
  // do this node's own work.
  const auto do_work = rt.register_object_handler(
      "do_work", [&nodes_worked](Context& ctx, mol::MobileObject& obj,
                                 util::ByteReader&, const mol::Delivery& d) {
        auto& node = static_cast<TreeNode&>(obj);
        if (!node.left.is_null()) ctx.message(node.left, d.handler);
        if (!node.right.is_null()) ctx.message(node.right, d.handler);
        ctx.compute(node.work_mflop);  // ... do more work for the local node
        ++nodes_worked;
      });

  rt.set_main([do_work](Context& ctx) {
    if (ctx.rank() != 0) return;
    // Build a complete binary tree of depth 10, entirely on processor 0 —
    // a pathological initial distribution the balancer must fix.
    constexpr int kDepth = 10;
    constexpr int kCount = (1 << kDepth) - 1;
    std::vector<mol::MobilePtr> ptrs(kCount);
    for (int i = kCount - 1; i >= 0; --i) {
      const int l = 2 * i + 1, r = 2 * i + 2;
      ptrs[static_cast<std::size_t>(i)] = ctx.add_object(std::make_unique<TreeNode>(
          l < kCount ? ptrs[static_cast<std::size_t>(l)] : mol::kNullMobilePtr,
          r < kCount ? ptrs[static_cast<std::size_t>(r)] : mol::kNullMobilePtr,
          50.0));
    }
    ctx.message(ptrs[0], do_work);  // kick off the traversal at the root
  });

  const double makespan = rt.run();

  std::printf("quickstart: traversed %d tree nodes in %.2f emulated seconds\n",
              nodes_worked, makespan);
  std::printf("  termination detected: %s\n",
              rt.termination_detected() ? "yes" : "no");
  for (ProcId p = 0; p < machine.nprocs(); ++p) {
    std::printf("  proc %d: computation %6.2f s, %llu objects resident at end\n",
                p, machine.ledger(p).get(util::TimeCategory::kComputation),
                static_cast<unsigned long long>(rt.mol_at(p).local_count()));
  }

  if (const auto* rec = machine.tracer()) {
    if (!trace::write_chrome_trace_file(trace_out, *rec)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  trace: %llu events (%llu dropped) -> %s "
                "(open at https://ui.perfetto.dev)\n",
                static_cast<unsigned long long>(rec->total_events()),
                static_cast<unsigned long long>(rec->total_dropped()),
                trace_out.c_str());
    std::vector<util::TimeLedger> ledgers;
    for (ProcId p = 0; p < machine.nprocs(); ++p) {
      ledgers.push_back(machine.ledger(p));
    }
    trace::write_summary(std::cout, *rec, ledgers);
  }
  return 0;
}
