// The ILB framework's policy plug-ins: the same imbalanced application run
// under every bundled balancing strategy just by naming it — the
// customization point the PREMA framework is designed around (paper §4).
//
// Run:  ./policy_tour
#include <cstdio>
#include <memory>
#include <string>

#include "dmcs/sim_machine.hpp"
#include "ilb/policy.hpp"
#include "prema/runtime.hpp"

using namespace prema;

namespace {

class Job : public mol::MobileObject {
 public:
  explicit Job(double mflop = 0.0) : mflop_(mflop) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter& w) const override { w.put<double>(mflop_); }
  static std::unique_ptr<mol::MobileObject> make(util::ByteReader& r) {
    return std::make_unique<Job>(r.get<double>());
  }
  double mflop_;
};

double run_with_policy(const std::string& policy) {
  sim::MachineConfig mcfg;
  mcfg.nprocs = 16;
  mcfg.mflops = 333.0;
  dmcs::PollingConfig pcfg;
  pcfg.mode = dmcs::PollingMode::kPreemptive;
  dmcs::SimMachine machine(mcfg, pcfg);

  RuntimeConfig rcfg;
  rcfg.policy = policy;  // <- the only line that changes per strategy
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Job::make);
  const auto work = rt.register_object_handler(
      "work", [](Context& ctx, mol::MobileObject& obj, util::ByteReader&,
                 const mol::Delivery&) {
        ctx.compute(static_cast<Job&>(obj).mflop_);
      });
  rt.set_main([work](Context& ctx) {
    // A hot quarter of the machine holds 4x-weight jobs.
    const double mflop = ctx.rank() < ctx.nprocs() / 4 ? 400.0 : 100.0;
    for (int i = 0; i < 100; ++i) {
      const auto job = ctx.add_object(std::make_unique<Job>(mflop));
      // Coordinate along x by home rank: the sfc policy cuts this line into
      // equal-load segments; scalar policies ignore it (no-op without
      // topology accounting).
      ctx.set_coords(job, {(ctx.rank() + (i + 0.5) / 100.0) /
                               static_cast<double>(ctx.nprocs()),
                           0.5, 0.5});
      ctx.message(job, work, {}, mflop / 100.0);
    }
  });
  return rt.run();
}

}  // namespace

int main() {
  std::printf("one imbalanced workload, every bundled balancing policy\n");
  std::printf("(16 emulated procs; a quarter of them start with 4x-weight jobs)\n\n");
  for (const std::string& policy : ilb::policy_names()) {
    std::printf("  %-15s makespan %8.1f emulated seconds\n", policy.c_str(),
                run_with_policy(policy));
  }
  return 0;
}
