#include "bench_support/harness.hpp"

#include "dmcs/sim_machine.hpp"
#include "dmcs/thread_machine.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace prema::bench {

using util::TimeCategory;

std::unique_ptr<dmcs::Machine> make_machine(const std::string& backend, int nprocs,
                                            double mflops, std::uint64_t seed,
                                            dmcs::PollingConfig polling) {
  PREMA_CHECK_MSG(backend == "sim" || backend == "thread",
                  "unknown machine backend (try sim or thread)");
  if (backend == "sim") {
    sim::MachineConfig mcfg;
    mcfg.nprocs = nprocs;
    mcfg.mflops = mflops;
    mcfg.seed = seed;
    return std::make_unique<dmcs::SimMachine>(mcfg, polling);
  }
  dmcs::ThreadConfig tcfg;
  tcfg.nprocs = nprocs;
  tcfg.mflops = mflops;
  tcfg.polling = polling;
  tcfg.seed = seed;
  return std::make_unique<dmcs::ThreadMachine>(tcfg);
}

void fill_ledger_figures(LedgerFigures& out, const dmcs::Machine& machine) {
  util::RunningStats comp;
  for (ProcId p = 0; p < machine.nprocs(); ++p) {
    const util::TimeLedger& l = machine.ledger(p);
    comp.add(l.get(TimeCategory::kComputation));
    out.comp_total += l.get(TimeCategory::kComputation);
    out.overhead_total += l.get(TimeCategory::kMessaging) +
                          l.get(TimeCategory::kScheduling) +
                          l.get(TimeCategory::kPolling);
    out.sync_total += l.get(TimeCategory::kSynchronization);
    out.partition_total += l.get(TimeCategory::kPartitionCalc);
  }
  out.comp_stddev = comp.stddev();
  if (out.comp_total > 0) {
    out.overhead_pct = 100.0 * out.overhead_total / out.comp_total;
    out.sync_pct = 100.0 * out.sync_total / out.comp_total;
  }
}

}  // namespace prema::bench
