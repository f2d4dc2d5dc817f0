#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dmcs/machine.hpp"

/// \file harness.hpp
/// What every bench harness shares: building the machine a run executes on,
/// and reading the paper's per-run figures off its ledgers.

namespace prema::bench {

/// A machine of `nprocs` processors: "sim" emulates the paper's cluster at
/// `mflops` per processor, "thread" runs one real thread per processor and
/// spins `mflops`-rated compute. Any other backend aborts. `seed` seeds the
/// per-processor RNG streams.
std::unique_ptr<dmcs::Machine> make_machine(const std::string& backend, int nprocs,
                                            double mflops, std::uint64_t seed,
                                            dmcs::PollingConfig polling = {});

/// The paper's per-run ledger figures (Figs. 3-6), summed over processors.
struct LedgerFigures {
  double comp_stddev = 0.0;     ///< stddev of per-proc computation time
  double comp_total = 0.0;      ///< proc-seconds of useful computation
  double overhead_total = 0.0;  ///< messaging + scheduling + polling
  double sync_total = 0.0;
  double partition_total = 0.0;
  double overhead_pct = 0.0;    ///< overhead_total / comp_total * 100
  double sync_pct = 0.0;        ///< sync_total / comp_total * 100
};

/// Fill `out` from the ledgers of every processor of `machine` after a run.
void fill_ledger_figures(LedgerFigures& out, const dmcs::Machine& machine);

}  // namespace prema::bench
