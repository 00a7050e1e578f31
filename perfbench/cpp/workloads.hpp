// The four lar-bench workloads.  Each fills the ledger with every
// end-to-end metric (untraced numbers) and, in a traced run, every
// per-layer metric; see perfbench/README.md for what each one measures.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"

namespace lar::bench {

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `args.workload`; returns false if the name is unknown.  `pace`
/// gauges the host's speed between the run's steps.
bool run_workload(const Args& args, Watchdog& dog, Pace& pace, Tracer& tracer,
                  Ledger& ledger);

}  // namespace lar::bench
