// Replay probes of the traced run: each one feeds a sample of the
// workload's own tuples (or the key graph built from its own statistics)
// through one layer's public functions and times it in isolation.
#pragma once

#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/manager.hpp"
#include "spans.hpp"
#include "topology/placement.hpp"
#include "topology/routing.hpp"
#include "topology/topology.hpp"

namespace lar::bench {

struct ReplayInput {
  const Topology* topology = nullptr;
  const Placement* placement = nullptr;
  /// Router the workload's data path uses on fields edges.
  FieldsRouting fields_mode = FieldsRouting::kTable;
  /// Deployed (or planned) tables per destination operator.
  std::unordered_map<OperatorId, std::shared_ptr<const RoutingTable>> tables;
  /// Pair statistics the planner saw (for the key-graph / partition probes).
  std::vector<core::HopStats> hop_stats;
  std::size_t pair_capacity = 0;
  std::uint32_t num_parts = 0;  ///< partition parts (servers)
  double alpha = 1.03;
};

/// Runs every replay probe over `tuples` and adds the `topology.*`,
/// `runtime.codec.*`, `core.pair_stats.*`, `core.build_key_graph_s`,
/// `core.key_graph.*` and `partition.*` layer metrics.
void run_replay_probes(const ReplayInput& in, const std::vector<Tuple>& tuples,
                       Tracer& tracer, Ledger& ledger);

}  // namespace lar::bench
