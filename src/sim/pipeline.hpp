// Flow-level pipeline model: runs tuples through the same routing *decisions*
// the threaded runtime makes and accounts CPU, NIC bytes, per-edge locality,
// per-instance load and pair statistics.
//
// The model is exact with respect to routing decisions — routing tables
// produced by the Manager are installed verbatim — and statistical with
// respect to time: feeding N sample tuples yields per-tuple resource demands
// from which the throughput solver derives the sustainable rate.
//
// Hot path: every (edge, emitting instance) gets the same lar::Router the
// runtime gives that POI, built once at construction and stored by value in
// one contiguous vector.  Delivery walks the DAG with an explicit worklist
// rather than recursion, so chain depth is bounded by one reserved vector,
// not the C++ stack.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/locality.hpp"
#include "core/manager.hpp"
#include "core/pair_stats.hpp"
#include "sim/config.hpp"
#include "topology/placement.hpp"
#include "topology/routing.hpp"
#include "topology/topology.hpp"

namespace lar::sim {

/// Resource demands and traffic counters accumulated over processed tuples.
struct TrafficStats {
  std::uint64_t tuples = 0;  ///< source tuples processed

  std::vector<core::EdgeTraffic> edge_traffic;  ///< per topology edge
  std::vector<std::uint64_t> edge_remote_bytes; ///< per topology edge
  /// per topology edge: tuples that crossed a rack boundary (subset of
  /// edge_traffic[e].remote).
  std::vector<std::uint64_t> edge_rack_remote;

  std::vector<double> cpu_units;      ///< per server
  std::vector<std::uint64_t> nic_out; ///< per server, bytes
  std::vector<std::uint64_t> nic_in;  ///< per server, bytes
  std::vector<std::uint64_t> uplink_out;  ///< per rack, bytes
  std::vector<std::uint64_t> uplink_in;   ///< per rack, bytes

  /// per operator, per instance: tuples received.
  std::vector<std::vector<std::uint64_t>> instance_load;
};

/// Deploys a Topology + Placement as a routing cascade.
class PipelineModel {
 public:
  /// `fields_mode` selects the router used on fields-grouped edges until a
  /// table is installed (kTable starts with empty tables = hash fallback).
  PipelineModel(const Topology& topology, const Placement& placement,
                const SimConfig& config, FieldsRouting fields_mode);

  /// Feeds one tuple through the whole DAG, updating all counters and the
  /// per-POI pair statistics.
  void process(const Tuple& tuple);

  /// Feeds `count` tuples in order — equivalent to calling process() on each,
  /// but lets the window driver amortize the call overhead per batch.
  void process_batch(const Tuple* tuples, std::size_t count);

  /// Installs `table` on every inbound fields-grouped edge of `op`
  /// (replacing hash or a previous table).  Takes effect immediately.
  void set_table(OperatorId op, std::shared_ptr<const RoutingTable> table);

  /// Restricts traffic to the server prefix [0, num_active) (lar::elastic):
  /// sources and shuffle edges re-target the active instance sets.  Fields
  /// edges are NOT touched — the caller installs the new epoch's tables
  /// (whose hash-fallback domain is the active set) via set_table(), which
  /// the sim's atomic deploy makes a single logical instant.  Requires
  /// FieldsRouting::kTable and only kFields / kShuffle groupings.
  void set_active_servers(std::uint32_t num_active);

  /// Current live-server count (the active prefix).
  [[nodiscard]] std::uint32_t active_servers() const noexcept {
    return active_servers_;
  }

  /// Merged pair statistics per optimizable hop, ready for the Manager.
  [[nodiscard]] std::vector<core::HopStats> collect_hop_stats() const;

  /// One emitting POI's pair-statistics report for one optimizable hop —
  /// the sim analogue of the runtime's SEND_METRICS reply.  Chaos fault
  /// plans drop or delay whole reports, so the unit must match.
  struct PairStatsReport {
    std::uint32_t edge = 0;
    InstanceIndex instance = 0;
    std::vector<core::PairCount> counts;
  };

  /// All reports, in canonical (edge, instance) order.
  [[nodiscard]] std::vector<PairStatsReport> snapshot_pair_stats() const;

  /// Merges a (possibly partial or stale) report set into Manager-ready
  /// HopStats.  Grouping is by edge in edge-id order and merge_pair_counts
  /// is order-independent, so any survivor subset yields a deterministic
  /// result; merging every report reproduces collect_hop_stats() exactly.
  [[nodiscard]] std::vector<core::HopStats> merge_reports(
      const std::vector<PairStatsReport>& reports) const;

  /// Clears pair statistics (the paper resets them after reconfiguration).
  void reset_pair_stats();

  /// Clears pair statistics only for edges into operators in
  /// [op_begin, op_end) — the deploy-consumed subset of a tenant-scoped
  /// reconfiguration (lar::fleet); other tenants' statistics keep
  /// accumulating toward their own waves.
  void reset_pair_stats(OperatorId op_begin, OperatorId op_end);

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats();

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  /// One node of the delivery walk; `cursor` resumes iteration over the
  /// node's out-edges so the explicit stack reproduces the recursive DFS
  /// order exactly (router state makes that order observable).
  struct Frame {
    OperatorId op;
    InstanceIndex instance;
    Key in_key;
    ServerId server;
    std::uint32_t cursor;
  };

  void deliver(OperatorId op, InstanceIndex instance, Key routed_in_key,
               const Tuple& tuple);

  /// Re-targets every shuffle router and source pick list to the active
  /// instance sets of the prefix [0, num_active).
  void apply_active_restriction(std::uint32_t num_active);

  const Topology& topology_;
  const Placement& placement_;
  SimConfig config_;
  FieldsRouting fields_mode_;
  // The router of (edge e, src instance i) is routers_[route_base_[e] + i].
  std::vector<Router> routers_;
  std::vector<std::uint32_t> route_base_;
  std::vector<Frame> work_;
  // pair_stats_[edge_id][src_instance]: stats recorded by the emitting POI
  // for optimizable hops (empty vector for other edges).
  std::vector<std::vector<core::PairStats>> pair_stats_;
  std::uint64_t source_seq_ = 0;
  /// Per operator: whose input key tuples seen here were last routed by.
  std::vector<std::optional<OperatorId>> anchors_;
  TrafficStats stats_;

  // Elasticity (lar::elastic).  restricted_ latches once the model has ever
  // had a non-full active set; the restricted source path over a full list
  // makes exactly the historical `% parallelism` picks.
  std::uint32_t active_servers_ = 0;
  bool restricted_ = false;
  std::vector<OperatorId> sources_;  ///< cached topology_.sources()
  std::vector<std::vector<InstanceIndex>> source_actives_;  // [source pos]
};

}  // namespace lar::sim
