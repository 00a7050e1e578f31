#include "sim/pipeline.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace lar::sim {

PipelineModel::PipelineModel(const Topology& topology,
                             const Placement& placement,
                             const SimConfig& config,
                             FieldsRouting fields_mode)
    : topology_(topology),
      placement_(placement),
      config_(config),
      fields_mode_(fields_mode) {
  LAR_CHECK(topology.validate().is_ok());
  anchors_ = compute_stats_anchors(topology);
  sources_ = topology.sources();

  const auto& edges = topology.edges();
  route_base_.resize(edges.size());
  pair_stats_.resize(edges.size());
  work_.reserve(topology.num_operators());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const EdgeSpec& edge = edges[e];
    const std::uint32_t src_par = topology.op(edge.from).parallelism;
    route_base_[e] = static_cast<std::uint32_t>(routers_.size());
    for (InstanceIndex i = 0; i < src_par; ++i) {
      routers_.push_back(make_router(
          edge, static_cast<std::uint32_t>(e), topology, placement,
          placement.server_of(edge.from, i), fields_mode, /*table=*/nullptr,
          /*seed=*/config.seed * 1000003 + e * 131 + i));
    }
    // Instrument the emitting POIs of optimizable hops: fields edges whose
    // emitter carries an upstream fields-routed key (its "anchor"); for a
    // stateful emitter that is the emitter itself, for a stateless one the
    // nearest fields-routed ancestor (paper Figure 3's B -> C -> D shape).
    if (edge.grouping == GroupingType::kFields &&
        anchors_[edge.from].has_value()) {
      pair_stats_[e].reserve(src_par);
      for (InstanceIndex i = 0; i < src_par; ++i) {
        pair_stats_[e].emplace_back(config.pair_stats_capacity);
      }
    }
  }

  stats_.edge_traffic.assign(edges.size(), {});
  stats_.edge_remote_bytes.assign(edges.size(), 0);
  stats_.edge_rack_remote.assign(edges.size(), 0);
  stats_.cpu_units.assign(placement.num_servers(), 0.0);
  stats_.nic_out.assign(placement.num_servers(), 0);
  stats_.nic_in.assign(placement.num_servers(), 0);
  stats_.uplink_out.assign(placement.num_racks(), 0);
  stats_.uplink_in.assign(placement.num_racks(), 0);
  stats_.instance_load.resize(topology.num_operators());
  for (OperatorId op = 0; op < topology.num_operators(); ++op) {
    stats_.instance_load[op].assign(topology.op(op).parallelism, 0);
  }

  // Elastic restricted start (stats vectors stay max-sized; zero-work
  // servers never become the bottleneck candidate).  Fields edges begin on
  // fallback-domain tables so unknown keys hash over the active instance
  // set, never onto a dormant server.
  active_servers_ = config.active_servers == 0 ? placement.num_servers()
                                               : config.active_servers;
  LAR_CHECK(active_servers_ >= 1 &&
            active_servers_ <= placement.num_servers());
  if (active_servers_ < placement.num_servers()) {
    restricted_ = true;
    for (const EdgeSpec& edge : edges) {
      if (edge.grouping == GroupingType::kFields) {
        auto table = std::make_shared<RoutingTable>();
        table->set_fallback(
            placement.active_instances(edge.to, active_servers_));
        set_table(edge.to, std::move(table));
      }
    }
    apply_active_restriction(active_servers_);
  }
}

void PipelineModel::process(const Tuple& tuple) {
  ++stats_.tuples;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const OperatorId src = sources_[s];
    InstanceIndex instance = 0;
    if (restricted_) {
      // Active-list pick; over a full list this is exactly the historical
      // `% parallelism` pick (act[i] == i).
      const std::vector<InstanceIndex>& act = source_actives_[s];
      switch (config_.source_mode) {
        case SourceMode::kAlignedField0:
          LAR_CHECK(!tuple.fields.empty());
          instance = act[tuple.fields[0] % act.size()];
          break;
        case SourceMode::kRoundRobin:
          instance = act[source_seq_ % act.size()];
          break;
      }
    } else {
      const std::uint32_t par = topology_.op(src).parallelism;
      switch (config_.source_mode) {
        case SourceMode::kAlignedField0:
          LAR_CHECK(!tuple.fields.empty());
          instance = static_cast<InstanceIndex>(tuple.fields[0] % par);
          break;
        case SourceMode::kRoundRobin:
          instance = static_cast<InstanceIndex>(source_seq_ % par);
          break;
      }
    }
    deliver(src, instance, /*routed_in_key=*/kNoKey, tuple);
  }
  ++source_seq_;
}

void PipelineModel::process_batch(const Tuple* tuples, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) process(tuples[i]);
}

void PipelineModel::deliver(OperatorId op, InstanceIndex instance,
                            Key routed_in_key, const Tuple& tuple) {
  // Entry accounting for the root node; children are accounted when pushed.
  {
    const ServerId server = placement_.server_of(op, instance);
    stats_.cpu_units[server] += topology_.op(op).cpu_cost_per_tuple;
    ++stats_.instance_load[op][instance];
    work_.clear();
    work_.push_back(Frame{op, instance, routed_in_key, server, 0});
  }

  // Depth-first, LIFO: pushing a child and looping processes the child's
  // out-edges before the parent's next edge — byte-for-byte the order the
  // recursive implementation produced (round-robin and partial-key routers
  // mutate state per decision, so the order is observable).
  while (!work_.empty()) {
    Frame& top = work_.back();
    const auto& out_edges = topology_.out_edges(top.op);
    if (top.cursor == out_edges.size()) {
      work_.pop_back();
      continue;
    }
    const std::uint32_t e = out_edges[top.cursor++];
    const InstanceIndex src_instance = top.instance;
    const Key in_key = top.in_key;
    const ServerId server = top.server;  // copied: push_back invalidates top

    const EdgeSpec& edge = topology_.edges()[e];
    const InstanceIndex dst =
        routers_[route_base_[e] + src_instance].route(tuple);
    const ServerId dst_server = placement_.server_of(edge.to, dst);

    if (!pair_stats_[e].empty() && in_key != kNoKey) {
      pair_stats_[e][src_instance].record(in_key,
                                          tuple.fields[edge.key_field]);
    }

    Key next_in_key = in_key;
    if (edge.grouping == GroupingType::kFields) {
      next_in_key = tuple.fields[edge.key_field];
    }

    if (dst_server == server) {
      ++stats_.edge_traffic[e].local;
    } else {
      ++stats_.edge_traffic[e].remote;
      const std::uint32_t bytes = tuple.serialized_size();
      stats_.edge_remote_bytes[e] += bytes;
      stats_.nic_out[server] += bytes;
      stats_.nic_in[dst_server] += bytes;
      const std::uint32_t src_rack = placement_.rack_of(server);
      const std::uint32_t dst_rack = placement_.rack_of(dst_server);
      if (src_rack != dst_rack) {
        ++stats_.edge_rack_remote[e];
        stats_.uplink_out[src_rack] += bytes;
        stats_.uplink_in[dst_rack] += bytes;
      }
      const double ser_cpu =
          config_.per_msg_cpu + config_.per_byte_cpu * bytes;
      stats_.cpu_units[server] += ser_cpu;
      stats_.cpu_units[dst_server] += ser_cpu;
    }

    stats_.cpu_units[dst_server] += topology_.op(edge.to).cpu_cost_per_tuple;
    ++stats_.instance_load[edge.to][dst];
    work_.push_back(Frame{edge.to, dst, next_in_key, dst_server, 0});
  }
}

void PipelineModel::set_table(OperatorId op,
                              std::shared_ptr<const RoutingTable> table) {
  LAR_CHECK(table != nullptr);
  const auto& edges = topology_.edges();
  for (const std::uint32_t e : topology_.in_edges(op)) {
    if (edges[e].grouping != GroupingType::kFields) continue;
    const std::uint32_t src_par = topology_.op(edges[e].from).parallelism;
    for (InstanceIndex i = 0; i < src_par; ++i) {
      routers_[route_base_[e] + i].set_table(table);
    }
  }
}

void PipelineModel::set_active_servers(std::uint32_t num_active) {
  LAR_CHECK(num_active >= 1 && num_active <= placement_.num_servers());
  restricted_ = true;
  active_servers_ = num_active;
  apply_active_restriction(num_active);
}

void PipelineModel::apply_active_restriction(std::uint32_t num_active) {
  // Mirror of Engine::require_elastic_capable: the epoch-consistency story
  // needs the fallback domain to ride inside routing tables, and activity
  // changes only know how to restrict table and shuffle routers.
  LAR_CHECK(fields_mode_ == FieldsRouting::kTable);
  const auto& edges = topology_.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    LAR_CHECK(edges[e].grouping == GroupingType::kFields ||
              edges[e].grouping == GroupingType::kShuffle);
    if (edges[e].grouping != GroupingType::kShuffle) continue;
    const std::vector<InstanceIndex> act =
        placement_.active_instances(edges[e].to, num_active);
    const std::uint32_t src_par = topology_.op(edges[e].from).parallelism;
    for (InstanceIndex i = 0; i < src_par; ++i) {
      routers_[route_base_[e] + i].set_active_instances(act);
    }
  }
  source_actives_.resize(sources_.size());
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    source_actives_[s] = placement_.active_instances(sources_[s], num_active);
  }
}

std::vector<core::HopStats> PipelineModel::collect_hop_stats() const {
  std::vector<core::HopStats> out;
  const auto& edges = topology_.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (pair_stats_[e].empty()) continue;
    std::vector<std::vector<core::PairCount>> snapshots;
    snapshots.reserve(pair_stats_[e].size());
    for (const auto& ps : pair_stats_[e]) snapshots.push_back(ps.snapshot());
    // The hop's input side is the emitter's anchor operator, not
    // necessarily the emitter itself (stateless relays pass keys through).
    out.push_back(core::HopStats{anchors_[edges[e].from].value(), edges[e].to,
                                 core::merge_pair_counts(snapshots)});
  }
  return out;
}

std::vector<PipelineModel::PairStatsReport>
PipelineModel::snapshot_pair_stats() const {
  std::vector<PairStatsReport> out;
  for (std::size_t e = 0; e < pair_stats_.size(); ++e) {
    for (std::size_t i = 0; i < pair_stats_[e].size(); ++i) {
      out.push_back(PairStatsReport{static_cast<std::uint32_t>(e),
                                    static_cast<InstanceIndex>(i),
                                    pair_stats_[e][i].snapshot()});
    }
  }
  return out;
}

std::vector<core::HopStats> PipelineModel::merge_reports(
    const std::vector<PairStatsReport>& reports) const {
  const auto& edges = topology_.edges();
  std::vector<std::vector<std::vector<core::PairCount>>> per_edge(
      edges.size());
  for (const PairStatsReport& r : reports) {
    per_edge[r.edge].push_back(r.counts);
  }
  std::vector<core::HopStats> out;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (per_edge[e].empty()) continue;
    out.push_back(core::HopStats{anchors_[edges[e].from].value(), edges[e].to,
                                 core::merge_pair_counts(per_edge[e])});
  }
  return out;
}

void PipelineModel::reset_pair_stats() {
  for (auto& per_edge : pair_stats_) {
    for (auto& ps : per_edge) ps.reset();
  }
}

void PipelineModel::reset_pair_stats(OperatorId op_begin, OperatorId op_end) {
  for (std::size_t eid = 0; eid < pair_stats_.size(); ++eid) {
    const EdgeSpec& edge = topology_.edges()[eid];
    if (edge.to < op_begin || edge.to >= op_end) continue;
    for (auto& ps : pair_stats_[eid]) ps.reset();
  }
}

void PipelineModel::reset_stats() {
  stats_.tuples = 0;
  std::fill(stats_.edge_traffic.begin(), stats_.edge_traffic.end(),
            core::EdgeTraffic{});
  std::fill(stats_.edge_remote_bytes.begin(), stats_.edge_remote_bytes.end(),
            0);
  std::fill(stats_.edge_rack_remote.begin(), stats_.edge_rack_remote.end(), 0);
  std::fill(stats_.cpu_units.begin(), stats_.cpu_units.end(), 0.0);
  std::fill(stats_.nic_out.begin(), stats_.nic_out.end(), 0);
  std::fill(stats_.nic_in.begin(), stats_.nic_in.end(), 0);
  std::fill(stats_.uplink_out.begin(), stats_.uplink_out.end(), 0);
  std::fill(stats_.uplink_in.begin(), stats_.uplink_in.end(), 0);
  for (auto& loads : stats_.instance_load) {
    std::fill(loads.begin(), loads.end(), 0);
  }
}

}  // namespace lar::sim
