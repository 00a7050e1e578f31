#include "probes.hpp"

#include <array>

#include "common/rng.hpp"
#include "core/bipartite.hpp"
#include "core/pair_stats.hpp"
#include "partition/coarsen.hpp"
#include "partition/initial.hpp"
#include "partition/partitioner.hpp"
#include "partition/refine.hpp"
#include "runtime/codec.hpp"

namespace lar::bench {

namespace {

// Keeps a computed value alive so the timed loop is not optimized away.
volatile std::uint64_t g_sink = 0;

/// The destination instance of every tuple on every fields edge, plus the
/// source instance (round-robin inject order), as the data path routes it.
struct Routes {
  std::vector<InstanceIndex> source;
  std::vector<std::vector<InstanceIndex>> edge;  // [edge][tuple]
};

std::shared_ptr<const RoutingTable> table_for(const ReplayInput& in,
                                              OperatorId op) {
  const auto it = in.tables.find(op);
  return it != in.tables.end() ? it->second
                               : std::make_shared<const RoutingTable>();
}

/// Times routing of every tuple over every fields edge with `mode`'s router;
/// returns ns per route() call and fills `routes` when non-null.
double time_routes(const ReplayInput& in, const std::vector<Tuple>& tuples,
                   FieldsRouting mode, Routes* routes) {
  const Topology& topo = *in.topology;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  for (std::uint32_t e = 0; e < topo.edges().size(); ++e) {
    const EdgeSpec& edge = topo.edges()[e];
    if (edge.grouping != GroupingType::kFields) continue;
    const std::uint32_t fanout = topo.op(edge.to).parallelism;
    std::unique_ptr<Router> router;
    if (mode == FieldsRouting::kHash) {
      router = std::make_unique<HashFieldsRouter>(edge.key_field, fanout);
    } else {
      router = std::make_unique<TableFieldsRouter>(edge.key_field, fanout,
                                                   table_for(in, edge.to));
    }
    std::vector<InstanceIndex>* out = nullptr;
    if (routes != nullptr) {
      routes->edge.resize(topo.edges().size());
      out = &routes->edge[e];
      out->resize(tuples.size());
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      const InstanceIndex dst = router->route(tuples[i]);
      if (out != nullptr) (*out)[i] = dst;
      sink += dst;
    }
    total_ns += now_ns() - t0;
    calls += tuples.size();
  }
  g_sink = sink;
  return calls == 0 ? 0.0
                    : static_cast<double>(total_ns) / static_cast<double>(calls);
}

}  // namespace

void run_replay_probes(const ReplayInput& in, const std::vector<Tuple>& tuples,
                       Tracer& tracer, Ledger& ledger) {
  const Topology& topo = *in.topology;
  const Placement& place = *in.placement;
  const OperatorId src = topo.sources().front();
  const std::uint32_t src_par = topo.op(src).parallelism;

  // --- topology: router cost per route() call ------------------------------
  Routes routes;
  double hash_ns = 0.0;
  double table_ns = 0.0;
  {
    Tracer::Scope span(tracer, "probe.route", tracer.new_op());
    hash_ns = time_routes(in, tuples, FieldsRouting::kHash,
                          in.fields_mode == FieldsRouting::kHash ? &routes
                                                                 : nullptr);
    table_ns = time_routes(in, tuples, FieldsRouting::kTable,
                           in.fields_mode == FieldsRouting::kHash ? nullptr
                                                                  : &routes);
  }
  ledger.layer("topology.route_ns.table", table_ns, "ns");
  ledger.layer("topology.route_ns.hash", hash_ns, "ns");

  // Which instance each tuple visits per operator, following the data path.
  routes.source.resize(tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    routes.source[i] = static_cast<InstanceIndex>(i % src_par);
  }
  auto instance_at = [&](OperatorId op, std::size_t i) -> InstanceIndex {
    if (op == src) return routes.source[i];
    for (const std::uint32_t e : topo.in_edges(op)) {
      if (!routes.edge[e].empty()) return routes.edge[e][i];
    }
    return 0;
  };

  // --- runtime.codec: the workload's cross-server hops ---------------------
  std::vector<const Tuple*> remote;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    for (const EdgeSpec& edge : topo.edges()) {
      if (place.server_of(edge.from, instance_at(edge.from, i)) !=
          place.server_of(edge.to, instance_at(edge.to, i))) {
        remote.push_back(&tuples[i]);
      }
    }
  }
  std::vector<std::vector<std::byte>> wire(remote.size());
  std::uint64_t decoded_ok = 0;
  const double encode_s = tracer.time(
      "runtime.encode_tuple",
      [&] {
        for (std::size_t i = 0; i < remote.size(); ++i) {
          wire[i] = runtime::encode_tuple(*remote[i]);
        }
      },
      tracer.new_op());
  std::vector<Tuple> decoded(remote.size());
  const double decode_s = tracer.time("runtime.decode_tuple", [&] {
    for (std::size_t i = 0; i < remote.size(); ++i) {
      decoded[i] = runtime::decode_tuple(wire[i]);
    }
  });
  for (std::size_t i = 0; i < remote.size(); ++i) {
    decoded_ok += decoded[i].fields == remote[i]->fields &&
                  decoded[i].padding == remote[i]->padding;
  }
  ledger.checks(remote.size(), remote.size() - decoded_ok,
                "codec round trip reproduces the tuple");
  const double per = remote.empty() ? 1.0 : static_cast<double>(remote.size());
  ledger.layer("runtime.codec.encode_ns", encode_s * 1e9 / per, "ns");
  ledger.layer("runtime.codec.decode_ns", decode_s * 1e9 / per, "ns");
  ledger.info("probe.codec.remote_hops", static_cast<double>(remote.size()),
              "count");

  // --- core.pair_stats: (in, out) pairs at each stateful operator ----------
  // Every stateful POI records (key that routed the tuple in, key of its
  // next fields hop), so replay them per instance at the engine's capacity.
  std::size_t pair_size = 0;
  std::uint64_t recorded = 0;
  std::int64_t record_ns = 0;
  {
    Tracer::Scope span(tracer, "probe.pair_stats", tracer.new_op());
    for (const EdgeSpec& hop : topo.edges()) {
      if (hop.grouping != GroupingType::kFields || !topo.op(hop.from).stateful) {
        continue;
      }
      std::uint32_t in_field = 0;
      for (const std::uint32_t e : topo.in_edges(hop.from)) {
        in_field = topo.edges()[e].key_field;
      }
      std::vector<core::PairStats> stats;
      for (std::uint32_t i = 0; i < topo.op(hop.from).parallelism; ++i) {
        stats.emplace_back(in.pair_capacity);
      }
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < tuples.size(); ++i) {
        stats[instance_at(hop.from, i)].record(
            tuples[i].fields[in_field], tuples[i].fields[hop.key_field]);
      }
      record_ns += now_ns() - t0;
      recorded += tuples.size();
      for (const auto& s : stats) pair_size += s.size();
    }
  }
  ledger.layer("core.pair_stats.record_ns",
               recorded == 0 ? 0.0
                             : static_cast<double>(record_ns) /
                                   static_cast<double>(recorded),
               "ns");
  ledger.layer("core.pair_stats.size", static_cast<double>(pair_size), "count");

  // --- core key graph + partition pieces on the planner's statistics -------
  core::KeyGraph graph;
  const double build_s = tracer.time(
      "core.build_key_graph",
      [&] {
        core::BipartiteGraphBuilder builder;
        for (const auto& hop : in.hop_stats) {
          builder.add_pairs(hop.in_op, hop.out_op, hop.pairs);
        }
        graph = builder.build();
      },
      tracer.new_op());
  ledger.layer("core.build_key_graph_s", build_s, "s");
  ledger.layer("core.key_graph.vertices",
               static_cast<double>(graph.graph.num_vertices()), "count");
  ledger.layer("core.key_graph.edges",
               static_cast<double>(graph.graph.num_edges()), "count");

  partition::PartitionOptions popt;
  popt.num_parts = in.num_parts;
  popt.alpha = in.alpha;
  partition::PartitionResult part;
  const double part_s = tracer.time(
      "partition.partition_graph",
      [&] { part = partition::partition_graph(graph.graph, popt); },
      tracer.new_op());
  ledger.layer("partition.partition_graph_s", part_s, "s");

  // The first multilevel bisection of the recursion, piece by piece:
  // coarsen to the coarsest level, grow an initial bisection there, then
  // project it back level by level with FM refinement at each one.
  const partition::Graph& g = graph.graph;
  const std::uint64_t total = g.total_vertex_weight();
  const std::uint32_t k0 = popt.num_parts / 2;
  const std::uint64_t target0 = static_cast<std::uint64_t>(
      static_cast<double>(total) * k0 / popt.num_parts);
  const auto cap = [&](std::uint32_t k) {
    return static_cast<std::uint64_t>(popt.alpha * static_cast<double>(total) *
                                      k / popt.num_parts) +
           1;
  };
  const std::array<std::uint64_t, 2> max_side{cap(k0),
                                              cap(popt.num_parts - k0)};
  Rng rng(popt.seed);
  std::vector<partition::CoarseLevel> levels;
  const std::uint64_t bisect_op = tracer.new_op();
  const double coarsen_s = tracer.time(
      "partition.coarsen",
      [&] {
        const partition::Graph* cur = &g;
        while (cur->num_vertices() > popt.coarsen_to) {
          partition::CoarseLevel lvl = partition::coarsen_once(*cur, rng);
          if (lvl.graph.num_vertices() >
              static_cast<std::size_t>(
                  0.95 * static_cast<double>(cur->num_vertices()))) {
            break;
          }
          levels.push_back(std::move(lvl));
          cur = &levels.back().graph;
        }
      },
      bisect_op);
  const partition::Graph& coarsest = levels.empty() ? g : levels.back().graph;
  std::vector<std::uint8_t> side;
  const double initial_s = tracer.time(
      "partition.grow_bisection",
      [&] {
        side = partition::grow_bisection(coarsest, target0, max_side, rng,
                                         popt.initial_trials);
      },
      bisect_op);
  std::uint64_t fm_moves = 0;
  const double refine_s = tracer.time(
      "partition.fm_refine",
      [&] {
        auto refine = [&](const partition::Graph& level_graph) {
          const std::vector<std::uint8_t> before = side;
          partition::fm_refine(level_graph, side, max_side,
                               popt.refinement_passes);
          for (std::size_t v = 0; v < side.size(); ++v) {
            fm_moves += side[v] != before[v];
          }
        };
        refine(coarsest);
        for (std::size_t i = levels.size(); i > 0; --i) {
          const partition::Graph& finer = i >= 2 ? levels[i - 2].graph : g;
          const auto& map = levels[i - 1].fine_to_coarse;
          std::vector<std::uint8_t> fine(finer.num_vertices());
          for (partition::VertexId v = 0; v < finer.num_vertices(); ++v) {
            fine[v] = side[map[v]];
          }
          side = std::move(fine);
          refine(finer);
        }
      },
      bisect_op);
  ledger.layer("partition.coarsen_s", coarsen_s, "s");
  ledger.layer("partition.levels", static_cast<double>(levels.size()), "count");
  ledger.layer("partition.initial_s", initial_s, "s");
  ledger.layer("partition.refine_s", refine_s, "s");
  ledger.layer("partition.fm_moves", static_cast<double>(fm_moves), "count");
  ledger.check(part.assignment.size() == g.num_vertices(),
               "partition assigns every key vertex");
}

}  // namespace lar::bench
