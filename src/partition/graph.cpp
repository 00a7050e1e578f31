#include "partition/graph.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"

namespace lar::partition {

Subgraph induced_subgraph(const Graph& g,
                          const std::vector<VertexId>& vertices) {
  Subgraph sub;
  sub.to_parent = vertices;
  std::vector<VertexId> to_local(g.num_vertices(),
                                 static_cast<VertexId>(-1));
  GraphBuilder builder;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    LAR_CHECK(vertices[i] < g.num_vertices());
    to_local[vertices[i]] = static_cast<VertexId>(i);
    builder.add_vertex(g.vertex_weight(vertices[i]));
  }
  for (const VertexId v : vertices) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u <= v || to_local[u] == static_cast<VertexId>(-1)) continue;
      builder.add_edge(to_local[v], to_local[u], wgts[i]);
    }
  }
  sub.graph = builder.build();
  return sub;
}

VertexId GraphBuilder::add_vertex(std::uint64_t weight) {
  vertex_weights_.push_back(weight);
  return static_cast<VertexId>(vertex_weights_.size() - 1);
}

void GraphBuilder::add_vertex_weight(VertexId v, std::uint64_t delta) {
  LAR_CHECK(v < vertex_weights_.size());
  vertex_weights_[v] += delta;
}

void GraphBuilder::add_edge(VertexId a, VertexId b, std::uint64_t weight) {
  LAR_CHECK(a != b);
  LAR_CHECK(a < vertex_weights_.size() && b < vertex_weights_.size());
  edges_.push_back(HalfEdge{a, b, weight});
}

Graph GraphBuilder::build() {
  Graph g;
  const std::size_t v = vertex_weights_.size();
  g.vertex_weights_ = std::move(vertex_weights_);
  vertex_weights_.clear();
  g.total_vertex_weight_ = 0;
  for (const auto w : g.vertex_weights_) g.total_vertex_weight_ += w;

  // Canonicalize (min, max) and group the edges by their lower endpoint in
  // place: count each group's size, then move every edge into its group
  // (each swap places one edge for good).
  std::vector<std::size_t> row(v + 1, 0);
  for (auto& e : edges_) {
    if (e.from > e.to) std::swap(e.from, e.to);
    ++row[e.from + 1];
  }
  for (std::size_t i = 1; i <= v; ++i) row[i] += row[i - 1];
  std::vector<std::size_t> next(row.begin(), row.end() - 1);
  for (std::size_t r = 0; r < v; ++r) {
    while (next[r] < row[r + 1]) {
      HalfEdge e = edges_[next[r]];
      while (e.from != r) std::swap(e, edges_[next[e.from]++]);
      edges_[next[r]++] = e;
    }
  }
  // Sort each group by upper endpoint and merge parallel edges, compacting
  // towards the front: the list ends up sorted by (from, to), duplicates
  // summed.
  std::size_t out = 0;
  for (std::size_t r = 0; r < v; ++r) {
    std::sort(edges_.data() + row[r], edges_.data() + row[r + 1],
              [](const HalfEdge& x, const HalfEdge& y) { return x.to < y.to; });
    const std::size_t group = out;
    for (std::size_t i = row[r]; i < row[r + 1]; ++i) {
      if (out > group && edges_[out - 1].to == edges_[i].to) {
        edges_[out - 1].weight += edges_[i].weight;
      } else {
        edges_[out++] = edges_[i];
      }
    }
  }
  edges_.resize(out);

  // Degree counting pass, then fill: rows come out sorted by neighbour id.
  g.offsets_.assign(v + 1, 0);
  for (const auto& e : edges_) {
    ++g.offsets_[e.from + 1];
    ++g.offsets_[e.to + 1];
  }
  for (std::size_t i = 1; i <= v; ++i) g.offsets_[i] += g.offsets_[i - 1];

  g.adj_to_.resize(edges_.size() * 2);
  g.adj_w_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  g.total_edge_weight_ = 0;
  for (const auto& e : edges_) {
    g.adj_to_[cursor[e.from]] = e.to;
    g.adj_w_[cursor[e.from]++] = e.weight;
    g.adj_to_[cursor[e.to]] = e.from;
    g.adj_w_[cursor[e.to]++] = e.weight;
    g.total_edge_weight_ += e.weight;
  }
  edges_.clear();
  return g;
}

}  // namespace lar::partition
