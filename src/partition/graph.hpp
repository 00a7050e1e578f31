// Undirected, vertex- and edge-weighted graph in CSR form.
//
// This is the input of the multilevel partitioner (lar::partition).  In the
// paper's pipeline, vertices are stream keys weighted by their frequency and
// edges are key co-occurrences weighted by pair counts (Figure 5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lar::partition {

using VertexId = std::uint32_t;

/// Immutable CSR graph.  Construct through GraphBuilder.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return vertex_weights_.size();
  }

  /// Number of undirected edges (each stored twice internally).
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adj_to_.size() / 2;
  }

  [[nodiscard]] std::uint64_t vertex_weight(VertexId v) const noexcept {
    return vertex_weights_[v];
  }

  [[nodiscard]] std::uint64_t total_vertex_weight() const noexcept {
    return total_vertex_weight_;
  }

  /// Sum of all undirected edge weights.
  [[nodiscard]] std::uint64_t total_edge_weight() const noexcept {
    return total_edge_weight_;
  }

  /// Neighbor vertex ids of `v` (parallel to neighbor_weights(v)).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {adj_to_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Edge weights to each neighbor of `v`.
  [[nodiscard]] std::span<const std::uint64_t> neighbor_weights(
      VertexId v) const noexcept {
    return {adj_w_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> vertex_weights_;
  std::vector<std::size_t> offsets_;      // size = V + 1
  std::vector<VertexId> adj_to_;          // size = 2 * E
  std::vector<std::uint64_t> adj_w_;      // size = 2 * E
  std::uint64_t total_vertex_weight_ = 0;
  std::uint64_t total_edge_weight_ = 0;
};

/// A subgraph extracted from a larger graph, with the mapping back to the
/// original vertex ids.
struct Subgraph {
  Graph graph;
  std::vector<VertexId> to_parent;  ///< subgraph vertex -> parent vertex
};

/// The subgraph induced by `vertices` (parent-graph ids): keeps exactly the
/// edges with both endpoints in the set, preserving weights.
[[nodiscard]] Subgraph induced_subgraph(const Graph& g,
                                        const std::vector<VertexId>& vertices);

/// Incrementally collects vertices and edges, then builds a CSR Graph whose
/// rows list neighbours in ascending id order.  Parallel edges are merged by
/// summing their weights; self-loops are rejected (they carry no information
/// for a cut objective).
class GraphBuilder {
 public:
  /// Adds a vertex with the given weight; returns its id (dense, 0-based).
  VertexId add_vertex(std::uint64_t weight);

  /// Increases the weight of an existing vertex by `delta`.
  void add_vertex_weight(VertexId v, std::uint64_t delta);

  /// Adds an undirected edge.  Precondition: a != b, both ids valid.
  /// Calling twice with the same endpoints accumulates the weights.
  void add_edge(VertexId a, VertexId b, std::uint64_t weight);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return vertex_weights_.size();
  }

  /// Builds the CSR graph.  The builder is left empty afterwards.
  [[nodiscard]] Graph build();

 private:
  struct HalfEdge {
    VertexId from;
    VertexId to;
    std::uint64_t weight;
  };

  std::vector<std::uint64_t> vertex_weights_;
  std::vector<HalfEdge> edges_;  // stored once per undirected edge
};

}  // namespace lar::partition
