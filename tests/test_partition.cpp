// Unit and property tests for the multilevel graph partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <ostream>
#include <queue>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "partition/coarsen.hpp"
#include "partition/gain_heap.hpp"
#include "partition/graph.hpp"
#include "partition/initial.hpp"
#include "partition/partitioner.hpp"
#include "partition/quality.hpp"
#include "partition/refine.hpp"

namespace lar::partition {
namespace {

/// Two dense clusters of `half` vertices each, connected internally with
/// weight `strong` and across with weight `weak`: the planted bisection any
/// decent partitioner must recover.
Graph two_clusters(std::size_t half, std::uint64_t strong, std::uint64_t weak) {
  GraphBuilder b;
  for (std::size_t i = 0; i < 2 * half; ++i) b.add_vertex(1);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto base = static_cast<VertexId>(c * half);
    for (std::size_t i = 0; i < half; ++i) {
      for (std::size_t j = i + 1; j < half; ++j) {
        b.add_edge(base + static_cast<VertexId>(i),
                   base + static_cast<VertexId>(j), strong);
      }
    }
  }
  for (std::size_t i = 0; i < half; ++i) {
    b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(half + i), weak);
  }
  return b.build();
}

Graph random_graph(std::size_t n, std::size_t edges, std::uint64_t seed) {
  GraphBuilder b;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) b.add_vertex(1 + rng.below(5));
  for (std::size_t e = 0; e < edges; ++e) {
    const auto a = static_cast<VertexId>(rng.below(n));
    auto c = static_cast<VertexId>(rng.below(n));
    if (a == c) c = static_cast<VertexId>((c + 1) % n);
    b.add_edge(a, c, 1 + rng.below(10));
  }
  return b.build();
}

// --- GraphBuilder / Graph ----------------------------------------------------

TEST(GraphBuilder, BasicCsrLayout) {
  GraphBuilder b;
  const VertexId v0 = b.add_vertex(3);
  const VertexId v1 = b.add_vertex(5);
  const VertexId v2 = b.add_vertex(7);
  b.add_edge(v0, v1, 10);
  b.add_edge(v1, v2, 20);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_vertex_weight(), 15u);
  EXPECT_EQ(g.total_edge_weight(), 30u);
  EXPECT_EQ(g.degree(v1), 2u);
  EXPECT_EQ(g.degree(v0), 1u);
  EXPECT_EQ(g.neighbors(v0)[0], v1);
  EXPECT_EQ(g.neighbor_weights(v0)[0], 10u);
}

TEST(GraphBuilder, ParallelEdgesMerge) {
  GraphBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_edge(0, 1, 4);
  b.add_edge(1, 0, 6);  // same undirected edge, reversed
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbor_weights(0)[0], 10u);
  EXPECT_EQ(g.total_edge_weight(), 10u);
}

TEST(GraphBuilder, AddVertexWeight) {
  GraphBuilder b;
  const VertexId v = b.add_vertex(1);
  b.add_vertex_weight(v, 9);
  const Graph g = b.build();
  EXPECT_EQ(g.vertex_weight(v), 10u);
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b;
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, IsolatedVertices) {
  GraphBuilder b;
  b.add_vertex(2);
  b.add_vertex(3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(GraphBuilder, RandomMultigraphMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.below(60);
    GraphBuilder b;
    for (std::size_t i = 0; i < n; ++i) b.add_vertex(rng.below(10));
    std::map<std::pair<VertexId, VertexId>, std::uint64_t> ref;
    std::uint64_t total = 0;
    const std::size_t edges = n < 2 ? 0 : rng.below(40 * n);
    for (std::size_t e = 0; e < edges; ++e) {
      // Few endpoints, so most edges repeat, in both orientations.
      const auto a = static_cast<VertexId>(rng.below(n));
      const auto c = static_cast<VertexId>((a + 1 + rng.below(n - 1)) % n);
      const std::uint64_t w = rng.below(100);
      b.add_edge(a, c, w);
      ref[{std::min(a, c), std::max(a, c)}] += w;
      total += w;
    }
    const Graph g = b.build();
    ASSERT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.num_edges(), ref.size());
    EXPECT_EQ(g.total_edge_weight(), total);
    std::size_t half_edges = 0;
    for (VertexId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      half_edges += nbrs.size();
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(nbrs[i - 1], nbrs[i]) << "row " << v;
        }
        const auto it = ref.find({std::min(v, nbrs[i]), std::max(v, nbrs[i])});
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(wgts[i], it->second);
      }
    }
    EXPECT_EQ(half_edges, 2 * ref.size());
  }
}

// --- GainHeap -----------------------------------------------------------------

TEST(GainHeap, PopsLikeLazyPriorityQueue) {
  // Reference: the lazy-invalidation heap the addressable one replaces.  An
  // entry is live while it carries the vertex's current gain and the vertex
  // has not been popped since its last update.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.below(40);
    std::vector<std::int64_t> gain(n);
    for (auto& x : gain) x = static_cast<std::int64_t>(rng.below(7)) - 3;
    GainHeap heap(gain);
    std::priority_queue<std::pair<std::int64_t, VertexId>> lazy;
    std::vector<std::uint8_t> taken(n, 1);
    auto lazy_top_valid = [&] {
      while (!lazy.empty()) {
        const auto [g, v] = lazy.top();
        if (!taken[v] && g == gain[v]) return true;
        lazy.pop();
      }
      return false;
    };
    for (int op = 0; op < 2000; ++op) {
      if (rng.below(3) == 0) {
        ASSERT_EQ(heap.empty(), !lazy_top_valid());
        if (heap.empty()) continue;
        const VertexId want = lazy.top().second;
        lazy.pop();
        taken[want] = 1;
        ASSERT_EQ(heap.pop(), want) << "seed " << seed << " op " << op;
      } else {
        // Small gain range and zero deltas: many ties and no-op updates.
        const auto v = static_cast<VertexId>(rng.below(n));
        gain[v] += static_cast<std::int64_t>(rng.below(5)) - 2;
        heap.update(v);
        lazy.emplace(gain[v], v);
        taken[v] = 0;
      }
    }
    while (lazy_top_valid()) {
      const VertexId want = lazy.top().second;
      lazy.pop();
      taken[want] = 1;
      ASSERT_EQ(heap.pop(), want);
    }
    EXPECT_TRUE(heap.empty());
  }
}

// --- quality ------------------------------------------------------------------

TEST(Quality, EdgeCutCountsCrossEdgesOnce) {
  const Graph g = two_clusters(3, 5, 2);
  std::vector<std::uint32_t> planted(6);
  for (std::size_t i = 0; i < 6; ++i) planted[i] = i < 3 ? 0 : 1;
  EXPECT_EQ(edge_cut(g, planted), 3u * 2u);  // the 3 weak bridges
  const std::vector<std::uint32_t> all_same(6, 0);
  EXPECT_EQ(edge_cut(g, all_same), 0u);
}

TEST(Quality, PartWeightsAndImbalance) {
  GraphBuilder b;
  b.add_vertex(10);
  b.add_vertex(20);
  b.add_vertex(30);
  const Graph g = b.build();
  const std::vector<std::uint32_t> assign{0, 0, 1};
  const auto w = part_weights(g, assign, 2);
  EXPECT_EQ(w[0], 30u);
  EXPECT_EQ(w[1], 30u);
  EXPECT_DOUBLE_EQ(partition_imbalance(g, assign, 2), 1.0);
  const std::vector<std::uint32_t> skewed{0, 1, 1};
  EXPECT_DOUBLE_EQ(partition_imbalance(g, skewed, 2), 50.0 / 30.0);
}

// --- coarsening ----------------------------------------------------------------

TEST(Coarsen, PreservesTotalVertexWeight) {
  const Graph g = random_graph(200, 600, 1);
  Rng rng(2);
  const CoarseLevel lvl = coarsen_once(g, rng);
  EXPECT_EQ(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
}

TEST(Coarsen, ShrinksTheGraph) {
  const Graph g = random_graph(200, 600, 3);
  Rng rng(4);
  const CoarseLevel lvl = coarsen_once(g, rng);
  EXPECT_LT(lvl.graph.num_vertices(), g.num_vertices());
  // Heavy-edge matching halves a well-connected graph almost perfectly.
  EXPECT_LE(lvl.graph.num_vertices(), g.num_vertices() * 3 / 4);
}

TEST(Coarsen, MappingIsOntoAndValid) {
  const Graph g = random_graph(100, 300, 5);
  Rng rng(6);
  const CoarseLevel lvl = coarsen_once(g, rng);
  ASSERT_EQ(lvl.fine_to_coarse.size(), g.num_vertices());
  std::vector<bool> hit(lvl.graph.num_vertices(), false);
  for (const VertexId c : lvl.fine_to_coarse) {
    ASSERT_LT(c, lvl.graph.num_vertices());
    hit[c] = true;
  }
  for (const bool h : hit) EXPECT_TRUE(h);
}

TEST(Coarsen, CutIsPreservedUnderProjection) {
  // Any coarse partition, projected to the fine graph, has the same cut:
  // matched pairs stay together, and edge weights are merged, not lost.
  const Graph g = random_graph(120, 400, 7);
  Rng rng(8);
  const CoarseLevel lvl = coarsen_once(g, rng);
  std::vector<std::uint8_t> coarse_side(lvl.graph.num_vertices());
  Rng rng2(9);
  for (auto& s : coarse_side) s = static_cast<std::uint8_t>(rng2.below(2));
  std::vector<std::uint8_t> fine_side(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    fine_side[v] = coarse_side[lvl.fine_to_coarse[v]];
  }
  EXPECT_EQ(bisection_cut(lvl.graph, coarse_side),
            bisection_cut(g, fine_side));
}

TEST(Coarsen, SingletonGraph) {
  GraphBuilder b;
  b.add_vertex(5);
  const Graph g = b.build();
  Rng rng(1);
  const CoarseLevel lvl = coarsen_once(g, rng);
  EXPECT_EQ(lvl.graph.num_vertices(), 1u);
  EXPECT_EQ(lvl.graph.vertex_weight(0), 5u);
}

// --- initial bisection -----------------------------------------------------------

TEST(Initial, RespectsTargetRoughly) {
  const Graph g = random_graph(100, 300, 11);
  Rng rng(12);
  const std::uint64_t total = g.total_vertex_weight();
  const auto side =
      grow_bisection(g, total / 2, {total, total}, rng, /*trials=*/4);
  std::uint64_t w0 = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (side[v] == 0) w0 += g.vertex_weight(v);
  }
  EXPECT_GT(w0, total / 4);
  EXPECT_LT(w0, total * 3 / 4);
}

TEST(Initial, FindsPlantedClusters) {
  const Graph g = two_clusters(20, 10, 1);
  Rng rng(13);
  const std::uint64_t total = g.total_vertex_weight();
  const auto side = grow_bisection(g, total / 2, {total, total}, rng, 8);
  // Perfect recovery cuts exactly the 20 weak bridges.
  EXPECT_LE(bisection_cut(g, side), 20u * 1u + 10u);
}

// --- FM refinement -----------------------------------------------------------------

TEST(Refine, NeverIncreasesCut) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = random_graph(150, 500, seed);
    Rng rng(seed + 100);
    std::vector<std::uint8_t> side(g.num_vertices());
    for (auto& s : side) s = static_cast<std::uint8_t>(rng.below(2));
    const std::uint64_t before = bisection_cut(g, side);
    const std::uint64_t total = g.total_vertex_weight();
    const std::uint64_t after = fm_refine(g, side, {total, total}, 8);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, bisection_cut(g, side));  // returned cut is consistent
  }
}

TEST(Refine, RepairsPerturbedPlantedPartition) {
  const Graph g = two_clusters(15, 10, 1);
  std::vector<std::uint8_t> side(30);
  for (std::size_t i = 0; i < 30; ++i) side[i] = i < 15 ? 0 : 1;
  // Perturb: move 3 vertices to the wrong side.
  side[0] = 1;
  side[1] = 1;
  side[16] = 0;
  const std::uint64_t total = g.total_vertex_weight();
  const std::uint64_t cut =
      fm_refine(g, side, {total * 6 / 10, total * 6 / 10}, 8);
  EXPECT_EQ(cut, 15u);  // back to cutting only the weak bridges
}

TEST(Refine, HonorsWeightCaps) {
  // A graph that wants to collapse into one side; caps must prevent it.
  const Graph g = two_clusters(10, 1, 5);  // cross edges heavier than intra!
  std::vector<std::uint8_t> side(20);
  for (std::size_t i = 0; i < 20; ++i) side[i] = i < 10 ? 0 : 1;
  const std::uint64_t total = g.total_vertex_weight();
  fm_refine(g, side, {total * 55 / 100, total * 55 / 100}, 8);
  std::uint64_t w0 = 0;
  for (VertexId v = 0; v < 20; ++v) {
    if (side[v] == 0) w0 += g.vertex_weight(v);
  }
  EXPECT_LE(w0, total * 55 / 100);
  EXPECT_LE(total - w0, total * 55 / 100);
}

TEST(Refine, EmptyGraphIsFine) {
  const Graph g = GraphBuilder().build();
  std::vector<std::uint8_t> side;
  EXPECT_EQ(fm_refine(g, side, {0, 0}, 4), 0u);
}

// --- full partitioner ---------------------------------------------------------------

struct KwayParam {
  std::size_t vertices;
  std::size_t edges;
  std::uint32_t parts;
};

// Test names and listings print the fields, never the struct's raw bytes
// (its padding would leak stack garbage into the names). gtest_discover_tests
// names each index-named case after this value: `.../v50_e150_k2`.
void PrintTo(const KwayParam& p, std::ostream* os) {
  *os << "v" << p.vertices << "_e" << p.edges << "_k" << p.parts;
}

class PartitionerProperty : public ::testing::TestWithParam<KwayParam> {};

TEST_P(PartitionerProperty, ValidBalancedAssignment) {
  const auto [n, e, k] = GetParam();
  const Graph g = random_graph(n, e, n + e + k);
  PartitionOptions opts;
  opts.num_parts = k;
  opts.alpha = 1.10;
  const PartitionResult res = partition_graph(g, opts);
  ASSERT_EQ(res.assignment.size(), n);
  for (const auto p : res.assignment) EXPECT_LT(p, k);
  EXPECT_EQ(res.edge_cut, edge_cut(g, res.assignment));
  EXPECT_LE(res.edge_cut, g.total_edge_weight());
  // Uniform-ish weights: the alpha bound must be (approximately) feasible.
  // Allow slack for integer granularity on small parts.
  const double avg = static_cast<double>(g.total_vertex_weight()) / k;
  EXPECT_LE(res.achieved_imbalance, opts.alpha + 6.0 / avg + 0.05)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PartitionerProperty,
    ::testing::Values(KwayParam{50, 150, 2}, KwayParam{50, 150, 3},
                      KwayParam{200, 800, 4}, KwayParam{200, 800, 6},
                      KwayParam{1000, 4000, 6}, KwayParam{1000, 4000, 8},
                      KwayParam{3000, 12000, 5}, KwayParam{500, 1000, 7}));

TEST(Partitioner, DeterministicForFixedSeed) {
  const Graph g = random_graph(300, 1000, 21);
  PartitionOptions opts;
  opts.num_parts = 4;
  opts.seed = 77;
  const auto a = partition_graph(g, opts);
  const auto b = partition_graph(g, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(Partitioner, RecoversPlantedBisection) {
  const Graph g = two_clusters(50, 10, 1);
  PartitionOptions opts;
  opts.num_parts = 2;
  const PartitionResult res = partition_graph(g, opts);
  EXPECT_EQ(res.edge_cut, 50u);  // only the weak bridges
  EXPECT_LE(res.achieved_imbalance, 1.03 + 0.03);
}

TEST(Partitioner, SinglePartIsTrivial) {
  const Graph g = random_graph(50, 100, 31);
  PartitionOptions opts;
  opts.num_parts = 1;
  const PartitionResult res = partition_graph(g, opts);
  for (const auto p : res.assignment) EXPECT_EQ(p, 0u);
  EXPECT_EQ(res.edge_cut, 0u);
}

TEST(Partitioner, EmptyGraph) {
  const Graph g = GraphBuilder().build();
  PartitionOptions opts;
  opts.num_parts = 4;
  const PartitionResult res = partition_graph(g, opts);
  EXPECT_TRUE(res.assignment.empty());
  EXPECT_EQ(res.edge_cut, 0u);
}

TEST(Partitioner, MorePartsThanVertices) {
  GraphBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  const Graph g = b.build();
  PartitionOptions opts;
  opts.num_parts = 5;
  const PartitionResult res = partition_graph(g, opts);
  for (const auto p : res.assignment) EXPECT_LT(p, 5u);
  EXPECT_EQ(res.edge_cut, 0u);
}

TEST(Partitioner, DisconnectedComponentsHandled) {
  GraphBuilder b;
  for (int i = 0; i < 40; ++i) b.add_vertex(1);
  // Two disjoint paths.
  for (VertexId i = 0; i + 1 < 20; ++i) b.add_edge(i, i + 1, 3);
  for (VertexId i = 20; i + 1 < 40; ++i) b.add_edge(i, i + 1, 3);
  const Graph g = b.build();
  PartitionOptions opts;
  opts.num_parts = 2;
  opts.alpha = 1.05;
  const PartitionResult res = partition_graph(g, opts);
  // Ideal: one component per part, zero cut.
  EXPECT_LE(res.edge_cut, 3u);
  EXPECT_LE(res.achieved_imbalance, 1.11);
}

TEST(Partitioner, RefinementImprovesQuality) {
  const Graph g = random_graph(600, 3000, 55);
  PartitionOptions with;
  with.num_parts = 4;
  PartitionOptions without = with;
  without.enable_refinement = false;
  const auto cut_with = partition_graph(g, with).edge_cut;
  const auto cut_without = partition_graph(g, without).edge_cut;
  EXPECT_LE(cut_with, cut_without);
}

TEST(Partitioner, SkewedVertexWeightsBestEffort) {
  // One vertex holds half the weight: alpha 1.03 with k=4 is infeasible;
  // the partitioner must still return a complete assignment and report the
  // real imbalance instead of looping or crashing.
  GraphBuilder b;
  b.add_vertex(1000);
  for (int i = 0; i < 30; ++i) b.add_vertex(10);
  for (VertexId i = 1; i < 31; ++i) b.add_edge(0, i, 1);
  const Graph g = b.build();
  PartitionOptions opts;
  opts.num_parts = 4;
  const PartitionResult res = partition_graph(g, opts);
  ASSERT_EQ(res.assignment.size(), 31u);
  EXPECT_GE(res.achieved_imbalance, 1.0);
}

}  // namespace
}  // namespace lar::partition

namespace lar::partition {
namespace {

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_vertex(static_cast<std::uint64_t>(i + 1));
  b.add_edge(0, 1, 10);
  b.add_edge(1, 2, 20);
  b.add_edge(2, 3, 30);
  b.add_edge(3, 4, 40);
  const Graph g = b.build();
  const Subgraph sub = induced_subgraph(g, {1, 2, 4});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);  // only 1-2 survives
  EXPECT_EQ(sub.graph.total_edge_weight(), 20u);
  EXPECT_EQ(sub.graph.vertex_weight(0), 2u);  // vertex 1's weight
  EXPECT_EQ(sub.to_parent, (std::vector<VertexId>{1, 2, 4}));
}

TEST(InducedSubgraph, EmptySelection) {
  GraphBuilder b;
  b.add_vertex(1);
  const Graph g = b.build();
  const Subgraph sub = induced_subgraph(g, {});
  EXPECT_EQ(sub.graph.num_vertices(), 0u);
}

TEST(InducedSubgraph, FullSelectionIsIsomorphic) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex(1);
  b.add_edge(0, 1, 1);
  b.add_edge(2, 3, 2);
  const Graph g = b.build();
  const Subgraph sub = induced_subgraph(g, {0, 1, 2, 3});
  EXPECT_EQ(sub.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
  EXPECT_EQ(sub.graph.total_edge_weight(), g.total_edge_weight());
}

}  // namespace
}  // namespace lar::partition

// --- Golden plans -------------------------------------------------------------
//
// Digests of partition_graph's full output (assignment, edge cut and both
// work counters) over k in 2..8, three balance bounds and four seeds.  The
// graphs stress the heap-driven phases: dense coarse levels, gain ties,
// side caps that reject the best-gain vertex, and growing that runs out of
// frontier.  A change to the partitioner's internals must keep every plan.

namespace lar::partition {
namespace {

/// Dense graph: 300 vertices, average degree above 100.
Graph golden_dense() {
  GraphBuilder b;
  Rng rng(101);
  constexpr std::size_t kN = 300;
  for (std::size_t i = 0; i < kN; ++i) b.add_vertex(1 + rng.below(8));
  for (std::size_t e = 0; e < 20000; ++e) {
    const auto a = static_cast<VertexId>(rng.below(kN));
    const auto c = static_cast<VertexId>((a + 1 + rng.below(kN - 1)) % kN);
    b.add_edge(a, c, 1 + rng.below(20));
  }
  return b.build();
}

/// Unit vertex and edge weights on a sparse graph: gains tie constantly.
Graph golden_unit_ties() {
  GraphBuilder b;
  Rng rng(202);
  constexpr std::size_t kN = 1500;
  for (std::size_t i = 0; i < kN; ++i) b.add_vertex(1);
  for (std::size_t e = 0; e < 4500; ++e) {
    const auto a = static_cast<VertexId>(rng.below(kN));
    const auto c = static_cast<VertexId>((a + 1 + rng.below(kN - 1)) % kN);
    b.add_edge(a, c, 1);
  }
  return b.build();
}

/// A few vertices each weigh a large share of a part, so side caps reject
/// moves and absorptions.
Graph golden_heavy() {
  GraphBuilder b;
  Rng rng(303);
  constexpr std::size_t kN = 500;
  for (std::size_t i = 0; i < kN; ++i) {
    b.add_vertex(i % 61 == 0 ? 150 + rng.below(100) : 1 + rng.below(5));
  }
  for (std::size_t e = 0; e < 2500; ++e) {
    const auto a = static_cast<VertexId>(rng.below(kN));
    const auto c = static_cast<VertexId>((a + 1 + rng.below(kN - 1)) % kN);
    b.add_edge(a, c, 1 + rng.below(10));
  }
  return b.build();
}

/// Mostly isolated vertices: growing exhausts its frontier again and again.
Graph golden_isolated() {
  GraphBuilder b;
  Rng rng(404);
  constexpr std::size_t kN = 2000;
  for (std::size_t i = 0; i < kN; ++i) b.add_vertex(1 + rng.below(3));
  for (std::size_t e = 0; e < 120; ++e) {
    const auto a = static_cast<VertexId>(rng.below(kN));
    const auto c = static_cast<VertexId>((a + 1 + rng.below(kN - 1)) % kN);
    b.add_edge(a, c, 1 + rng.below(10));
  }
  return b.build();
}

std::uint64_t plan_digest(const Graph& g) {
  std::uint64_t h = 0;
  for (std::uint32_t k = 2; k <= 8; ++k) {
    for (const double alpha : {1.01, 1.03, 1.2}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        PartitionOptions opts;
        opts.num_parts = k;
        opts.alpha = alpha;
        opts.seed = seed;
        const PartitionResult res = partition_graph(g, opts);
        for (const auto p : res.assignment) h = hash_combine(h, mix64(p));
        h = hash_combine(h, mix64(res.edge_cut));
        h = hash_combine(h, mix64(res.fm_passes));
        h = hash_combine(h, mix64(res.bisections));
      }
    }
  }
  return h;
}

TEST(PartitionGolden, DenseGraph) {
  const Graph g = golden_dense();
  ASSERT_GT(2 * g.num_edges(), 100 * g.num_vertices());
  EXPECT_EQ(plan_digest(g), 16704764521399490957u);
}

TEST(PartitionGolden, UnitWeightTies) {
  EXPECT_EQ(plan_digest(golden_unit_ties()), 5958941338425690036u);
}

TEST(PartitionGolden, HeavyVerticesTripCaps) {
  EXPECT_EQ(plan_digest(golden_heavy()), 8471860010387652232u);
}

TEST(PartitionGolden, MostlyIsolatedVertices) {
  EXPECT_EQ(plan_digest(golden_isolated()), 13367335833546693844u);
}

}  // namespace
}  // namespace lar::partition
