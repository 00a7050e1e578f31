#include "partition/refine.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "partition/gain_heap.hpp"
#include "partition/quality.hpp"

namespace lar::partition {

std::uint64_t fm_refine(const Graph& g, std::vector<std::uint8_t>& side,
                        const std::array<std::uint64_t, 2>& max_side,
                        int max_passes, std::uint64_t* passes_executed) {
  LAR_CHECK(side.size() == g.num_vertices());
  const std::size_t n = g.num_vertices();
  if (n == 0) return 0;

  std::uint64_t cut = bisection_cut(g, side);
  std::array<std::uint64_t, 2> weight{0, 0};
  for (VertexId v = 0; v < n; ++v) weight[side[v]] += g.vertex_weight(v);

  std::vector<std::int64_t> gain(n);
  std::vector<std::uint8_t> locked(n);
  // Holds the unlocked vertices not yet taken since their last gain change:
  // a vertex the destination cap turns away leaves the heap and comes back
  // when a neighbour's move changes its gain.  Every pass drains it.
  GainHeap heap(gain);
  std::vector<VertexId> moves;
  std::vector<std::uint64_t> cut_after;

  for (int pass = 0; pass < max_passes; ++pass) {
    if (passes_executed != nullptr) ++*passes_executed;
    // gain[v] = cut reduction if v switches sides.
    for (VertexId v = 0; v < n; ++v) {
      std::int64_t ext = 0;
      std::int64_t internal = 0;
      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (side[nbrs[i]] != side[v]) {
          ext += static_cast<std::int64_t>(wgts[i]);
        } else {
          internal += static_cast<std::int64_t>(wgts[i]);
        }
      }
      gain[v] = ext - internal;
    }
    std::fill(locked.begin(), locked.end(), std::uint8_t{0});

    for (VertexId v = 0; v < n; ++v) heap.update(v);
    moves.clear();
    cut_after.clear();
    std::uint64_t cur = cut;
    std::array<std::uint64_t, 2> w = weight;

    while (!heap.empty()) {
      const VertexId v = heap.pop();
      const std::int64_t gval = gain[v];
      const int from = side[v];
      const int to = 1 - from;
      const std::uint64_t vw = g.vertex_weight(v);
      if (w[to] + vw > max_side[to]) continue;  // would overflow destination

      side[v] = static_cast<std::uint8_t>(to);
      locked[v] = 1;
      w[from] -= vw;
      w[to] += vw;
      cur = static_cast<std::uint64_t>(static_cast<std::int64_t>(cur) - gval);
      moves.push_back(v);
      cut_after.push_back(cur);

      const auto nbrs = g.neighbors(v);
      const auto wgts = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (locked[u]) continue;
        const auto ew = static_cast<std::int64_t>(wgts[i]);
        // v arrived on u's side: the edge turned internal; otherwise it
        // turned external.
        gain[u] += (side[u] == to) ? -2 * ew : 2 * ew;
        heap.update(u);
      }
    }

    // Roll back to the best prefix of the move sequence.
    std::size_t best_len = 0;
    std::uint64_t best_cut = cut;
    for (std::size_t i = 0; i < cut_after.size(); ++i) {
      if (cut_after[i] < best_cut) {
        best_cut = cut_after[i];
        best_len = i + 1;
      }
    }
    for (std::size_t i = moves.size(); i > best_len; --i) {
      side[moves[i - 1]] ^= 1;
    }
    // Recompute side weights for the kept prefix (cheap and robust).
    weight = {0, 0};
    for (VertexId v = 0; v < n; ++v) weight[side[v]] += g.vertex_weight(v);

    if (best_cut >= cut) break;  // pass produced no improvement
    cut = best_cut;
  }
  return cut;
}

}  // namespace lar::partition
