#include "partition/initial.hpp"

#include <algorithm>
#include <limits>

#include "common/status.hpp"
#include "partition/gain_heap.hpp"
#include "partition/quality.hpp"

namespace lar::partition {

namespace {

/// One growing attempt from a random seed; returns the side vector.
std::vector<std::uint8_t> grow_once(const Graph& g, std::uint64_t target0,
                                    const std::array<std::uint64_t, 2>& max_side,
                                    Rng& rng) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint8_t> side(n, 1);
  if (n == 0) return side;

  // gain[v] = (weight of edges from v into side 0) - (weight to side 1),
  // i.e. the cut delta of absorbing v is -gain[v].
  std::vector<std::int64_t> gain(n);
  for (VertexId v = 0; v < n; ++v) {
    std::int64_t sum = 0;
    for (const auto w : g.neighbor_weights(v)) sum += static_cast<std::int64_t>(w);
    gain[v] = -sum;
  }

  // Side-1 vertices adjacent to side 0, minus those taken since their last
  // gain change (absorbed, or turned away by the side-0 cap).
  GainHeap frontier(gain);
  const std::uint64_t total = g.total_vertex_weight();
  // Side 1 must also fit under its cap: grow at least until that holds.
  const std::uint64_t lo0 = total > max_side[1] ? total - max_side[1] : 0;
  const std::uint64_t goal = std::max(target0, lo0);

  std::uint64_t w0 = 0;
  std::size_t added = 0;

  auto absorb = [&](VertexId v) {
    side[v] = 0;
    w0 += g.vertex_weight(v);
    ++added;
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (side[u] == 0) continue;
      gain[u] += 2 * static_cast<std::int64_t>(wgts[i]);
      frontier.update(u);
    }
  };

  absorb(static_cast<VertexId>(rng.below(n)));

  // w0 only grows and side only flips 1 -> 0, so a vertex `fits` rejects
  // stays rejected: the fallback scan below resumes where it stopped.
  auto fits = [&](VertexId v) {
    return w0 + g.vertex_weight(v) <= max_side[0] || w0 < lo0;
  };
  VertexId scan = 0;

  while (w0 < goal && added < n) {
    VertexId pick = static_cast<VertexId>(-1);
    while (!frontier.empty()) {
      const VertexId v = frontier.pop();
      if (fits(v)) {
        pick = v;
        break;
      }
    }
    if (pick == static_cast<VertexId>(-1)) {
      // Disconnected graph or everything on the frontier is too heavy:
      // absorb the lowest-id leftover vertex that fits to make progress.
      while (scan < n && (side[scan] == 0 || !fits(scan))) ++scan;
      if (scan == n) break;  // cannot grow further
      pick = scan;
    }
    absorb(pick);
  }
  return side;
}

}  // namespace

std::vector<std::uint8_t> grow_bisection(
    const Graph& g, std::uint64_t target0,
    const std::array<std::uint64_t, 2>& max_side, Rng& rng, int trials) {
  LAR_CHECK(trials >= 1);
  std::vector<std::uint8_t> best;
  std::uint64_t best_cut = std::numeric_limits<std::uint64_t>::max();
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> side = grow_once(g, target0, max_side, rng);
    const std::uint64_t cut = bisection_cut(g, side);
    if (cut < best_cut) {
      best_cut = cut;
      best = std::move(side);
    }
  }
  return best;
}

}  // namespace lar::partition
