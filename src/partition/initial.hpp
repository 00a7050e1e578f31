// Initial bisection at the coarsest level: greedy graph growing (GGGP).
//
// Grows side 0 from a random seed vertex, always absorbing the frontier
// vertex whose inclusion decreases the prospective cut the most, until side 0
// reaches its weight target.  Several random trials are run and the best cut
// is kept, as in the Metis GGGP scheme.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "partition/graph.hpp"

namespace lar::partition {

/// Bisects `g` into sides 0/1.
///
/// `target0`  — desired total vertex weight of side 0;
/// `max_side` — hard weight caps; growth skips vertices that would push side
///              0 past max_side[0], and keeps growing past `target0` while
///              side 1 still exceeds max_side[1];
/// `trials`   — number of random seeds to try (>= 1); best cut wins.
///
/// Each trial is O(E log V); when the frontier runs dry (a disconnected
/// graph) the leftover scan resumes where it stopped, O(V) per trial in all.
/// Returns side assignment per vertex (0 or 1).
[[nodiscard]] std::vector<std::uint8_t> grow_bisection(
    const Graph& g, std::uint64_t target0,
    const std::array<std::uint64_t, 2>& max_side, Rng& rng, int trials);

}  // namespace lar::partition
