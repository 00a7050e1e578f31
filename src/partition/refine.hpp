// Fiduccia–Mattheyses (FM) bisection refinement.
//
// After each uncoarsening step the projected partition is locally improved by
// moving boundary vertices between the two sides.  Classic FM: one pass moves
// each vertex at most once in best-gain-first order (even through negative
// gains, which lets the pass climb out of local minima), then rolls back to
// the best prefix of the move sequence.  Passes repeat until no improvement.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "partition/graph.hpp"

namespace lar::partition {

/// Refines the 0/1 `side` assignment in place.
///
/// `max_side` — per-side weight caps enforced for every applied move (a move
///              that would overflow the destination side is skipped);
/// `max_passes` — upper bound on FM passes (each pass is O(E log V): the
///                gain heap holds each vertex at most once);
/// `passes_executed` — if non-null, incremented by the number of passes
///                     actually run (the partitioner's work metric).
///
/// Returns the edge cut of the final assignment.
std::uint64_t fm_refine(const Graph& g, std::vector<std::uint8_t>& side,
                        const std::array<std::uint64_t, 2>& max_side,
                        int max_passes,
                        std::uint64_t* passes_executed = nullptr);

}  // namespace lar::partition
