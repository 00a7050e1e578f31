// Addressable max-heap of vertex ids keyed on a caller-owned gain array.
//
// FM refinement and greedy graph growing both repeatedly take the vertex of
// highest gain while moving vertices changes the gains of their neighbours.
// The heap holds each vertex at most once and knows where it sits, so a gain
// change re-sifts the vertex in place instead of pushing a fresh entry: a
// pass over n vertices stays within n entries however dense the graph is.
// Each entry caches the gain it was placed with, so comparisons never leave
// the heap array.
//
// Order: higher gain first, ties broken by the larger vertex id — the pop
// order of std::priority_queue<std::pair<std::int64_t, VertexId>>.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/graph.hpp"

namespace lar::partition {

class GainHeap {
 public:
  /// `gain` holds one entry per vertex id and must outlive the heap; update()
  /// reads it.
  explicit GainHeap(const std::vector<std::int64_t>& gain)
      : gain_(&gain), pos_(gain.size(), kAbsent) {
    heap_.reserve(gain.size());
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Call after `gain[v]` changed (or to insert `v`): moves `v` to its place,
  /// inserting it if it is not in the heap.
  void update(VertexId v) {
    std::size_t i = pos_[v];
    if (i == kAbsent) {
      i = heap_.size();
      heap_.emplace_back();
    }
    place(i, Entry{(*gain_)[v], v});
    sift_down(sift_up(i));
  }

  /// Removes and returns the vertex of highest (gain, id).
  VertexId pop() {
    const VertexId top = heap_.front().v;
    pos_[top] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return top;
  }

 private:
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

  struct Entry {
    std::int64_t gain;
    VertexId v;
  };

  /// True if `a` pops before `b`.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.gain != b.gain ? a.gain > b.gain : a.v > b.v;
  }

  void place(std::size_t i, const Entry& e) noexcept {
    heap_[i] = e;
    pos_[e.v] = static_cast<std::uint32_t>(i);
  }

  std::size_t sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
    return i;
  }

  void sift_down(std::size_t i) noexcept {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  const std::vector<std::int64_t>* gain_;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;  ///< index in heap_, or kAbsent
};

}  // namespace lar::partition
