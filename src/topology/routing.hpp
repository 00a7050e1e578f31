// Stream routing policies (Section 2.2) and explicit routing tables
// (Section 3.3).
//
// A Router decides, for each tuple a POI emits on an edge, which instance of
// the recipient PO receives it.  Routers are created per (edge, emitting
// POI), so they know their source server at construction and need no
// synchronization: in the threaded runtime each POI thread owns its routers;
// in the simulator everything is single-threaded.  Both substrates route
// through this one implementation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "topology/placement.hpp"
#include "topology/topology.hpp"
#include "topology/types.hpp"

namespace lar {

/// Default hash-based fields grouping: deterministic, placement-oblivious.
[[nodiscard]] inline InstanceIndex hash_instance(Key key,
                                                 std::uint32_t fanout) noexcept {
  return static_cast<InstanceIndex>(mix64(key) % fanout);
}

/// Explicit key -> instance assignment generated by the locality optimizer.
/// Keys absent from the table fall back to hash routing (Section 3.3:
/// "When a key is not present in the routing table, it falls back to the
/// standard hash-based routing policy").
///
/// Under elasticity the fallback itself must be epoch-consistent: while a
/// scale wave is in flight, unknown keys must not split between `hash %
/// n_old` and `hash % n_new`.  The table therefore optionally carries its
/// own fallback *domain* — the instance set active in the epoch that
/// produced it — so the modulus switches atomically with the table swap.
///
/// lar::split: a key may additionally carry an ordered *candidate list* of
/// d >= 2 replica instances (`assign_split`).  Split keys run as partial
/// aggregations: any candidate may own a partial, and table-driven routers
/// pick the least-loaded candidate per emitter (the PKG discipline
/// generalized to d choices).  `route()` stays single-valued — it returns
/// the *primary* (first) candidate, which is also where migration diffs
/// consolidate state on a degree decrease.  Tables without splits behave
/// bit-for-bit as before.
class RoutingTable {
 public:
  RoutingTable() = default;

  /// Assigns `key` to `instance` (overwrites a previous assignment).
  void assign(Key key, InstanceIndex instance) { map_[key] = instance; }

  /// Assigns `key` to the ordered candidate list `candidates` (d >= 2,
  /// duplicates not allowed).  The first candidate becomes the key's primary
  /// assignment, so `route()`/`lookup()` keep working single-valued.
  void assign_split(Key key, std::span<const InstanceIndex> candidates) {
    LAR_CHECK(candidates.size() >= 2);
    map_[key] = candidates[0];
    const auto begin = static_cast<std::uint32_t>(split_pool_.size());
    split_pool_.insert(split_pool_.end(), candidates.begin(), candidates.end());
    splits_[key] =
        SplitSpan{begin, static_cast<std::uint32_t>(candidates.size())};
  }

  /// The candidate list of a split key, in candidate order; empty for keys
  /// that are unsplit (or unknown).
  [[nodiscard]] std::span<const InstanceIndex> split_candidates(
      Key key) const noexcept {
    const SplitSpan* span = splits_.find(key);
    if (span == nullptr) return {};
    return {split_pool_.data() + span->begin, span->len};
  }

  /// Whether any key of this table is split — the one branch no-split hot
  /// paths pay.
  [[nodiscard]] bool has_splits() const noexcept { return splits_.size() != 0; }

  [[nodiscard]] std::size_t num_split_keys() const noexcept {
    return splits_.size();
  }

  /// All (key, candidate list) split assignments in ascending key order —
  /// the canonical accessor for serialization and migration diffs.
  [[nodiscard]] std::vector<std::pair<Key, std::vector<InstanceIndex>>>
  sorted_split_entries() const {
    std::vector<std::pair<Key, std::vector<InstanceIndex>>> out;
    out.reserve(splits_.size());
    splits_.for_each([&](Key key, const SplitSpan& span) {
      out.emplace_back(key,
                       std::vector<InstanceIndex>(
                           split_pool_.begin() + span.begin,
                           split_pool_.begin() + span.begin + span.len));
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Whether `instance` may legitimately hold state for `key` under this
  /// table: a split candidate, or the single routed owner otherwise.
  [[nodiscard]] bool is_owner(Key key, InstanceIndex instance,
                              std::uint32_t fanout) const {
    const auto candidates = split_candidates(key);
    if (!candidates.empty()) {
      for (const InstanceIndex c : candidates) {
        if (c == instance) return true;
      }
      return false;
    }
    return route(key, fanout) == instance;
  }

  /// The explicit assignment for `key`, if any.
  [[nodiscard]] std::optional<InstanceIndex> lookup(Key key) const {
    const InstanceIndex* found = map_.find(key);
    if (found == nullptr) return std::nullopt;
    return *found;
  }

  /// Destination instance for `key` with hash fallback.  When a fallback
  /// domain is set, unknown keys hash over that domain instead of the full
  /// fanout, keeping the fallback modulus pinned to the table's epoch.
  [[nodiscard]] InstanceIndex route(Key key, std::uint32_t fanout) const {
    const InstanceIndex* found = map_.find(key);
    if (found != nullptr) return *found;
    if (!fallback_.empty()) {
      return fallback_[mix64(key) % fallback_.size()];
    }
    return hash_instance(key, fanout);
  }

  /// Restricts hash fallback to `instances` (ascending, the active set of
  /// the epoch this table belongs to).  Empty means full-fanout fallback.
  void set_fallback(std::vector<InstanceIndex> instances) {
    fallback_ = std::move(instances);
  }

  [[nodiscard]] const std::vector<InstanceIndex>& fallback() const noexcept {
    return fallback_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

  /// All (key, instance) assignments in ascending key order — the only
  /// iteration this table exposes, so snapshots, migration diffs and
  /// exporters are order-stable by construction.
  [[nodiscard]] std::vector<std::pair<Key, InstanceIndex>> sorted_entries()
      const {
    std::vector<std::pair<Key, InstanceIndex>> out;
    out.reserve(map_.size());
    map_.for_each([&out](Key key, InstanceIndex inst) {
      out.emplace_back(key, inst);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Monotonic version stamp set by the manager on each reconfiguration.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  void set_version(std::uint64_t v) noexcept { version_ = v; }

 private:
  /// Candidate-list range of one split key inside `split_pool_`.
  struct SplitSpan {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };

  FlatMap<Key, InstanceIndex> map_;
  FlatMap<Key, SplitSpan> splits_;
  std::vector<InstanceIndex> split_pool_;  ///< candidate lists, by range
  std::vector<InstanceIndex> fallback_;
  std::uint64_t version_ = 0;
};

/// How fields-grouped edges pick instances; selects the Router discipline.
enum class FieldsRouting {
  kHash,         ///< mix64(key) % fanout — Storm's default (baseline)
  kPermutation,  ///< balanced pseudo-random permutation of key % fanout —
                 ///< hash-based baseline for tiny key universes, where a
                 ///< byte-level hash would add collision imbalance the
                 ///< paper's integer hashing did not have
  kTable,        ///< RoutingTable with hash fallback — the paper's approach
  kIdentity,     ///< instance = key % fanout — oracle for synthetic workloads
  kWorstCase,    ///< per-edge rotation — every hop always crosses servers
  kPartialKey,   ///< power-of-two-choices (Nasir et al., the paper's §5.2
                 ///< related work): balances load, ignores locality
};

[[nodiscard]] constexpr const char* to_string(FieldsRouting m) noexcept {
  switch (m) {
    case FieldsRouting::kHash: return "hash-based";
    case FieldsRouting::kPermutation: return "hash-based";
    case FieldsRouting::kTable: return "locality-aware";
    case FieldsRouting::kIdentity: return "locality-aware";
    case FieldsRouting::kWorstCase: return "worst-case";
    case FieldsRouting::kPartialKey: return "partial-key";
  }
  return "?";
}

/// The two hash-chosen candidates of partial key grouping for `key` (h1 may
/// equal h2): two independent hash functions via distinct mixing constants.
[[nodiscard]] inline std::array<InstanceIndex, 2> pkg_candidates(
    Key key, std::uint32_t fanout) noexcept {
  return {static_cast<InstanceIndex>(mix64(key) % fanout),
          static_cast<InstanceIndex>(mix64(key ^ 0x9e3779b97f4a7c15ULL) %
                                     fanout)};
}

/// Per-(edge, emitting POI) routing decision: one concrete value type for
/// every discipline, used by the threaded runtime and the simulator alike.
///
/// A kind tag selects the arm of route()'s switch:
///   * shuffle and local-or-shuffle rotate a cursor over an instance list —
///     all instances, the elastic active set, or the instances co-located
///     with the emitter (all instances when none is);
///   * hash, permutation (the list holds the permutation) and identity
///     (offset 0, or edge index + 1 for the worst case) map the key;
///   * table routes through a shared RoutingTable with hash fallback;
///   * partial key (Nasir et al., ICDE'15 — the paper's §5.2 related work)
///     and the table's split keys (lar::split) both pick the least-loaded
///     candidate by this emitter's sent counters, first-listed winning ties.
///     PKG's candidates are {h1, h2}, so the tie rule is PKG's `<=`.
///     PKG balances skewed keys but splits per-key state over two instances
///     and ignores locality — the contrast that motivates the paper's
///     correlation-aware tables.
class Router {
 public:
  /// Fields grouping on `key_field` by hash (null `table`) or by `table`
  /// with hash fallback.
  Router(std::uint32_t key_field, std::uint32_t fanout,
         std::shared_ptr<const RoutingTable> table = nullptr);

  /// Destination instance index of the recipient PO for `tuple`.
  [[nodiscard]] InstanceIndex route(const Tuple& tuple) {
    switch (kind_) {
      case Kind::kShuffle:
      case Kind::kLocalOrShuffle: {
        const InstanceIndex out = instances_[cursor_];
        if (++cursor_ == instances_.size()) cursor_ = 0;
        return out;
      }
      case Kind::kHash:
        return hash_instance(key_of(tuple), fanout_);
      case Kind::kPermutation:
        return instances_[key_of(tuple) % fanout_];
      case Kind::kIdentity:
        return static_cast<InstanceIndex>((key_of(tuple) + offset_) % fanout_);
      case Kind::kTable: {
        const Key key = key_of(tuple);
        return table_->has_splits() ? route_split(key)
                                    : table_->route(key, fanout_);
      }
      case Kind::kPartialKey:
        return least_loaded(pkg_candidates(key_of(tuple), fanout_));
    }
    return 0;  // unreachable
  }

  /// Routes this fields edge by `table` from now on, whatever it routed by
  /// before, with the sent counters zeroed so post-swap choices are a pure
  /// function of the new table and the post-swap tuple sequence.
  void set_table(std::shared_ptr<const RoutingTable> table);

  /// Restricts a shuffle router to rotate over `instances` (non-empty) — used
  /// by elasticity to keep shuffle traffic off dormant or retiring instances.
  /// Keyed routers restrict through the routing-table fallback domain.
  void set_active_instances(std::vector<InstanceIndex> instances);

 private:
  enum class Kind : std::uint8_t {
    kShuffle,
    kLocalOrShuffle,
    kHash,
    kPermutation,
    kIdentity,
    kTable,
    kPartialKey,
  };

  Router(Kind kind, std::uint32_t key_field, std::uint32_t fanout);

  [[nodiscard]] Key key_of(const Tuple& tuple) const {
    LAR_CHECK(key_field_ < tuple.fields.size());
    return tuple.fields[key_field_];
  }

  /// Table routing once the table has split keys.  Out of line: inlined,
  /// its candidate loop made route() save a register on every call, which
  /// cost the hash and identity arms about 1 ns (micro_hotpath).
  InstanceIndex route_split(Key key);

  InstanceIndex least_loaded(std::span<const InstanceIndex> candidates) {
    InstanceIndex pick = candidates[0];
    for (const InstanceIndex c : candidates.subspan(1)) {
      if (sent_[c] < sent_[pick]) pick = c;
    }
    ++sent_[pick];
    return pick;
  }

  friend Router make_router(const EdgeSpec&, std::uint32_t, const Topology&,
                            const Placement&, ServerId, FieldsRouting,
                            std::shared_ptr<const RoutingTable>,
                            std::uint64_t);

  Kind kind_;
  std::uint32_t key_field_;
  std::uint32_t fanout_;
  std::uint32_t offset_ = 0;  ///< identity rotation
  std::uint32_t cursor_ = 0;  ///< rotation position in instances_
  std::shared_ptr<const RoutingTable> table_;  ///< table kind only
  /// Rotation list (shuffle kinds) or permutation of [0, fanout).
  std::vector<InstanceIndex> instances_;
  std::vector<std::uint64_t> sent_;  ///< per-instance load estimate (local)
};

// Old names of the hash and table fields routers, kept only because the
// benchmark's replay probes (perfbench/cpp/probes.cpp) build routers under
// them; new code says Router.
using HashFieldsRouter = Router;
using TableFieldsRouter = Router;

/// Creates the router for `edge` as emitted by an instance on `src_server`.
///
/// `edge_index` is the edge's position in Topology::edges(); the worst-case
/// router uses it as its offset so that *consecutive* hops disagree (a
/// single global offset would cancel out along a chain and correlated keys
/// would stay co-located).  `fields_mode` selects the discipline of kFields
/// edges; for FieldsRouting::kTable a null `table` routes by hash until
/// set_table (exactly what an empty table does).  `seed` staggers
/// round-robin start offsets between emitting instances.
[[nodiscard]] Router make_router(const EdgeSpec& edge,
                                 std::uint32_t edge_index,
                                 const Topology& topology,
                                 const Placement& placement,
                                 ServerId src_server, FieldsRouting fields_mode,
                                 std::shared_ptr<const RoutingTable> table,
                                 std::uint64_t seed);

}  // namespace lar
