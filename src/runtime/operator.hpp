// User-facing operator interface and library-provided operators.
//
// Operators receive tuples and emit tuples; the engine owns routing, pair
// statistics and state migration choreography.  Stateful operators expose
// per-key state as opaque bytes so the engine can move it between instances
// during reconfiguration without understanding it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/types.hpp"

namespace lar::runtime {

/// Sink for tuples an operator emits; the engine routes them on every
/// outbound edge of the operator.
///
/// Two overloads, and neither allocates in steady state (DESIGN.md §13):
///   * emit(const Tuple&) — the operator keeps its tuple (typically the
///     input it was handed); the engine copies it into field buffers
///     recycled through the *sending* POI's arena.
///   * emit(Tuple&&) — the operator gives the storage up; a same-server
///     hop on the final out-edge moves the field buffer straight into the
///     destination's lane, and whatever no hop took is recycled into the
///     sending POI's arena.  Operators must not use a moved-from tuple.
/// Remote hops serialize either way (the byte cost is the model).
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void emit(const Tuple& tuple) = 0;
  virtual void emit(Tuple&& tuple) = 0;
};

/// One operator instance's processing logic.  Each POI gets its own object;
/// all calls happen on the owning POI thread, so implementations need no
/// synchronization.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Handles one tuple; may emit any number of downstream tuples.
  virtual void process(const Tuple& tuple, Emitter& emitter) = 0;

  /// Serializes this instance's state for `key` (stateful operators only).
  /// Returning an empty vector means "no state"; the engine still delivers
  /// the (empty) migration message so the receiver can unblock the key.
  /// The engine calls this exactly when no further tuple for `key` can
  /// arrive, and drops the local state afterwards via drop_key_state().
  [[nodiscard]] virtual std::vector<std::byte> export_key_state(Key /*key*/) {
    return {};
  }

  /// Installs state for `key` previously produced by export_key_state() on
  /// another instance.  Empty `state` should be a no-op.
  virtual void import_key_state(Key /*key*/,
                                std::span<const std::byte> /*state*/) {}

  /// Forgets local state for `key` after it was exported.
  virtual void drop_key_state(Key /*key*/) {}

  /// All keys this instance currently holds state for, ascending (stateful
  /// operators only; stateless ones return empty).  The elastic residual
  /// drain scans this to ship keys the new epoch routes elsewhere — even
  /// keys the manager never observed, so no explicit move entry exists.
  /// Because two instances can hold partial state for one key while the
  /// drain converges, import_key_state() of operators that support
  /// elasticity must be a merge (additive), not an overwrite.
  [[nodiscard]] virtual std::vector<Key> owned_keys() const { return {}; }
};

/// Creates the operator object for a given POI.
using OperatorFactory =
    std::function<std::unique_ptr<Operator>(OperatorId, InstanceIndex)>;

/// Stateless pass-through: forwards every tuple unchanged (the engine does
/// the counting).  The shape of the paper's stateless extract/lower POs.
class PassThroughOperator final : public Operator {
 public:
  void process(const Tuple& tuple, Emitter& emitter) override {
    emitter.emit(tuple);
  }
};

/// Stateful per-key counter keyed on one tuple field — the paper's
/// evaluation operator ("counts the number of occurrences of the different
/// values").  Forwards tuples downstream unchanged.
class CountingOperator final : public Operator {
 public:
  explicit CountingOperator(std::uint32_t key_field) : key_field_(key_field) {}

  void process(const Tuple& tuple, Emitter& emitter) override;

  [[nodiscard]] std::vector<std::byte> export_key_state(Key key) override;
  void import_key_state(Key key, std::span<const std::byte> state) override;
  void drop_key_state(Key key) override;
  [[nodiscard]] std::vector<Key> owned_keys() const override;

  /// Current count for `key` (0 if absent).  Test/inspection hook.
  [[nodiscard]] std::uint64_t count(Key key) const;

  /// All (key, count) pairs held by this instance.
  [[nodiscard]] const std::unordered_map<Key, std::uint64_t>& counts()
      const noexcept {
    return counts_;
  }

  /// The `k` most frequent keys of this instance, descending — the paper's
  /// motivating query ("maintains a list of trending hashtags").  Because
  /// fields grouping puts all occurrences of a key on one instance, a
  /// per-instance top-k is exact for the keys it owns.
  [[nodiscard]] std::vector<std::pair<Key, std::uint64_t>> top(
      std::size_t k) const;

 private:
  std::uint32_t key_field_;
  std::unordered_map<Key, std::uint64_t> counts_;
};

/// lar::split partial-aggregation stage: counts per key like
/// CountingOperator, but emits a `{key, 1}` *delta* tuple per input instead
/// of forwarding the input unchanged.  Because counting is associative and
/// commutative, any number of replicas may each hold a partial count for a
/// split key — the per-key total is the sum of the replicas' partials, and
/// the downstream MergeCountOperator reconstructs it exactly from the
/// deltas.  State is a plain uint64 per key, merge-additive on import, so
/// migration convergence and checkpoint restore need nothing new.
class PartialCountOperator final : public Operator {
 public:
  explicit PartialCountOperator(std::uint32_t key_field)
      : key_field_(key_field) {}

  void process(const Tuple& tuple, Emitter& emitter) override;

  [[nodiscard]] std::vector<std::byte> export_key_state(Key key) override;
  void import_key_state(Key key, std::span<const std::byte> state) override;
  void drop_key_state(Key key) override;
  [[nodiscard]] std::vector<Key> owned_keys() const override;

  /// This replica's partial count for `key` (0 if absent).
  [[nodiscard]] std::uint64_t partial(Key key) const;

  [[nodiscard]] const std::unordered_map<Key, std::uint64_t>& partials()
      const noexcept {
    return partials_;
  }

 private:
  std::uint32_t key_field_;
  std::unordered_map<Key, std::uint64_t> partials_;
};

/// lar::split merge stage: sums the delta tuples `{key, delta}` emitted by
/// the upstream partial replicas into exact per-key totals.  Routed by
/// fields grouping on the key, so each key's total lives on exactly one
/// instance (the merge operator itself is never split); with every tuple
/// contributing exactly one delta through exactly one replica, the totals
/// equal the per-key input counts — the split-is-exactly-once invariant the
/// split tests pin.  Terminal: emits nothing.
class MergeCountOperator final : public Operator {
 public:
  /// `key_field`/`value_field`: positions of the key and the delta in the
  /// incoming tuple (the partial stage emits `{key, delta}` = fields 0, 1).
  explicit MergeCountOperator(std::uint32_t key_field = 0,
                              std::uint32_t value_field = 1)
      : key_field_(key_field), value_field_(value_field) {}

  void process(const Tuple& tuple, Emitter& emitter) override;

  [[nodiscard]] std::vector<std::byte> export_key_state(Key key) override;
  void import_key_state(Key key, std::span<const std::byte> state) override;
  void drop_key_state(Key key) override;
  [[nodiscard]] std::vector<Key> owned_keys() const override;

  /// Merged total for `key` (0 if absent).
  [[nodiscard]] std::uint64_t total(Key key) const;

  [[nodiscard]] const std::unordered_map<Key, std::uint64_t>& totals()
      const noexcept {
    return totals_;
  }

 private:
  std::uint32_t key_field_;
  std::uint32_t value_field_;
  std::unordered_map<Key, std::uint64_t> totals_;
};

}  // namespace lar::runtime
