// lar::obs — thread-safe, allocation-light metrics registry.
//
// The registry holds labeled families of monotonic counters, gauges and
// fixed-bucket histograms.  Instruments are created (or found) by name +
// label set under a mutex, but the returned references are stable for the
// registry's lifetime, so hot paths resolve a handle once and then touch
// only lock-free atomics.  Metric identity is canonical: label keys are
// sorted on intern, and families live in ordered maps, which is what makes
// the exporters in obs/export.hpp byte-stable without a sort pass.
//
// Naming convention (see DESIGN.md "Observability"): `lar_<noun>[_<unit>]`,
// `_total` suffix for counters, `_bytes` / `_tps` / `_ratio` unit suffixes,
// label keys from the fixed vocabulary {op, inst, srv, edge, rack, phase,
// resource, when}.  No metric ever carries a wall-clock value: everything is
// a count, a size, or a logical/virtual-time quantity (determinism
// invariant, CLAUDE.md).
//
// The no-op "disabled" mode is structural, not a flag: instrumented
// components hold an `obs::Registry*` that may be null, and every
// instrumentation site is guarded.  A null registry costs one predictable
// branch on the rare paths that are instrumented at all; the per-tuple data
// path is kept registry-free by design (counters are published into the
// registry at snapshot points, not per tuple).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lar::obs {

/// Optional metric filter: return true to keep the family.  Used e.g. to
/// drop scheduling-dependent gauges (queue high-water marks) from exports
/// and timelines that must be byte-identical across runs of the threaded
/// runtime.
using MetricFilter = std::function<bool(std::string_view name)>;

/// One label dimension, e.g. {"edge", "3"}.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label&, const Label&) = default;
};

/// Label set; interned in canonical (key-sorted) order.
using Labels = std::vector<Label>;

namespace detail {
/// Lock-free add for atomic<double> (portable CAS loop; fetch_add on
/// floating atomics is C++20 but not universally lowered well).
inline void atomic_add(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic counter.  inc() from any thread; advance_to() ratchets the
/// value up to an externally accumulated total (used to publish counters
/// that components maintain as their own atomics).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Monotonic set: raises the value to `v` if higher, never lowers it.
  void advance_to(std::uint64_t v) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge with add/max combinators.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { detail::atomic_add(v_, d); }

  /// Raises the gauge to `v` if higher (high-water marks).
  void max_of(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: cumulative-on-export buckets over caller-chosen
/// upper bounds (an implicit +Inf bucket is always present).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) counts; size = upper_bounds().size() + 1.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// The registry.  Thread-safe; see file comment for the usage pattern.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the instrument.  `help` is attached to the family on
  /// first creation and ignored afterwards.  References stay valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name, Labels labels = {},
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, Labels labels = {},
               std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       Labels labels = {}, std::string_view help = "");

  /// One instrument with its resolved identity (canonical label order).
  struct Sample {
    const Labels* labels;
    const Counter* counter = nullptr;      // kind == kCounter
    const Gauge* gauge = nullptr;          // kind == kGauge
    const Histogram* histogram = nullptr;  // kind == kHistogram
  };

  /// One family in canonical order with its instruments in canonical order.
  struct FamilyView {
    std::string_view name;
    std::string_view help;
    MetricKind kind;
    std::vector<Sample> samples;
  };

  /// Snapshot of the registry structure in canonical (name, label) order.
  /// The views point into registry-owned storage; instrument values are
  /// read by the caller (exporters) at its leisure.
  [[nodiscard]] std::vector<FamilyView> families() const;

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricKind kind;
    std::string help;
    std::map<std::string, Instrument> by_labels;  // key: canonical label text
  };

  /// Finds or creates the (name, labels) slot; mutex_ held.  The caller
  /// creates the instrument under the same hold, so families() never sees
  /// a slot without one.
  Instrument& intern(std::string_view name, Labels labels,
                     std::string_view help, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
};

/// A constant-label view over a Registry: every instrument resolved through
/// a Scoped carries the view's labels in addition to the call-site ones —
/// the first-class way to scope a component's whole metric surface to one
/// entity (e.g. `app="twitter"` for a fleet tenant), replacing ad-hoc label
/// concatenation at every site.  Values pass through the normal intern path,
/// so canonical ordering and exporter escaping (hostile label values — see
/// export.hpp) apply unchanged.  Copyable handle; the Registry must outlive
/// it.  Call-site labels must not reuse a constant key (checked).
class Scoped {
 public:
  Scoped(Registry& registry, Labels constant)
      : registry_(&registry), constant_(std::move(constant)) {}

  Counter& counter(std::string_view name, Labels labels = {},
                   std::string_view help = "") const {
    return registry_->counter(name, merged(std::move(labels)), help);
  }
  Gauge& gauge(std::string_view name, Labels labels = {},
               std::string_view help = "") const {
    return registry_->gauge(name, merged(std::move(labels)), help);
  }
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       Labels labels = {}, std::string_view help = "") const {
    return registry_->histogram(name, std::move(upper_bounds),
                                merged(std::move(labels)), help);
  }

  [[nodiscard]] Registry& registry() const noexcept { return *registry_; }
  [[nodiscard]] const Labels& constant_labels() const noexcept {
    return constant_;
  }

 private:
  [[nodiscard]] Labels merged(Labels labels) const;

  Registry* registry_;
  Labels constant_;
};

}  // namespace lar::obs
