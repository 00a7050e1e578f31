// Shared plumbing of lar-bench: clock helpers, sample statistics, the
// metric/check ledger every workload fills, the run watchdog, and the
// benchmark's own counting operator.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/operator.hpp"
#include "topology/types.hpp"

namespace lar::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by every thread of the process.
[[nodiscard]] inline std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double seconds_between(std::int64_t t0_ns,
                                            std::int64_t t1_ns) noexcept {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

/// Quantile `q` in [0, 1] of `v` by nearest rank (sorts a copy).  Empty
/// input gives 0.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double quantile_i64(std::vector<std::int64_t>& v, double q);

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file written at exit (trace runs only)
};

/// Host-speed gauge.  A shared host's speed drifts by tens of percent
/// between runs (co-tenants, frequency), and every phase of a run moves with
/// it, so raw times of one build spread wider than any useful regression
/// bound.  Each run therefore times a fixed reference loop between its
/// phases: an allocation-free open-addressing fill and probe of an 8 MiB
/// table plus a sort, with no repository code in it.  Gated timings are
/// reported scaled to a host on which that loop takes kNominalS:
/// raw * kNominalS / median(reference time).  The raw values are printed too.
class Pace {
 public:
  static constexpr double kNominalS = 0.012;

  Pace();
  /// Times the reference loop once.
  void sample();
  [[nodiscard]] std::size_t samples() const noexcept { return ref_s_.size(); }
  /// Median reference time; kNominalS before the first sample.
  [[nodiscard]] double ref_s() const;
  [[nodiscard]] double scale() const { return kNominalS / ref_s(); }

 private:
  std::vector<std::uint64_t> keys_, slots_, sorted_;
  std::vector<double> ref_s_;
  std::uint64_t sink_ = 0;  // keeps the loop's result observable
};

/// What one run produced: end-to-end metrics (untraced numbers), per-layer
/// metrics (traced numbers), exact counts for the determinism self-check,
/// and the correctness-check tally.  Metrics keep insertion order.
class Ledger {
 public:
  void e2e(const std::string& name, double value, const char* unit);
  /// An end-to-end timing, scaled by the run's Pace in apply_pace().
  void e2e_time(const std::string& name, double raw, const char* unit);
  void layer(const std::string& name, double value, const char* unit);
  /// A value that must repeat bit for bit on the same seed.
  void exact(const std::string& name, double value);
  void info(const std::string& name, double value, const char* unit);

  /// Records one correctness check; a failing one also prints `what`.
  void check(bool ok, const std::string& what);
  /// Records `n` checks of which `failed` failed.
  void checks(std::uint64_t n, std::uint64_t failed, const std::string& what);

  /// Scales every e2e_time() entry to the nominal host and records the
  /// raw values and the gauge as info entries.  Call once, after the run.
  void apply_pace(const Pace& pace);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool host_scaled = false;
  };
  [[nodiscard]] const std::vector<Entry>& e2e() const { return e2e_; }
  [[nodiscard]] const std::vector<Entry>& layers() const { return layers_; }
  [[nodiscard]] const std::vector<Entry>& exacts() const { return exacts_; }
  [[nodiscard]] const std::vector<Entry>& infos() const { return infos_; }

 private:
  std::vector<Entry> e2e_, layers_, exacts_, infos_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Bounded runs: every blocking phase (flush, wave, checkpoint, whole
/// workload phases) runs under a named deadline.  A phase that overruns
/// ends the process as a failed run naming the phase — the engine's
/// flush() waits without a timeout, so a hang is turned into a failure
/// instead of blocking the caller forever.
class Watchdog {
 public:
  /// Starts the monitor thread; `run_deadline_s` bounds the whole run.
  explicit Watchdog(double run_deadline_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// RAII phase: while alive, `name` must finish within `limit_s`.
  class Phase {
   public:
    Phase(Watchdog& dog, const char* name, double limit_s);
    ~Phase();
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Watchdog& dog_;
    const char* prev_name_;
    std::int64_t prev_deadline_;
  };

 private:
  void monitor();
  std::mutex mutex_;
  const char* phase_ = "run";
  std::int64_t phase_deadline_ns_ = 0;
  std::int64_t run_deadline_ns_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: uses every member above
};

/// The benchmark's counting operator: per-key counts with migratable,
/// merge-additive state (so waves and checkpoints move it like the
/// library's CountingOperator), forwarding every tuple unless it is the
/// last stage.  The last stage also records latency for tuples that carry
/// a due-time stamp in field kStampField (open-loop tuples only).
class BenchCounter final : public runtime::Operator {
 public:
  static constexpr std::size_t kStampField = 2;

  BenchCounter(std::uint32_t key_field, bool last_stage)
      : key_field_(key_field), last_stage_(last_stage) {
    // Sized up front: growing it inside process() would copy megabytes on
    // the last stage's thread and show up as latency.
    if (last_stage_) latencies_ns_.reserve(1 << 20);
  }

  void process(const Tuple& tuple, runtime::Emitter& emitter) override;
  [[nodiscard]] std::vector<std::byte> export_key_state(Key key) override;
  void import_key_state(Key key, std::span<const std::byte> state) override;
  void drop_key_state(Key key) override;
  [[nodiscard]] std::vector<Key> owned_keys() const override;

  [[nodiscard]] const std::unordered_map<Key, std::uint64_t>& counts()
      const noexcept {
    return counts_;
  }
  /// Due-to-process() latencies (ns) recorded so far; read and clear only
  /// when quiescent.
  [[nodiscard]] std::vector<std::int64_t>& latencies() noexcept {
    return latencies_ns_;
  }

 private:
  std::uint32_t key_field_;
  bool last_stage_;
  std::unordered_map<Key, std::uint64_t> counts_;
  std::vector<std::int64_t> latencies_ns_;
};

}  // namespace lar::bench
