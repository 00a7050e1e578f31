#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "ckpt/checkpoint.hpp"
#include "common/hash.hpp"
#include "core/bipartite.hpp"
#include "core/manager.hpp"
#include "probes.hpp"
#include "runtime/engine.hpp"
#include "sim/simulator.hpp"
#include "topology/placement.hpp"
#include "topology/topology.hpp"
#include "workload/synthetic.hpp"
#include "workload/twitter_like.hpp"

namespace lar::bench {

namespace {

// The paper's application: S -> A -> B, A counting field 0, B field 1.
constexpr OperatorId kOpA = 1;
constexpr OperatorId kOpB = 2;

// Sizes (tuples) and limits shared by the workloads.
constexpr std::uint64_t kWarmTuples = 200'000;    // hash-fallback warm-up
constexpr std::uint64_t kBatchTuples = 100'000;   // closed-loop batch
constexpr std::uint64_t kEpochTuples = 100'000;   // min tuples per wave epoch
constexpr std::uint64_t kWindowTuples = 200'000;  // simulator window
constexpr std::uint64_t kReplayTuples = 200'000;  // replay-probe sample
constexpr double kOpenRate = 100'000.0;           // open-loop tuples/s
constexpr double kOpenSegmentS = 0.4;             // open-loop step
constexpr int kSetups = 5;                        // setups per run
constexpr int kSimEpochs = 8;                     // sim_plan epochs per rep
constexpr int kProbeSimEpochs = 3;                // sim probe epochs per rep
constexpr int kQuietCheckpoints = 8;  // checkpoints per quiescent wave epoch
constexpr double kOpLimitS = 30.0;  // deadline of one flush/wave/checkpoint

/// A seeded input stream of one workload.
struct StreamSpec {
  bool twitter = false;
  std::uint64_t seed = 1;

  [[nodiscard]] std::unique_ptr<workload::TupleGenerator> make() const {
    if (twitter) {
      workload::TwitterLikeConfig cfg;  // 20 k hashtags, 64 B padding
      cfg.seed = seed;
      return std::make_unique<workload::TwitterLikeGenerator>(cfg);
    }
    return std::make_unique<workload::SyntheticGenerator>(
        workload::SyntheticConfig{.num_values = 4000,
                                  .locality = 0.8,
                                  .padding = 16,
                                  .seed = seed});
  }
};

/// A generator plus the record needed to regenerate exactly what it
/// produced (tuple count and epoch boundaries), which is how the reference
/// per-key counts are computed without touching the timed path.
class Stream {
 public:
  explicit Stream(const StreamSpec& spec) : spec_(spec), gen_(spec.make()) {}

  Tuple next() {
    ++drawn_;
    return gen_->next();
  }
  void advance_epoch() {
    epoch_marks_.push_back(drawn_);
    gen_->advance_epoch();
  }

  /// Per-key reference counts of fields 0 and 1 over everything drawn.
  void reference_counts(std::unordered_map<Key, std::uint64_t>& a,
                        std::unordered_map<Key, std::uint64_t>& b) const {
    auto gen = spec_.make();
    std::size_t mark = 0;
    for (std::uint64_t i = 0; i < drawn_; ++i) {
      while (mark < epoch_marks_.size() && epoch_marks_[mark] == i) {
        gen->advance_epoch();
        ++mark;
      }
      const Tuple t = gen->next();
      ++a[t.fields[0]];
      ++b[t.fields[1]];
    }
  }

 private:
  StreamSpec spec_;
  std::unique_ptr<workload::TupleGenerator> gen_;
  std::uint64_t drawn_ = 0;
  std::vector<std::uint64_t> epoch_marks_;
};

runtime::OperatorFactory bench_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == kOpA) return std::make_unique<BenchCounter>(0, false);
    if (op == kOpB) return std::make_unique<BenchCounter>(1, true);
    return std::make_unique<runtime::PassThroughOperator>();
  };
}

/// One threaded-runtime deployment of the application on `servers`
/// logical servers, with its manager, optional checkpoint coordinator and
/// input stream.  Not movable: the engine keeps references into it.
class Rig {
 public:
  Rig(const StreamSpec& spec, std::uint32_t servers, FieldsRouting mode,
      bool checkpoints)
      : topo(make_two_stage_topology(servers)),
        place(Placement::round_robin(topo, servers)),
        stream(spec) {
    if (checkpoints) coord = std::make_unique<ckpt::CheckpointCoordinator>();
    runtime::EngineOptions opts;
    opts.fields_mode = mode;
    opts.source_mode = SourceMode::kRoundRobin;
    opts.seed = spec.seed;
    opts.checkpoint = coord.get();
    engine = std::make_unique<runtime::Engine>(topo, place, bench_factory(),
                                               opts);
    manager = std::make_unique<core::Manager>(topo, place,
                                              core::ManagerOptions{});
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Topology topo;
  Placement place;
  Stream stream;
  std::unique_ptr<ckpt::CheckpointCoordinator> coord;
  std::unique_ptr<runtime::Engine> engine;
  std::unique_ptr<core::Manager> manager;
  core::ReconfigurationPlan plan;  ///< last deployed plan
};

void flush(Rig& rig, Watchdog& dog, Tracer& tracer, double* seconds = nullptr) {
  Watchdog::Phase phase(dog, "flush", kOpLimitS);
  const double s = tracer.time("runtime.flush", [&] { rig.engine->flush(); });
  if (seconds != nullptr) *seconds = s;
}

double reconfigure(Rig& rig, Watchdog& dog, Tracer& tracer,
                   std::uint64_t op = 0) {
  Watchdog::Phase phase(dog, "wave", kOpLimitS);
  return tracer.time(
      "runtime.reconfigure",
      [&] { rig.plan = rig.engine->reconfigure(*rig.manager); }, op);
}

/// Construct + start() + warm-up + first plan: the work before timing.
std::unique_ptr<Rig> set_up(const StreamSpec& spec, std::uint32_t servers,
                            FieldsRouting mode, bool checkpoints,
                            Watchdog& dog, Tracer& tracer, double* seconds) {
  Watchdog::Phase phase(dog, "setup", 60.0);
  Tracer::Scope span(tracer, "setup", tracer.new_op());
  const std::int64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(spec, servers, mode, checkpoints);
  rig->engine->start();
  for (std::uint64_t i = 0; i < kWarmTuples; ++i) {
    rig->engine->inject(rig->stream.next());
  }
  flush(*rig, dog, tracer);
  if (mode == FieldsRouting::kTable) {
    reconfigure(*rig, dog, tracer);
    flush(*rig, dog, tracer);
  }
  *seconds = seconds_between(t0, now_ns());
  return rig;
}

/// `kSetups` set-ups; returns the last rig and the median set-up time.
std::unique_ptr<Rig> set_up_median(const StreamSpec& spec,
                                   std::uint32_t servers, FieldsRouting mode,
                                   bool checkpoints, Watchdog& dog,
                                   Tracer& tracer, Ledger& ledger) {
  std::vector<double> times;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    double s = 0.0;
    rig.reset();  // shut the previous one down before timing the next
    rig = set_up(spec, servers, mode, checkpoints, dog, tracer, &s);
    times.push_back(s);
  }
  ledger.e2e_time("setup_s", median(times), "s");
  return rig;
}

/// Traffic counters summed over measured spans between quiescent engine
/// snapshots.
struct Traffic {
  std::uint64_t tuples = 0;
  std::vector<runtime::EdgeMetricsSnapshot> edges;      // per edge
  std::vector<std::vector<std::uint64_t>> load;         // [op][instance]
  std::uint64_t buffered = 0, migrated = 0, migrated_bytes = 0;

  void add(const runtime::EngineMetrics& a, const runtime::EngineMetrics& b) {
    tuples += b.tuples_injected - a.tuples_injected;
    buffered += b.tuples_buffered - a.tuples_buffered;
    migrated += b.states_migrated - a.states_migrated;
    migrated_bytes += b.states_migrated_bytes - a.states_migrated_bytes;
    edges.resize(b.edges.size());
    for (std::size_t e = 0; e < b.edges.size(); ++e) {
      edges[e].local += b.edges[e].local - a.edges[e].local;
      edges[e].remote += b.edges[e].remote - a.edges[e].remote;
      edges[e].remote_bytes += b.edges[e].remote_bytes - a.edges[e].remote_bytes;
    }
    load.resize(b.instance_processed.size());
    for (std::size_t op = 0; op < load.size(); ++op) {
      load[op].resize(b.instance_processed[op].size());
      for (std::size_t i = 0; i < load[op].size(); ++i) {
        load[op][i] +=
            b.instance_processed[op][i] - a.instance_processed[op][i];
      }
    }
  }
  [[nodiscard]] runtime::EdgeMetricsSnapshot total() const {
    runtime::EdgeMetricsSnapshot t;
    for (const auto& e : edges) {
      t.local += e.local;
      t.remote += e.remote;
      t.remote_bytes += e.remote_bytes;
    }
    return t;
  }
  [[nodiscard]] double bytes_per_tuple() const {
    return tuples == 0 ? 0.0
                       : static_cast<double>(total().remote_bytes) /
                             static_cast<double>(tuples);
  }
};

double max_over_avg(const std::vector<std::uint64_t>& load) {
  std::uint64_t sum = 0, peak = 0;
  for (const std::uint64_t l : load) {
    sum += l;
    peak = std::max(peak, l);
  }
  return sum == 0 ? 0.0
                  : static_cast<double>(peak) * static_cast<double>(load.size()) /
                        static_cast<double>(sum);
}

/// Per-edge and per-operator layer metrics of `t`; with `e2e` also the
/// run's traffic end-to-end metrics, with `exact` also their exact counts.
void report_traffic(const Traffic& t, Ledger& ledger, bool e2e, bool exact) {
  // Sources are stateless and round-robin by design, so the imbalance that
  // matters is the stateful operators'.
  const double imb_a = max_over_avg(t.load[kOpA]);
  const double imb_b = max_over_avg(t.load[kOpB]);
  const runtime::EdgeMetricsSnapshot all = t.total();
  if (e2e) {
    ledger.e2e("remote_bytes_per_tuple", t.bytes_per_tuple(), "B");
    ledger.e2e("locality", all.locality(), "ratio");
    ledger.e2e("imbalance", std::max(imb_a, imb_b), "ratio");
  }
  ledger.layer("runtime.edge.S-A.locality", t.edges[0].locality(), "ratio");
  ledger.layer("runtime.edge.S-A.remote_bytes",
               static_cast<double>(t.edges[0].remote_bytes), "B");
  ledger.layer("runtime.edge.A-B.locality", t.edges[1].locality(), "ratio");
  ledger.layer("runtime.edge.A-B.remote_bytes",
               static_cast<double>(t.edges[1].remote_bytes), "B");
  ledger.layer("runtime.op.A.imbalance", imb_a, "ratio");
  ledger.layer("runtime.op.B.imbalance", imb_b, "ratio");
  if (exact) {
    ledger.exact("runtime.tuples", static_cast<double>(t.tuples));
    ledger.exact("runtime.local_hops", static_cast<double>(all.local));
    ledger.exact("runtime.remote_hops", static_cast<double>(all.remote));
    ledger.exact("runtime.remote_bytes", static_cast<double>(all.remote_bytes));
    ledger.exact("remote_bytes_per_tuple", t.bytes_per_tuple());
    ledger.exact("locality", all.locality());
    ledger.exact("imbalance", std::max(imb_a, imb_b));
  }
}

/// Exactly-once check: every key's count, summed over the instances of A
/// and of B, equals the count regenerated from the seeded stream.
void check_counts(Rig& rig, Ledger& ledger, const char* what) {
  std::unordered_map<Key, std::uint64_t> ref_a, ref_b;
  rig.stream.reference_counts(ref_a, ref_b);
  auto compare = [&](OperatorId op,
                     const std::unordered_map<Key, std::uint64_t>& ref) {
    std::unordered_map<Key, std::uint64_t> got;
    for (InstanceIndex i = 0; i < rig.topo.op(op).parallelism; ++i) {
      const auto& counter =
          static_cast<BenchCounter&>(rig.engine->operator_at(op, i));
      for (const auto& [key, count] : counter.counts()) got[key] += count;
    }
    std::uint64_t failed = 0;
    std::uint64_t attempted = ref.size();
    for (const auto& [key, count] : ref) {
      const auto it = got.find(key);
      failed += it == got.end() || it->second != count;
    }
    for (const auto& [key, count] : got) {
      if (!ref.contains(key)) {
        ++attempted;
        ++failed;
      }
    }
    ledger.checks(attempted, failed,
                  std::string(what) + ": per-key counts of op " +
                      std::to_string(op) + " match the reference");
  };
  compare(kOpA, ref_a);
  compare(kOpB, ref_b);
}

void report_inject_samples(std::vector<std::int64_t>& ns, Ledger& ledger) {
  ledger.layer("runtime.inject_ns_p50", quantile_i64(ns, 0.50), "ns");
  ledger.layer("runtime.inject_ns_p99", quantile_i64(ns, 0.99), "ns");
}

void report_overhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced, Ledger& ledger) {
  const double base = median(untraced);
  ledger.layer("obs.trace_overhead_frac",
               base == 0.0 ? 0.0 : 1.0 - median(traced) / base, "ratio");
}

/// Injects `n` tuples back to back; in a traced step times every inject().
void inject_n(Rig& rig, std::uint64_t n, bool traced,
              std::vector<std::int64_t>& inject_ns) {
  for (std::uint64_t i = 0; i < n; ++i) {
    Tuple t = rig.stream.next();
    if (traced) {
      const std::int64_t a = now_ns();
      rig.engine->inject(std::move(t));
      inject_ns.push_back(now_ns() - a);
    } else {
      rig.engine->inject(std::move(t));
    }
  }
}

// --- closed loop -----------------------------------------------------------

struct ClosedLoop {
  std::vector<double> tps_untraced, tps_traced, flush_s, cpu_ns;
  std::vector<std::int64_t> inject_ns;
  Traffic first_batch;
  int batches = 0;
};

/// `n` closed-loop batches: each injects kBatchTuples back to back, then
/// flush()es; its throughput is tuples / (first inject -> flush() return)
/// and its CPU cost the process CPU time over the same span / tuples.  In
/// a traced run odd batches time every inject().
void closed_batches(Rig& rig, int n, bool trace, Watchdog& dog,
                    Tracer& tracer, ClosedLoop& out) {
  for (int k = 0; k < n; ++k) {
    const int batch = out.batches++;
    const bool traced = trace && batch % 2 == 1;
    const runtime::EngineMetrics before =
        batch == 0 ? rig.engine->metrics() : runtime::EngineMetrics{};
    Tracer::Scope span(tracer, traced ? "closed_loop.batch.traced"
                                      : "closed_loop.batch",
                       tracer.new_op());
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu0 = process_cpu_ns();
    inject_n(rig, kBatchTuples, traced, out.inject_ns);
    double flush_s = 0.0;
    flush(rig, dog, tracer, &flush_s);
    if (!traced) {
      out.cpu_ns.push_back(static_cast<double>(process_cpu_ns() - cpu0) /
                           kBatchTuples);
    }
    (traced ? out.tps_traced : out.tps_untraced)
        .push_back(static_cast<double>(kBatchTuples) /
                   seconds_between(t0, now_ns()));
    out.flush_s.push_back(flush_s);
    if (batch == 0) out.first_batch.add(before, rig.engine->metrics());
  }
}

// --- open loop -------------------------------------------------------------

struct OpenLoop {
  std::uint64_t injected = 0;
  std::vector<std::int64_t> latency_ns;  // due time -> process() at B
  std::vector<std::int64_t> late_ns;     // due time -> inject() start
};

/// One open-loop segment of `duration_s`: tuple i is due at start + i /
/// kOpenRate and carries its due time, so latency counts every wait a stall
/// imposes on the tuples behind it.  The generator sleeps until the next
/// due time and then injects everything due.
void open_segment(Rig& rig, double duration_s, Watchdog& dog, Tracer& tracer,
                  OpenLoop& out) {
  Watchdog::Phase phase(dog, "open_loop", duration_s + 60.0);
  Tracer::Scope span(tracer, "open_loop", tracer.new_op());
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise sleeps
  const auto n = static_cast<std::uint64_t>(kOpenRate * duration_s);
  const double interval_ns = 1e9 / kOpenRate;
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    std::int64_t now = now_ns();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    Tuple t = rig.stream.next();
    t.fields.push_back(static_cast<Key>(due));
    out.late_ns.push_back(now - due);
    rig.engine->inject(std::move(t));
  }
  out.injected += n;
  flush(rig, dog, tracer);
  for (InstanceIndex i = 0; i < rig.topo.op(kOpB).parallelism; ++i) {
    auto& lat =
        static_cast<BenchCounter&>(rig.engine->operator_at(kOpB, i)).latencies();
    out.latency_ns.insert(out.latency_ns.end(), lat.begin(), lat.end());
    lat.clear();
  }
}

void report_open_loop(OpenLoop& o, Ledger& ledger) {
  std::vector<std::int64_t>& lat = o.latency_ns;
  ledger.layer("e2e.lat_p50_us", quantile_i64(lat, 0.50) * 1e-3, "us");
  ledger.layer("e2e.lat_p99_us", quantile_i64(lat, 0.99) * 1e-3, "us");
  ledger.info("lat_samples", static_cast<double>(lat.size()), "count");
  ledger.layer("driver.late_p99_us", quantile_i64(o.late_ns, 0.99) * 1e-3, "us");
  ledger.layer("driver.late_max_ms", quantile_i64(o.late_ns, 1.0) * 1e-6, "ms");
  ledger.check(lat.size() == o.injected,
               "every open-loop tuple reached the last stage once");
}

// --- waves and checkpoints -------------------------------------------------

struct ControlRun {
  std::vector<double> wave_s, ckpt_s, flush_s;
  std::vector<double> cpu_ns;  // process CPU per injected tuple, per segment
  std::vector<double> tps_untraced, tps_traced;  // per epoch interval
  std::vector<std::int64_t> inject_ns;
  std::vector<std::uint64_t> ckpt_ids;
  Traffic traffic;
  int intervals = 0;
};

/// drift_waves' mechanism, `epochs` epochs long: the driver thread injects
/// without pause while a control thread runs reconfigure() then
/// checkpoint() once the epoch holds kEpochTuples new tuples.  The stream
/// advances one epoch after each wave.  Each epoch interval's throughput is
/// tuples injected / interval time; the last interval ends when flush()
/// returns.  In a traced run odd intervals time every inject().
void live_waves(Rig& rig, int epochs, bool trace, Watchdog& dog,
                Tracer& tracer, Ledger& ledger, ControlRun& out) {
  Watchdog::Phase phase(dog, "live_waves", 90.0);
  const runtime::EngineMetrics before = rig.engine->metrics();
  const std::int64_t cpu0 = process_cpu_ns();
  std::atomic<std::uint64_t> fed{0};
  std::atomic<int> epoch_done{0};
  std::atomic<bool> stop{false};
  std::exception_ptr control_error;

  std::thread control([&] {
    try {
      for (int e = 1; e <= epochs; ++e) {
        while (fed.load(std::memory_order_relaxed) <
               static_cast<std::uint64_t>(e) * kEpochTuples) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        const std::uint64_t op = tracer.new_op();
        out.wave_s.push_back(reconfigure(rig, dog, tracer, op));
        Watchdog::Phase ck(dog, "checkpoint", kOpLimitS);
        std::uint64_t id = 0;
        out.ckpt_s.push_back(tracer.time(
            "ckpt.checkpoint", [&] { id = rig.engine->checkpoint(); }, op));
        out.ckpt_ids.push_back(id);
        epoch_done.store(e, std::memory_order_release);
      }
    } catch (...) {
      control_error = std::current_exception();
    }
    stop.store(true, std::memory_order_release);
  });

  int seen = 0;
  std::uint64_t total = 0, interval_fed = 0;
  std::int64_t interval_start = now_ns();
  bool traced = trace && out.intervals % 2 == 1;
  auto close_interval = [&](std::int64_t now) {
    const double tps = static_cast<double>(interval_fed) /
                       seconds_between(interval_start, now);
    (traced ? out.tps_traced : out.tps_untraced).push_back(tps);
    ++out.intervals;
    traced = trace && out.intervals % 2 == 1;
    interval_start = now;
    interval_fed = 0;
  };
  while (!stop.load(std::memory_order_acquire)) {
    const int done = epoch_done.load(std::memory_order_acquire);
    if (done != seen) {
      seen = done;
      rig.stream.advance_epoch();
      if (done < epochs) close_interval(now_ns());
    }
    Tuple t = rig.stream.next();
    if (traced) {
      const std::int64_t a = now_ns();
      rig.engine->inject(std::move(t));
      out.inject_ns.push_back(now_ns() - a);
    } else {
      rig.engine->inject(std::move(t));
    }
    ++interval_fed;
    fed.store(++total, std::memory_order_relaxed);
  }
  control.join();
  double flush_s = 0.0;
  flush(rig, dog, tracer, &flush_s);
  out.flush_s.push_back(flush_s);
  close_interval(now_ns());
  out.cpu_ns.push_back(static_cast<double>(process_cpu_ns() - cpu0) /
                       static_cast<double>(total));
  if (control_error) {
    try {
      std::rethrow_exception(control_error);
    } catch (const std::exception& e) {
      ledger.check(false, std::string("control thread: ") + e.what());
    } catch (...) {
      ledger.check(false, "control thread threw");
    }
  }
  out.traffic.add(before, rig.engine->metrics());
}

/// The wave probe of the workloads whose own phases run no waves: one
/// epoch injects kEpochTuples back to back and flush()es, then times
/// reconfigure() and kQuietCheckpoints checkpoint()s on the quiescent
/// engine.  With nothing else running this is the protocol's own cost, and
/// the work of every wave repeats per seed.  In a traced run odd epochs
/// time every inject().
void quiet_wave(Rig& rig, bool trace, Watchdog& dog, Tracer& tracer,
                ControlRun& out) {
  const runtime::EngineMetrics before = rig.engine->metrics();
  const bool traced = trace && out.intervals % 2 == 1;
  const std::uint64_t op = tracer.new_op();
  inject_n(rig, kEpochTuples, traced, out.inject_ns);
  double flush_s = 0.0;
  flush(rig, dog, tracer, &flush_s);
  out.flush_s.push_back(flush_s);
  ++out.intervals;
  out.wave_s.push_back(reconfigure(rig, dog, tracer, op));
  for (int k = 0; k < kQuietCheckpoints; ++k) {
    Watchdog::Phase ck(dog, "checkpoint", kOpLimitS);
    std::uint64_t id = 0;
    out.ckpt_s.push_back(tracer.time(
        "ckpt.checkpoint", [&] { id = rig.engine->checkpoint(); }, op));
    out.ckpt_ids.push_back(id);
  }
  rig.stream.advance_epoch();
  out.traffic.add(before, rig.engine->metrics());
}

/// `live`: the waves raced a feeder thread for the run's CPUs.  Their time
/// then follows the scheduler's share more than the host's speed (host
/// scaling widened their spread over ten seeds from 0.06-0.17 to 0.09-0.22),
/// so it is reported raw.
void report_control(const ControlRun& c, Rig& rig, bool live, Ledger& ledger) {
  if (live) {
    ledger.e2e("wave_s_p50", median(c.wave_s), "s");
  } else {
    ledger.e2e_time("wave_s_p50", median(c.wave_s), "s");
  }
  ledger.layer("runtime.reconfigure_s", median(c.wave_s), "s");
  ledger.layer("runtime.tuples_buffered",
               static_cast<double>(c.traffic.buffered), "count");
  ledger.layer("runtime.states_migrated",
               static_cast<double>(c.traffic.migrated), "count");
  ledger.layer("runtime.states_migrated_bytes",
               static_cast<double>(c.traffic.migrated_bytes), "B");
  const ckpt::CheckpointMeta meta = rig.coord->store().last_committed_meta();
  ledger.layer("ckpt.checkpoint_s", median(c.ckpt_s), "s");
  ledger.layer("ckpt.state_bytes", static_cast<double>(meta.total_state_bytes),
               "B");
  ledger.layer("ckpt.states_captured",
               static_cast<double>(meta.captured_states), "count");
  ledger.info("control.waves", static_cast<double>(c.wave_s.size()), "count");
  ledger.info("control.checkpoints", static_cast<double>(c.ckpt_s.size()),
              "count");
  bool increasing = !c.ckpt_ids.empty();
  for (std::size_t i = 1; i < c.ckpt_ids.size(); ++i) {
    increasing = increasing && c.ckpt_ids[i] > c.ckpt_ids[i - 1];
  }
  ledger.check(increasing, "checkpoint epochs increase");
  ledger.check(!c.ckpt_ids.empty() && rig.coord->store().last_committed_epoch() ==
                                          c.ckpt_ids.back(),
               "last checkpoint is committed");
}

// --- simulator epochs ------------------------------------------------------

/// Weight of the heaviest vertex of the key graph the manager partitions
/// (its incident pair counts), as a share of the average part weight.
double heaviest_key_share(const std::vector<core::HopStats>& stats,
                          std::uint32_t parts) {
  core::BipartiteGraphBuilder builder;
  for (const auto& hop : stats) {
    builder.add_pairs(hop.in_op, hop.out_op, hop.pairs);
  }
  const core::KeyGraph graph = builder.build();
  const partition::Graph& g = graph.graph;
  std::uint64_t heaviest = 0;
  for (partition::VertexId v = 0; v < g.num_vertices(); ++v) {
    heaviest = std::max(heaviest, g.vertex_weight(v));
  }
  const double avg = static_cast<double>(g.total_vertex_weight()) / parts;
  return avg == 0.0 ? 0.0 : static_cast<double>(heaviest) / avg;
}

/// The simulator deployment of the application (single-threaded).
class SimRig {
 public:
  SimRig(const StreamSpec& spec, std::uint32_t servers)
      : topo(make_two_stage_topology(servers)),
        place(Placement::round_robin(topo, servers)),
        sim(topo, place, config(spec.seed), FieldsRouting::kTable),
        manager(topo, place, core::ManagerOptions{}),
        gen(spec.make()) {}
  SimRig(const SimRig&) = delete;
  SimRig& operator=(const SimRig&) = delete;

  static sim::SimConfig config(std::uint64_t seed) {
    sim::SimConfig cfg;
    cfg.seed = seed;
    return cfg;
  }

  Topology topo;
  Placement place;
  sim::Simulator sim;
  core::Manager manager;
  std::unique_ptr<workload::TupleGenerator> gen;
};

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix64(h ^ bits) + 0x9E3779B97F4A7C15ULL;
}

/// Repetitions of a set-up (construct + one window + first plan) followed
/// by `epochs` epochs of run_window -> collect_hop_stats -> compute_plan ->
/// apply_plan, the stream advancing one epoch after each, run one epoch per
/// step().  Every repetition must reproduce the first one's digest of
/// simulated throughput, locality, balance and plan counts.  In a traced
/// run odd repetitions run with tracing off, which gives the overhead.
class SimEpochs {
 public:
  SimEpochs(const StreamSpec& spec, std::uint32_t servers, int epochs,
             Tracer& tracer, Ledger& ledger)
      : spec_(spec),
        servers_(servers),
        epochs_(epochs),
        tracer_(tracer),
        off_(false),
        ledger_(ledger) {}

  void step() {
    if (rig_ == nullptr || epoch_ == epochs_) start_rep();
    Tracer& tr = traced_ ? tracer_ : off_;
    const std::uint64_t op = tr.new_op();
    Tracer::Scope span(tr, "sim.epoch", op);
    sim::WindowReport report;
    const std::int64_t cpu0 = process_cpu_ns();
    const double window_s = tr.time(
        "sim.run_window",
        [&] { report = rig_->sim.run_window(*rig_->gen, kWindowTuples); }, op);
    if (!traced_) {
      window_cpu_ns_.push_back(static_cast<double>(process_cpu_ns() - cpu0) /
                               static_cast<double>(report.window_tuples));
    }
    if (reps_done_ == 0) accumulate_traffic();
    double collect_s = 0.0, plan_s = 0.0, apply_s = 0.0;
    plan(tr, op, &collect_s, &plan_s, &apply_s);
    rig_->gen->advance_epoch();
    window_s_.push_back(window_s);
    (traced_ ? window_tps_traced_ : window_tps_)
        .push_back(static_cast<double>(report.window_tuples) / window_s);
    collect_s_.push_back(collect_s);
    plan_s_.push_back(plan_s);
    apply_s_.push_back(apply_s);
    epoch_s_.push_back(window_s + collect_s + plan_s + apply_s);

    digest_ = fold(digest_, report.throughput);
    for (const double l : report.edge_locality) digest_ = fold(digest_, l);
    for (const double b : report.op_load_balance) digest_ = fold(digest_, b);
    digest_ = fold(digest_, last_plan_.expected_locality);
    digest_ = fold(digest_, last_plan_.imbalance);
    digest_ = fold(digest_, static_cast<double>(last_plan_.keys_assigned));
    digest_ = fold(digest_, static_cast<double>(last_plan_.total_moves()));
    digest_ = fold(digest_, static_cast<double>(last_plan_.edge_cut));
    if (reps_done_ == 0) {
      ++plans_;
      keys_assigned_ += last_plan_.keys_assigned;
      moves_ += last_plan_.total_moves();
    }
    if (++epoch_ == epochs_) {
      digests_.push_back(digest_);
      ++reps_done_;
    }
  }

  [[nodiscard]] std::size_t reps_done() const noexcept { return reps_done_; }
  [[nodiscard]] SimRig& rig() { return *rig_; }
  [[nodiscard]] const core::ReconfigurationPlan& last_plan() const {
    return last_plan_;
  }
  [[nodiscard]] const std::vector<core::HopStats>& last_stats() const {
    return last_stats_;
  }

  /// Checks the digests and reports the simulator's metrics.  With
  /// `primary`, the simulated traffic and throughput are the run's own e2e
  /// metrics (sim_plan).
  void report(bool primary) {
    std::uint64_t mismatched = 0;
    for (const std::uint64_t d : digests_) mismatched += d != digests_[0];
    ledger_.checks(digests_.size(), mismatched,
                   "every repetition reproduces the simulated digest");
    ledger_.info("sim.reps", static_cast<double>(digests_.size()), "count");
    ledger_.info("sim.plans_over_alpha_0.03",
                 static_cast<double>(plans_over_alpha_), "count");
    ledger_.info("sim.epochs", static_cast<double>(epoch_s_.size()), "count");
    // Medians over whole repetitions only: epochs differ in size, and a
    // trailing partial repetition would weight some of them more than
    // others, moving the median between runs.
    const std::size_t whole = reps_done_ * static_cast<std::size_t>(epochs_);
    auto whole_reps = [whole](const std::vector<double>& v) {
      return std::vector<double>(v.begin(),
                                 v.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(whole, v.size())));
    };
    ledger_.e2e_time("plan_s_p50", median(whole_reps(plan_s_)), "s");
    ledger_.e2e_time("sim_epoch_s", median(whole_reps(epoch_s_)), "s");
    if (primary) {
      ledger_.e2e_time("setup_s", median(setup_s_), "s");
      ledger_.e2e_time("cpu_ns_per_tuple", median(whole_reps(window_cpu_ns_)),
                       "ns");
      ledger_.layer("e2e.tput_tps", median(window_tps_), "tuples/s");
      ledger_.e2e("remote_bytes_per_tuple",
                  static_cast<double>(remote_bytes_) /
                      static_cast<double>(tuples_),
                  "B");
      ledger_.e2e("locality",
                  static_cast<double>(local_) /
                      static_cast<double>(local_ + remote_),
                  "ratio");
      ledger_.e2e("imbalance",
                  std::max(max_over_avg(load_[kOpA]), max_over_avg(load_[kOpB])),
                  "ratio");
      if (tracer_.enabled()) report_overhead(window_tps_traced_, window_tps_, ledger_);
    }
    const core::ReconfigurationPlan& p = last_plan_;
    ledger_.layer("sim.run_window_s", median(whole_reps(window_s_)), "s");
    ledger_.layer("sim.collect_hop_stats_s", median(whole_reps(collect_s_)),
                  "s");
    ledger_.layer("sim.apply_plan_s", median(whole_reps(apply_s_)), "s");
    ledger_.layer("core.compute_plan_s", median(whole_reps(plan_s_)), "s");
    ledger_.layer("core.plan.keys_assigned",
                  static_cast<double>(p.keys_assigned), "count");
    ledger_.layer("core.plan.moves", static_cast<double>(p.total_moves()),
                  "count");
    ledger_.layer("core.plan.expected_locality", p.expected_locality, "ratio");
    ledger_.layer("core.plan.imbalance", p.imbalance, "ratio");
    ledger_.exact("sim.digest",
                  digests_.empty() ? 0.0
                                   : static_cast<double>(digests_[0] >> 11));
    ledger_.exact("sim.plans", static_cast<double>(plans_));
    ledger_.exact("sim.keys_assigned", static_cast<double>(keys_assigned_));
    ledger_.exact("sim.moves", static_cast<double>(moves_));
    ledger_.exact("sim.tuples", static_cast<double>(tuples_));
    ledger_.exact("sim.remote_bytes", static_cast<double>(remote_bytes_));
  }

 private:
  void start_rep() {
    traced_ = tracer_.enabled() && (reps_done_ % 2 == 0);
    Tracer& tr = traced_ ? tracer_ : off_;
    const std::uint64_t op = tr.new_op();
    Tracer::Scope span(tr, "sim.setup", op);
    const std::int64_t t0 = now_ns();
    rig_.reset();
    rig_ = std::make_unique<SimRig>(spec_, servers_);
    tr.time("sim.run_window",
            [&] { rig_->sim.run_window(*rig_->gen, kWindowTuples); }, op);
    double unused = 0.0;
    plan(tr, op, &unused, &unused, &unused);
    rig_->gen->advance_epoch();
    setup_s_.push_back(seconds_between(t0, now_ns()));
    epoch_ = 0;
    digest_ = 0;
  }

  void plan(Tracer& tr, std::uint64_t op, double* collect_s, double* plan_s,
            double* apply_s) {
    std::vector<core::HopStats> stats;
    core::ReconfigurationPlan plan;
    *collect_s = tr.time(
        "sim.collect_hop_stats",
        [&] { stats = rig_->sim.model().collect_hop_stats(); }, op);
    *plan_s = tr.time(
        "core.compute_plan", [&] { plan = rig_->manager.compute_plan(stats); },
        op);
    *apply_s = tr.time(
        "sim.apply_plan",
        [&] {
          rig_->sim.apply_plan(plan);
          rig_->manager.mark_deployed(plan);
          rig_->sim.model().reset_pair_stats();
        },
        op);
    // alpha is the partitioner's target, not a guarantee: it places whole
    // keys, so with heavy keys it returns its best effort
    // (partition/partitioner.hpp), and a part may overshoot its target by up
    // to the heaviest key.  On the Twitter-like stream that key weighs about
    // half an average part, and one plan of sim_plan seed 45 reached 1.063.
    // Plans over alpha + 0.03 are counted on their own (info line).
    const double alpha = core::ManagerOptions{}.partition.alpha;
    const double heaviest = heaviest_key_share(stats, servers_);
    ledger_.check(plan.imbalance <= alpha + heaviest,
                  "plan imbalance " + std::to_string(plan.imbalance) +
                      " within alpha + heaviest key " +
                      std::to_string(heaviest));
    plans_over_alpha_ += plan.imbalance > alpha + 0.03;
    last_stats_ = std::move(stats);
    last_plan_ = std::move(plan);
  }

  void accumulate_traffic() {
    const sim::TrafficStats& ts = rig_->sim.model().stats();
    tuples_ += ts.tuples;
    for (std::size_t i = 0; i < ts.edge_traffic.size(); ++i) {
      local_ += ts.edge_traffic[i].local;
      remote_ += ts.edge_traffic[i].remote;
      remote_bytes_ += ts.edge_remote_bytes[i];
    }
    load_.resize(ts.instance_load.size());
    for (std::size_t o = 0; o < ts.instance_load.size(); ++o) {
      load_[o].resize(ts.instance_load[o].size());
      for (std::size_t i = 0; i < ts.instance_load[o].size(); ++i) {
        load_[o][i] += ts.instance_load[o][i];
      }
    }
  }

  StreamSpec spec_;
  std::uint32_t servers_;
  int epochs_;
  Tracer& tracer_;
  Tracer off_;
  Ledger& ledger_;
  std::unique_ptr<SimRig> rig_;
  bool traced_ = false;
  int epoch_ = 0;
  std::size_t reps_done_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<std::uint64_t> digests_;
  std::vector<double> setup_s_, window_s_, collect_s_, plan_s_, apply_s_,
      epoch_s_, window_tps_, window_tps_traced_, window_cpu_ns_;
  // The first repetition's simulated traffic and plan counts.
  std::uint64_t tuples_ = 0, local_ = 0, remote_ = 0, remote_bytes_ = 0;
  std::vector<std::vector<std::uint64_t>> load_;  // [op][instance]
  std::uint64_t plans_ = 0, keys_assigned_ = 0, moves_ = 0;
  std::uint64_t plans_over_alpha_ = 0;
  std::vector<core::HopStats> last_stats_;
  core::ReconfigurationPlan last_plan_;
};

// --- traced-run probes -----------------------------------------------------

void replay_probes(const StreamSpec& spec, const Topology& topo,
                   const Placement& place, FieldsRouting mode,
                   const core::ReconfigurationPlan& plan,
                   const std::vector<core::HopStats>& stats, Tracer& tracer,
                   Ledger& ledger) {
  std::vector<Tuple> sample(kReplayTuples);
  auto gen = spec.make();
  const double next_s = tracer.time(
      "workload.next",
      [&] {
        for (auto& t : sample) t = gen->next();
      },
      tracer.new_op());
  ledger.layer("workload.next_ns",
               next_s * 1e9 / static_cast<double>(kReplayTuples), "ns");
  ReplayInput in;
  in.topology = &topo;
  in.placement = &place;
  in.fields_mode = mode;
  in.tables = plan.tables;
  in.hop_stats = stats;
  in.pair_capacity = runtime::EngineOptions{}.pair_stats_capacity;
  in.num_parts = place.num_servers();
  in.alpha = core::ManagerOptions{}.partition.alpha;
  run_replay_probes(in, sample, tracer, ledger);
}

/// Peak resident set of the run so far.
void report_peak_rss(Ledger& ledger) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ledger.e2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");  // KiB -> MiB
}

/// Runs rounds until `budget_s` has passed and `done()` holds.  A round
/// takes one short step of every phase, so every metric samples the whole
/// run instead of one slice of it: the host's speed drifts on a scale of
/// seconds, and a phase that ran only in one slice would carry that slice's
/// speed.  `pace` samples the host's speed before every step.
template <typename Done, typename... Steps>
void run_rounds(double budget_s, Watchdog& dog, Pace& pace, Done&& done,
                Steps&&... steps) {
  Watchdog::Phase phase(dog, "rounds", budget_s + 120.0);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  int rounds = 0;
  while (rounds < 2 || now_ns() < end || !done()) {
    ((pace.sample(), steps()), ...);
    ++rounds;
  }
}

// --- the workloads ---------------------------------------------------------

/// paper_table / hash_remote: the synthetic stream on 4 servers.  A round
/// is two closed-loop batches, one open-loop segment, one quiescent wave
/// epoch on a checkpointed table-routed twin (hash routing has no plan to
/// deploy) and one simulator epoch.
void run_synthetic(const Args& args, FieldsRouting mode, Watchdog& dog,
                   Pace& pace, Tracer& tracer, Ledger& ledger) {
  const StreamSpec spec{.twitter = false, .seed = args.seed};
  const std::uint32_t servers = 4;

  std::unique_ptr<Rig> rig =
      set_up_median(spec, servers, mode, false, dog, tracer, ledger);
  double unused = 0.0;
  std::unique_ptr<Rig> ctl = set_up(spec, servers, FieldsRouting::kTable, true,
                                    dog, tracer, &unused);
  SimEpochs sim(spec, servers, kProbeSimEpochs, tracer, ledger);
  ClosedLoop closed;
  OpenLoop open;
  ControlRun control;
  run_rounds(
      args.seconds, dog, pace, [&] { return sim.reps_done() >= 1; },
      [&] { closed_batches(*rig, 2, args.trace, dog, tracer, closed); },
      [&] { open_segment(*rig, kOpenSegmentS, dog, tracer, open); },
      [&] { quiet_wave(*ctl, false, dog, tracer, control); },
      [&] { sim.step(); });

  ledger.e2e_time("cpu_ns_per_tuple", median(closed.cpu_ns), "ns");
  ledger.layer("e2e.tput_tps", median(closed.tps_untraced), "tuples/s");
  report_traffic(closed.first_batch, ledger, true, /*exact=*/true);
  report_open_loop(open, ledger);
  report_control(control, *ctl, /*live=*/false, ledger);
  sim.report(false);
  report_peak_rss(ledger);
  ledger.layer("runtime.flush_s", median(closed.flush_s), "s");
  check_counts(*rig, ledger, "closed + open loop");
  check_counts(*ctl, ledger, "wave probe");
  if (args.trace) {
    report_inject_samples(closed.inject_ns, ledger);
    report_overhead(closed.tps_traced, closed.tps_untraced, ledger);
    replay_probes(spec, rig->topo, rig->place, mode,
                  mode == FieldsRouting::kTable ? rig->plan : sim.last_plan(),
                  sim.last_stats(), tracer, ledger);
  }
}

/// drift_waves: the Twitter-like stream on 4 servers, waves and checkpoints
/// against the live stream on the measured engine.  A round is two live
/// wave epochs and two simulator epochs.  The latency metrics belong to
/// paper_table and hash_remote, so the open-loop segment runs only in a
/// traced run: its tuples would land in the first wave of the next round and
/// make that wave 2-3x as long as the second, and a median over two kinds of
/// wave jumps between them.
void run_drift(const Args& args, Watchdog& dog, Pace& pace, Tracer& tracer,
               Ledger& ledger) {
  const StreamSpec spec{.twitter = true, .seed = args.seed};
  const std::uint32_t servers = 4;

  std::unique_ptr<Rig> rig = set_up_median(spec, servers, FieldsRouting::kTable,
                                           true, dog, tracer, ledger);
  SimEpochs sim(spec, servers, kProbeSimEpochs, tracer, ledger);
  ControlRun control;
  OpenLoop open;
  run_rounds(
      args.seconds, dog, pace, [&] { return sim.reps_done() >= 1; },
      [&] { live_waves(*rig, 2, args.trace, dog, tracer, ledger, control); },
      [&] {
        if (args.trace) open_segment(*rig, kOpenSegmentS, dog, tracer, open);
      },
      [&] { sim.step(); }, [&] { sim.step(); });

  ledger.e2e_time("cpu_ns_per_tuple", median(control.cpu_ns), "ns");
  ledger.layer("e2e.tput_tps", median(control.tps_untraced), "tuples/s");
  report_traffic(control.traffic, ledger, true, /*exact=*/false);
  if (args.trace) report_open_loop(open, ledger);
  report_control(control, *rig, /*live=*/true, ledger);
  sim.report(false);
  report_peak_rss(ledger);
  ledger.layer("runtime.flush_s", median(control.flush_s), "s");
  check_counts(*rig, ledger, "waves + checkpoints + open loop");
  if (args.trace) {
    report_inject_samples(control.inject_ns, ledger);
    report_overhead(control.tps_traced, control.tps_untraced, ledger);
    replay_probes(spec, rig->topo, rig->place, FieldsRouting::kTable,
                  rig->plan, sim.last_stats(), tracer, ledger);
  }
}

/// sim_plan: simulator and planner only, the Twitter-like stream on 6
/// servers (the fig11/fig13 shape).  A round is two simulator epochs, one
/// slice of the per-tuple latency probe and one quiescent wave epoch on a
/// threaded twin of the same deployment.
void run_sim_plan(const Args& args, Watchdog& dog, Pace& pace,
                  Tracer& tracer, Ledger& ledger) {
  const StreamSpec spec{.twitter = true, .seed = args.seed};
  const std::uint32_t servers = 6;

  SimEpochs sim(spec, servers, kSimEpochs, tracer, ledger);
  // The latency probe gets its own simulator, set up like a repetition, so
  // its extra tuples never reach the measured repetitions' statistics.
  SimRig lat_rig(spec, servers);
  lat_rig.sim.run_window(*lat_rig.gen, kWindowTuples);
  {
    const auto plan =
        lat_rig.manager.compute_plan(lat_rig.sim.model().collect_hop_stats());
    lat_rig.sim.apply_plan(plan);
  }
  double unused = 0.0;
  std::unique_ptr<Rig> ctl = set_up(spec, servers, FieldsRouting::kTable, true,
                                    dog, tracer, &unused);
  ControlRun control;
  // Host time of one tuple through the simulated data path
  // (PipelineModel::process), timed over groups of kGroup consecutive
  // tuples so the clock read does not dominate a ~0.2 us call.
  constexpr std::uint64_t kGroup = 16;
  std::vector<double> lat;
  std::vector<Tuple> group(kGroup);
  auto latency_slice = [&] {
    Tracer::Scope span(tracer, "sim.process_latency", tracer.new_op());
    for (int k = 0; k < 2000; ++k) {
      for (auto& t : group) t = lat_rig.gen->next();
      const std::int64_t a = now_ns();
      for (const auto& t : group) lat_rig.sim.model().process(t);
      lat.push_back(static_cast<double>(now_ns() - a) / kGroup);
    }
  };
  run_rounds(
      args.seconds, dog, pace, [&] { return sim.reps_done() >= 2; },
      [&] { sim.step(); }, [&] { sim.step(); }, latency_slice,
      [&] { quiet_wave(*ctl, args.trace, dog, tracer, control); });

  sim.report(true);
  ledger.layer("e2e.lat_p50_us", quantile(lat, 0.50) * 1e-3, "us");
  ledger.layer("e2e.lat_p99_us", quantile(lat, 0.99) * 1e-3, "us");
  ledger.info("lat_samples", static_cast<double>(lat.size()), "count");
  // No schedule here: the generator is never late.
  ledger.layer("driver.late_p99_us", 0.0, "us");
  ledger.layer("driver.late_max_ms", 0.0, "ms");
  report_control(control, *ctl, /*live=*/false, ledger);
  report_peak_rss(ledger);
  check_counts(*ctl, ledger, "wave probe");
  if (args.trace) {
    report_traffic(control.traffic, ledger, false, false);
    ledger.layer("runtime.flush_s", median(control.flush_s), "s");
    report_inject_samples(control.inject_ns, ledger);
    replay_probes(spec, sim.rig().topo, sim.rig().place, FieldsRouting::kTable,
                  sim.last_plan(), sim.last_stats(), tracer, ledger);
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_table", "hash_remote",
                                                 "drift_waves", "sim_plan"};
  return names;
}

bool run_workload(const Args& args, Watchdog& dog, Pace& pace, Tracer& tracer,
                  Ledger& ledger) {
  if (args.workload == "paper_table") {
    run_synthetic(args, FieldsRouting::kTable, dog, pace, tracer, ledger);
  } else if (args.workload == "hash_remote") {
    run_synthetic(args, FieldsRouting::kHash, dog, pace, tracer, ledger);
  } else if (args.workload == "drift_waves") {
    run_drift(args, dog, pace, tracer, ledger);
  } else if (args.workload == "sim_plan") {
    run_sim_plan(args, dog, pace, tracer, ledger);
  } else {
    return false;
  }
  return true;
}

}  // namespace lar::bench
