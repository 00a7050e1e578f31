// Tests for lar::chaos: deterministic fault plans, the injector's obs
// integration, recovery in the threaded runtime (link dedup, delay stashes,
// migration idempotence and redelivery, buffer-cap spill, partial gather)
// and byte-stable chaos runs in the simulator.
//
// The exactly-once harness mirrors test_runtime.cpp: ground-truth per-key
// counts recorded at inject time must equal the summed per-instance counts
// after the stream drains, with every key held by exactly one instance — no
// injected fault may lose or duplicate a tuple's effect.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "core/manager.hpp"
#include "obs/export.hpp"
#include "runtime/engine.hpp"
#include "runtime/queue.hpp"
#include "sim/simulator.hpp"
#include "sketch/exact_counter.hpp"
#include "workload/synthetic.hpp"

namespace lar {
namespace {

using chaos::FaultPlan;
using chaos::FaultSite;
using chaos::FaultSpec;

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, DecisionIsPureAndSeedDeterministic) {
  const FaultPlan a = FaultPlan::uniform(42, 0.3);
  const FaultPlan b = FaultPlan::uniform(42, 0.3);
  for (std::uint64_t entity = 0; entity < 8; ++entity) {
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
      EXPECT_EQ(a.should_inject(FaultSite::kChannelDelay, entity, seq),
                b.should_inject(FaultSite::kChannelDelay, entity, seq));
    }
  }
}

TEST(FaultPlan, RateBoundaries) {
  FaultPlan plan(7);
  plan.set(FaultSite::kStatsLoss, {.rate = 0.0});
  plan.set(FaultSite::kStatsDelay, {.rate = 1.0});
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_FALSE(plan.should_inject(FaultSite::kStatsLoss, 1, seq));
    EXPECT_TRUE(plan.should_inject(FaultSite::kStatsDelay, 1, seq));
  }
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(FaultPlan(7).armed());
}

TEST(FaultPlan, SitesDrawIndependently) {
  // Same (entity, seq) stream, different sites: the per-site salts must
  // decorrelate the decisions.
  const FaultPlan plan = FaultPlan::uniform(13, 0.5);
  int disagreements = 0;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    disagreements +=
        plan.should_inject(FaultSite::kChannelDelay, 0, seq) !=
        plan.should_inject(FaultSite::kChannelDuplicate, 0, seq);
  }
  EXPECT_GT(disagreements, 100);
  EXPECT_LT(disagreements, 400);
}

TEST(FaultPlan, ObservedRateTracksConfiguredRate) {
  const FaultPlan plan = FaultPlan::uniform(99, 0.1);
  int fired = 0;
  for (std::uint64_t seq = 0; seq < 10'000; ++seq) {
    fired += plan.should_inject(FaultSite::kWorkerStall, 3, seq);
  }
  EXPECT_GT(fired, 700);
  EXPECT_LT(fired, 1300);
}

TEST(FaultPlan, MagnitudeIsPerSite) {
  FaultPlan plan(1);
  plan.set(FaultSite::kMigrateDelay, {.rate = 0.5, .magnitude = 7});
  EXPECT_EQ(plan.magnitude(FaultSite::kMigrateDelay), 7u);
  EXPECT_EQ(plan.magnitude(FaultSite::kWorkerStall), 1u);
}

// --- Injector ----------------------------------------------------------------

TEST(Injector, CountsFiresAndRecordsObservability) {
  obs::Registry registry;
  obs::TraceRecorder trace;
  FaultPlan plan(5);
  plan.set(FaultSite::kStatsLoss, {.rate = 1.0});
  chaos::Injector inj(plan, &registry, &trace);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(inj.fire(FaultSite::kStatsLoss, /*entity=*/9, /*version=*/2));
  }
  EXPECT_FALSE(inj.fire(FaultSite::kStatsDelay, 9));  // rate 0
  EXPECT_EQ(inj.fired(FaultSite::kStatsLoss), 3u);
  EXPECT_EQ(inj.fired(FaultSite::kStatsDelay), 0u);
  EXPECT_EQ(registry
                .counter("lar_chaos_faults_total", {{"site", "stats_loss"}})
                .value(),
            3u);
  inj.recovery("partial_gather", "poi-9", /*count=*/2, /*bytes=*/0,
               /*version=*/2);
  EXPECT_EQ(registry
                .counter("lar_chaos_recovery_total",
                         {{"action", "partial_gather"}})
                .value(),
            2u);
  int faults = 0;
  int recoveries = 0;
  for (const obs::TraceEvent& ev : trace.events()) {
    faults += ev.phase == obs::Phase::kFault;
    recoveries += ev.phase == obs::Phase::kRecover;
  }
  EXPECT_EQ(faults, 3);
  EXPECT_EQ(recoveries, 1);
}

TEST(Injector, PerEntityStreamsAdvanceIndependently) {
  // Two entities interleaved in any order see the same per-entity decision
  // sequence as when queried alone — the property that makes single-threaded
  // callers byte-stable.
  FaultPlan plan = FaultPlan::uniform(23, 0.4);
  chaos::Injector interleaved(plan);
  std::vector<bool> a_inter;
  std::vector<bool> b_inter;
  for (int i = 0; i < 50; ++i) {
    a_inter.push_back(interleaved.fire(FaultSite::kChannelDelay, 1));
    b_inter.push_back(interleaved.fire(FaultSite::kChannelDelay, 2));
  }
  chaos::Injector solo(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(solo.fire(FaultSite::kChannelDelay, 1), a_inter[i]);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(solo.fire(FaultSite::kChannelDelay, 2), b_inter[i]);
  }
}

// --- Channel push validator (control-plane discipline) -----------------------

TEST(ChannelValidatorDeathTest, BoundedPushRejectsControlItems) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  runtime::Channel<int> ch;
  const std::uint32_t lane = ch.add_lane(8);
  // Convention for this test: even = data, odd = control.
  ch.set_push_validator([](const int& v) { return v % 2 == 0; });
  EXPECT_TRUE(ch.lane_push(lane, 2));
  EXPECT_TRUE(ch.push_unbounded(3));  // control may always go unbounded
  EXPECT_TRUE(ch.push_unbounded_after(lane, 5));
  EXPECT_DEATH(ch.lane_push(lane, 7), "LAR_CHECK failed");
}

// --- engine fixtures (mirrors test_runtime.cpp) ------------------------------

runtime::OperatorFactory counting_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
    return std::make_unique<runtime::CountingOperator>(op == 1 ? 0 : 1);
  };
}

runtime::CountingOperator& counter_at(runtime::Engine& engine, OperatorId op,
                                      InstanceIndex i) {
  return static_cast<runtime::CountingOperator&>(engine.operator_at(op, i));
}

struct GroundTruth {
  sketch::ExactCounter<Key> field0;
  sketch::ExactCounter<Key> field1;
};

void pump(runtime::Engine& engine, workload::TupleGenerator& gen, int n,
          GroundTruth* truth = nullptr) {
  for (int i = 0; i < n; ++i) {
    Tuple t = gen.next();
    if (truth != nullptr) {
      truth->field0.add(t.fields[0]);
      truth->field1.add(t.fields[1]);
    }
    engine.inject(std::move(t));
  }
}

/// Exactly-once: per key, summed counts across instances equal ground truth
/// and exactly one instance holds the key.
void expect_counts_match(runtime::Engine& engine, OperatorId op,
                         std::uint32_t par,
                         const sketch::ExactCounter<Key>& truth) {
  for (const auto& entry : truth.entries()) {
    std::uint64_t sum = 0;
    int holders = 0;
    for (InstanceIndex i = 0; i < par; ++i) {
      const std::uint64_t c = counter_at(engine, op, i).count(entry.key);
      sum += c;
      holders += (c > 0);
    }
    ASSERT_EQ(sum, entry.count) << "op " << op << " key " << entry.key;
    ASSERT_EQ(holders, 1) << "op " << op << " key " << entry.key
                          << " split across instances";
  }
}

/// Feeds tuples from a dedicated thread until stopped, recording ground
/// truth, so reconfigurations and their injected faults overlap a live
/// stream.  The generator is caller-owned (and only touched by the feeder
/// thread) so tests can steer the key distribution mid-stream.
class Feeder {
 public:
  Feeder(runtime::Engine& engine, GroundTruth& truth,
         workload::TupleGenerator& gen)
      : thread_([this, &engine, &truth, &gen] {
          while (!stop_.load()) {
            Tuple t = gen.next();
            truth.field0.add(t.fields[0]);
            truth.field1.add(t.fields[1]);
            engine.inject(std::move(t));
          }
        }) {}

  void stop() {
    stop_ = true;
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Generator whose second field is the first shifted by a live-settable
/// offset: flipping the shift between reconfigurations changes which key
/// pairs co-occur, so every recomputed plan is guaranteed to move keys —
/// the lever the spill test uses to keep migration traffic coming without
/// depending on scheduler timing.
class ShiftedGenerator final : public workload::TupleGenerator {
 public:
  ShiftedGenerator(std::uint32_t num_values, std::uint64_t seed,
                   const std::atomic<std::uint32_t>& shift)
      : n_(num_values), shift_(shift), rng_(seed) {}

  [[nodiscard]] Tuple next() override {
    const Key k = rng_.next() % n_;
    return Tuple{{k, (k + shift_.load()) % n_}, 0};
  }

 private:
  std::uint32_t n_;
  const std::atomic<std::uint32_t>& shift_;
  Rng rng_;
};

// --- engine: channel-level faults --------------------------------------------

TEST(EngineChaos, ExactlyOnceUnderChannelDuplicateDelayAndStall) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(101);
  plan.set(FaultSite::kChannelDelay, {.rate = 0.02});
  plan.set(FaultSite::kChannelDuplicate, {.rate = 0.02});
  plan.set(FaultSite::kWorkerStall, {.rate = 0.01, .magnitude = 3});
  chaos::Injector inj(plan);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .injector = &inj});
  engine.start();
  core::Manager mgr(topo, place, {});

  GroundTruth truth;
  workload::SyntheticGenerator gen(
      {.num_values = 90, .locality = 0.8, .padding = 0, .seed = 31});
  Feeder feeder(engine, truth, gen);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.reconfigure(mgr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.reconfigure(mgr);
  feeder.stop();
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  const auto m = engine.metrics();
  // Faults really fired, and every duplicated copy was dropped exactly once.
  EXPECT_GT(inj.fired(FaultSite::kChannelDuplicate), 0u);
  EXPECT_GT(inj.fired(FaultSite::kChannelDelay), 0u);
  EXPECT_EQ(m.data_dups_dropped, inj.fired(FaultSite::kChannelDuplicate));
  engine.shutdown();
}

TEST(EngineChaos, ChannelDelayHoldsALinkSuffixExactlyOnce) {
  // A delay stash is delivered once the inbox has popped everything that
  // was published when it opened, so tuples the held link sends meanwhile
  // join it: some stash must flush more than the tuple that opened it, and
  // the held suffixes must still apply exactly once across a wave.
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(211);
  plan.set(FaultSite::kChannelDelay, {.rate = 0.05});
  obs::TraceRecorder trace;
  chaos::Injector inj(plan, nullptr, &trace);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .injector = &inj});
  engine.start();
  core::Manager mgr(topo, place, {});

  GroundTruth truth;
  workload::SyntheticGenerator gen(
      {.num_values = 90, .locality = 0.8, .padding = 0, .seed = 37});
  pump(engine, gen, 6000, &truth);
  engine.reconfigure(mgr);
  pump(engine, gen, 6000, &truth);
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  std::uint64_t flushes = 0;
  std::uint64_t largest = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    if (!e.entity.starts_with("delay_flush/")) continue;
    ++flushes;
    largest = std::max(largest, e.count);
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_GE(largest, 2u) << "none of " << flushes
                         << " delay stashes held more than one tuple";
  engine.shutdown();
}

// --- engine: migration faults ------------------------------------------------

TEST(EngineChaos, MigrationDelayAndDuplicateAreAbsorbed) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(202);
  plan.set(FaultSite::kMigrateDelay, {.rate = 1.0, .magnitude = 4});
  plan.set(FaultSite::kMigrateDuplicate, {.rate = 0.5});
  obs::Registry registry;
  obs::TraceRecorder trace;
  chaos::Injector inj(plan, &registry, &trace);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .registry = &registry,
                          .trace = &trace,
                          .injector = &inj});
  engine.start();
  core::Manager mgr(topo, place, {});

  GroundTruth truth;
  workload::SyntheticGenerator gen(
      {.num_values = 90, .locality = 0.8, .padding = 0, .seed = 32});
  Feeder feeder(engine, truth, gen);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto plan1 = engine.reconfigure(mgr);
  EXPECT_GT(plan1.total_moves(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.reconfigure(mgr);
  feeder.stop();
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  const auto m = engine.metrics();
  // Every fired delay produced one bounded redelivery; every fired
  // duplicate produced exactly one dedup drop before import.
  EXPECT_GT(inj.fired(FaultSite::kMigrateDelay), 0u);
  EXPECT_EQ(m.migrate_redeliveries, inj.fired(FaultSite::kMigrateDelay));
  EXPECT_EQ(m.migrates_deduped, inj.fired(FaultSite::kMigrateDuplicate));
  // The obs integration saw both the faults and the recoveries.
  int faults = 0;
  int recoveries = 0;
  for (const obs::TraceEvent& ev : trace.events()) {
    faults += ev.phase == obs::Phase::kFault;
    recoveries += ev.phase == obs::Phase::kRecover;
  }
  EXPECT_GT(faults, 0);
  EXPECT_GT(recoveries, 0);
  engine.shutdown();
}

TEST(EngineChaos, BufferCapSpillsAndDrainsExactlyOnce) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(303);
  // Every migration payload is redelivered many times, so tuples for moved
  // keys keep buffering while the state is in flight — far past the tiny
  // in-memory cap.
  plan.set(FaultSite::kMigrateDelay, {.rate = 1.0, .magnitude = 400});
  chaos::Injector inj(plan);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .injector = &inj,
                          .buffered_tuples_cap = 1});
  engine.start();
  core::Manager mgr(topo, place, {});

  // Flipping the alignment shift between rounds guarantees every
  // reconfiguration has fresh migrations to stretch out; retrying rounds
  // until a spill lands keeps the test deterministic in outcome even when
  // the scheduler starves the feeder during one particular window.
  std::atomic<std::uint32_t> shift{0};
  GroundTruth truth;
  ShiftedGenerator gen(/*num_values=*/60, /*seed=*/33, shift);
  Feeder feeder(engine, truth, gen);
  std::uint64_t moves = 0;
  for (int round = 0; round < 8; ++round) {
    shift.store(round % 2 == 0 ? 0 : 30);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    moves += engine.reconfigure(mgr).total_moves();
    if (engine.metrics().tuples_spilled > 0) break;
  }
  EXPECT_GT(moves, 0u);
  feeder.stop();
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  const auto m = engine.metrics();
  EXPECT_GT(m.tuples_buffered, 0u);
  EXPECT_GT(m.tuples_spilled, 0u);  // cap 1: second buffered tuple spills
  EXPECT_GT(m.tuples_spilled_bytes, 0u);
  EXPECT_LE(m.tuples_spilled, m.tuples_buffered);
  engine.shutdown();
}

// --- routing-table fallback under delayed migration (satellite) --------------

TEST(RoutingFallback, UnknownKeysHashRoute) {
  RoutingTable table;
  table.assign(5, 2);
  EXPECT_EQ(table.route(5, 4), 2u);
  // Section 3.3: keys absent from the table fall back to hash routing — they
  // are routed immediately, never parked waiting for state.
  EXPECT_EQ(table.route(99, 4), hash_instance(99, 4));
  EXPECT_EQ(table.lookup(99), std::nullopt);
}

TEST(EngineChaos, UnknownKeysFlowDuringDelayedMigration) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(404);
  plan.set(FaultSite::kMigrateDelay, {.rate = 1.0, .magnitude = 50});
  chaos::Injector inj(plan);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .injector = &inj});
  engine.start();
  core::Manager mgr(topo, place, {});

  // Warm up on a small key universe so the plan's tables only know keys
  // below 30 ...
  workload::SyntheticGenerator warm(
      {.num_values = 30, .locality = 0.9, .padding = 0, .seed = 34});
  GroundTruth truth;
  pump(engine, warm, 10'000, &truth);
  engine.flush();
  // ... then reconfigure while a live stream over a 10x larger universe
  // keeps hitting keys no table or awaiting-set has ever seen.  Those hash
  // route and process immediately; the wave still completes even though
  // every migration payload is being redelivered 50 times.
  workload::SyntheticGenerator wide(
      {.num_values = 300, .locality = 0.8, .padding = 0, .seed = 35});
  Feeder feeder(engine, truth, wide);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto plan1 = engine.reconfigure(mgr);
  EXPECT_GT(plan1.total_moves(), 0u);
  feeder.stop();
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  engine.shutdown();
}

// --- engine: partial gather --------------------------------------------------

TEST(EngineChaos, PartialGatherPlansDeterministically) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(505);
  plan.set(FaultSite::kStatsLoss, {.rate = 0.4});
  plan.set(FaultSite::kStatsDelay, {.rate = 0.3});

  // Two engines, same seed, same deterministic input (pump + flush, no
  // concurrent feeder): the lost/stale report sets — and therefore the
  // plans — must come out identical, because the loss decisions are keyed
  // by (sender, gather epoch), not by reply arrival order.
  auto run = [&](runtime::Engine& engine, core::Manager& mgr)
      -> std::pair<core::ReconfigurationPlan, core::ReconfigurationPlan> {
    workload::SyntheticGenerator gen(
        {.num_values = 80, .locality = 0.9, .padding = 0, .seed = 36});
    pump(engine, gen, 15'000);
    engine.flush();
    auto p1 = engine.reconfigure(mgr);
    pump(engine, gen, 15'000);
    engine.flush();
    auto p2 = engine.reconfigure(mgr);  // merges epoch-1 stale reports
    return {std::move(p1), std::move(p2)};
  };

  chaos::Injector inj_a(plan);
  runtime::Engine a(topo, place, counting_factory(),
                    {.fields_mode = FieldsRouting::kTable, .injector = &inj_a});
  a.start();
  core::Manager mgr_a(topo, place, {});
  const auto [a1, a2] = run(a, mgr_a);

  chaos::Injector inj_b(plan);
  runtime::Engine b(topo, place, counting_factory(),
                    {.fields_mode = FieldsRouting::kTable, .injector = &inj_b});
  b.start();
  core::Manager mgr_b(topo, place, {});
  const auto [b1, b2] = run(b, mgr_b);

  EXPECT_EQ(inj_a.fired(FaultSite::kStatsLoss),
            inj_b.fired(FaultSite::kStatsLoss));
  EXPECT_EQ(inj_a.fired(FaultSite::kStatsDelay),
            inj_b.fired(FaultSite::kStatsDelay));
  EXPECT_GT(inj_a.fired(FaultSite::kStatsLoss), 0u);
  ASSERT_EQ(a1.tables.size(), b1.tables.size());
  for (const auto& [op, table] : a1.tables) {
    ASSERT_TRUE(b1.tables.contains(op));
    EXPECT_EQ(table->sorted_entries(), b1.tables.at(op)->sorted_entries());
  }
  EXPECT_EQ(a1.total_moves(), b1.total_moves());
  EXPECT_EQ(a2.total_moves(), b2.total_moves());

  const auto ma = a.metrics();
  const auto mb = b.metrics();
  EXPECT_EQ(ma.stats_reports_lost, mb.stats_reports_lost);
  EXPECT_EQ(ma.stats_reports_stale, mb.stats_reports_stale);
  EXPECT_GT(ma.stats_reports_lost, 0u);
  a.shutdown();
  b.shutdown();
}

// --- engine: everything at once, many threads (TSan target) ------------------

TEST(EngineChaos, AllFaultsStressManyThreads) {
  // 12 POI threads + 2 feeders + the driver; `ctest -L chaos` under
  // -DLAR_SANITIZE=thread must come back clean.
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  FaultPlan plan(606);
  plan.set(FaultSite::kChannelDelay, {.rate = 0.01});
  plan.set(FaultSite::kChannelDuplicate, {.rate = 0.01});
  plan.set(FaultSite::kWorkerStall, {.rate = 0.01, .magnitude = 2});
  plan.set(FaultSite::kStatsLoss, {.rate = 0.2});
  plan.set(FaultSite::kStatsDelay, {.rate = 0.2});
  plan.set(FaultSite::kMigrateDelay, {.rate = 0.5, .magnitude = 3});
  plan.set(FaultSite::kMigrateDuplicate, {.rate = 0.5});
  obs::Registry registry;
  obs::TraceRecorder trace;
  chaos::Injector inj(plan, &registry, &trace);
  runtime::Engine engine(topo, place, counting_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .registry = &registry,
                          .trace = &trace,
                          .injector = &inj,
                          .buffered_tuples_cap = 8});
  engine.start();
  core::Manager mgr(topo, place, {});

  // Each feeder records into its own ground truth (ExactCounter is not
  // thread-safe); the truths merge once both threads have joined.
  GroundTruth truth1;
  GroundTruth truth2;
  workload::SyntheticGenerator gen1(
      {.num_values = 120, .locality = 0.8, .padding = 0, .seed = 37});
  workload::SyntheticGenerator gen2(
      {.num_values = 120, .locality = 0.8, .padding = 0, .seed = 38});
  Feeder feeder1(engine, truth1, gen1);
  Feeder feeder2(engine, truth2, gen2);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    engine.reconfigure(mgr);
  }
  feeder1.stop();
  feeder2.stop();
  engine.flush();

  GroundTruth truth;
  for (GroundTruth* t : {&truth1, &truth2}) {
    for (const auto& e : t->field0.entries()) truth.field0.add(e.key, e.count);
    for (const auto& e : t->field1.entries()) truth.field1.add(e.key, e.count);
  }
  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  engine.publish_metrics();
  // The chaos metric families are published once the injector is configured.
  const std::string prom = obs::to_prometheus(registry);
  EXPECT_NE(prom.find("lar_chaos_faults_total"), std::string::npos);
  engine.shutdown();
}

// --- simulator ---------------------------------------------------------------

sim::SimConfig sim_config() {
  sim::SimConfig cfg;
  cfg.source_mode = SourceMode::kAlignedField0;
  cfg.seed = 3;
  return cfg;
}

TEST(SimChaos, SameSeedRunsAreByteIdentical) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  auto run = [&]() -> std::string {
    sim::Simulator simulator(topo, place, sim_config(), FieldsRouting::kTable);
    simulator.set_fault_plan(FaultPlan::uniform(77, 0.25));
    core::Manager mgr(topo, place, {});
    workload::SyntheticGenerator gen(
        {.num_values = 60, .locality = 0.8, .padding = 16, .seed = 40});
    for (int cycle = 0; cycle < 4; ++cycle) {
      simulator.run_window(gen, 4000);
      simulator.reconfigure(mgr);
    }
    return obs::report_json(simulator.registry(), &simulator.trace());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("lar_chaos_faults_total"), std::string::npos);
  EXPECT_NE(first.find("\"fault\""), std::string::npos);
  EXPECT_NE(first.find("\"recover\""), std::string::npos);
}

TEST(SimChaos, ZeroRatePlanMatchesUnarmedPlans) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  auto plan_with = [&](bool armed) {
    sim::Simulator simulator(topo, place, sim_config(), FieldsRouting::kTable);
    if (armed) simulator.set_fault_plan(FaultPlan(9));  // all rates zero
    core::Manager mgr(topo, place, {});
    workload::SyntheticGenerator gen(
        {.num_values = 45, .locality = 0.9, .padding = 0, .seed = 41});
    simulator.run_window(gen, 5000);
    return simulator.reconfigure(mgr);
  };
  const auto armed = plan_with(true);
  const auto unarmed = plan_with(false);
  ASSERT_EQ(armed.tables.size(), unarmed.tables.size());
  for (const auto& [op, table] : armed.tables) {
    EXPECT_EQ(table->sorted_entries(), unarmed.tables.at(op)->sorted_entries());
  }
  EXPECT_EQ(armed.total_moves(), unarmed.total_moves());
}

TEST(SimChaos, TotalReportLossStillPlansAndReportsStaleness) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  sim::Simulator simulator(topo, place, sim_config(), FieldsRouting::kTable);
  FaultPlan plan(808);
  plan.set(FaultSite::kStatsLoss, {.rate = 1.0});
  simulator.set_fault_plan(plan);
  core::Manager mgr(topo, place, {});
  workload::SyntheticGenerator gen(
      {.num_values = 45, .locality = 0.9, .padding = 0, .seed = 42});
  simulator.run_window(gen, 5000);
  // Every report is lost: the manager plans from an empty statistics set —
  // a no-op plan, not a hang and not a crash.
  const auto p = simulator.reconfigure(mgr);
  EXPECT_TRUE(p.tables.empty());
  EXPECT_GT(simulator.registry()
                .gauge("lar_chaos_gather_lost_reports", {})
                .value(),
            0.0);
  // The stream itself is untouched by gather faults.
  const auto report = simulator.run_window(gen, 5000);
  EXPECT_GT(report.throughput, 0.0);
}

}  // namespace
}  // namespace lar
