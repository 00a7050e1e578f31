// Tests for the threaded runtime: channels, codec, engine data plane, and
// the online reconfiguration protocol with state migration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/rng.hpp"
#include "runtime/codec.hpp"
#include "runtime/engine.hpp"
#include "runtime/queue.hpp"
#include "sketch/exact_counter.hpp"
#include "workload/synthetic.hpp"

namespace lar::runtime {
namespace {

// --- Channel ------------------------------------------------------------------

TEST(Channel, FifoOrder) {
  Channel<int> ch(16);
  for (int i = 0; i < 10; ++i) ch.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ch.pop().value(), i);
}

TEST(Channel, BlockingPushRespectsCapacity) {
  Channel<int> ch(2);
  ch.push(1);
  ch.push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ch.push(3);
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_pushed.load());  // full: producer is parked
  EXPECT_EQ(ch.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(Channel, UnboundedPushIgnoresCapacity) {
  Channel<int> ch(1);
  ch.push(1);
  EXPECT_TRUE(ch.push_unbounded(2));
  EXPECT_TRUE(ch.push_unbounded(3));
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.pop().value(), 1);
  EXPECT_EQ(ch.pop().value(), 2);  // still FIFO
}

TEST(Channel, TryPushFailsWhenFull) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_FALSE(ch.try_push(2));
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch(8);
  ch.push(42);
  ch.close();
  EXPECT_FALSE(ch.push(43));
  EXPECT_FALSE(ch.push_unbounded(44));
  EXPECT_EQ(ch.pop().value(), 42);
  EXPECT_FALSE(ch.pop().has_value());
}

TEST(Channel, CloseWakesBlockedConsumer) {
  Channel<int> ch(8);
  std::thread consumer([&] { EXPECT_FALSE(ch.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  consumer.join();
}

// --- codec --------------------------------------------------------------------

TEST(Codec, RoundTripPreservesFieldsAndPadding) {
  const Tuple t{.fields = {7, 1ULL << 40, 0}, .padding = 512};
  const auto wire = encode_tuple(t);
  EXPECT_EQ(wire.size(), t.serialized_size());
  const Tuple back = decode_tuple(wire);
  EXPECT_EQ(back.fields, t.fields);
  EXPECT_EQ(back.padding, t.padding);
}

TEST(Codec, EmptyTuple) {
  const Tuple t{};
  const Tuple back = decode_tuple(encode_tuple(t));
  EXPECT_TRUE(back.fields.empty());
  EXPECT_EQ(back.padding, 0u);
}

TEST(Codec, ReusedBuffersMatchFreshOnesByteForByte) {
  // The engine's remote hop encodes into one reused wire buffer and decodes
  // into recycled field buffers; stale bytes and stale fields must never
  // leak into the result.
  const std::vector<Tuple> tuples = {
      {.fields = {7, 1ULL << 40, 0}, .padding = 512},
      {.fields = {}, .padding = 0},
      {.fields = {3}, .padding = 17},
      {.fields = {1, 2, 3, 4, 5, 6}, .padding = 0},
  };
  for (const std::size_t stale_bytes : {0u, 8u, 40u, 4096u}) {
    for (const Tuple& t : tuples) {
      const std::vector<std::byte> fresh = encode_tuple(t);
      std::vector<std::byte> wire(stale_bytes, std::byte{0xAB});
      encode_tuple_into(t, wire);
      EXPECT_EQ(wire, fresh) << "stale buffer of " << stale_bytes << " bytes";

      const Tuple fresh_tuple = decode_tuple(fresh);
      Tuple reused{.fields = std::vector<Key>(32, 0xDEADBEEFULL),
                   .padding = 999};
      decode_tuple_into(fresh, reused);
      EXPECT_EQ(reused.fields, fresh_tuple.fields);
      EXPECT_EQ(reused.padding, fresh_tuple.padding);
    }
  }
}

// --- engine fixtures -------------------------------------------------------------

OperatorFactory counting_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<Operator> {
    if (op == 0) return std::make_unique<PassThroughOperator>();
    return std::make_unique<CountingOperator>(op == 1 ? 0 : 1);
  };
}

CountingOperator& counter_at(Engine& engine, OperatorId op, InstanceIndex i) {
  return static_cast<CountingOperator&>(engine.operator_at(op, i));
}

/// Injects `n` generated tuples, recording ground truth per field.
struct GroundTruth {
  sketch::ExactCounter<Key> field0;
  sketch::ExactCounter<Key> field1;
};

void pump(Engine& engine, workload::TupleGenerator& gen, int n,
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

/// Asserts that, per key, the summed counts across instances equal ground
/// truth AND that exactly one instance holds each key (fields grouping
/// consistency, the invariant of Section 2.1).
void expect_counts_match(Engine& engine, OperatorId op, std::uint32_t par,
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

// --- engine data plane -------------------------------------------------------------

TEST(Engine, CountsAreExactUnderHashRouting) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kHash});
  engine.start();
  workload::SyntheticGenerator gen(
      {.num_values = 60, .locality = 0.5, .padding = 8, .seed = 21});
  GroundTruth truth;
  pump(engine, gen, 5000, &truth);
  engine.flush();
  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  const auto m = engine.metrics();
  EXPECT_EQ(m.tuples_injected, 5000u);
  EXPECT_EQ(m.instance_processed[0][0] + m.instance_processed[0][1] +
                m.instance_processed[0][2],
            5000u);
}

TEST(Engine, IdentityRoutingLocalityMatchesWorkload) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kIdentity,
                 .source_mode = SourceMode::kAlignedField0});
  engine.start();
  workload::SyntheticGenerator gen(
      {.num_values = n, .locality = 1.0, .padding = 0, .seed = 22});
  pump(engine, gen, 4000);
  engine.flush();
  const auto m = engine.metrics();
  EXPECT_EQ(m.edges[0].remote, 0u);  // aligned source, identity routing
  EXPECT_EQ(m.edges[1].remote, 0u);  // 100% correlated
  EXPECT_EQ(m.edges[1].local, 4000u);
  EXPECT_EQ(m.edges[1].remote_bytes, 0u);
}

TEST(Engine, RemoteBytesAccounted) {
  const std::uint32_t n = 2;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kWorstCase,
                 .source_mode = SourceMode::kAlignedField0});
  engine.start();
  const std::uint32_t padding = 100;
  workload::SyntheticGenerator gen(
      {.num_values = n, .locality = 1.0, .padding = padding, .seed = 23});
  pump(engine, gen, 100);
  engine.flush();
  const auto m = engine.metrics();
  // Worst-case: both hops always remote.
  EXPECT_EQ(m.edges[0].remote, 100u);
  EXPECT_EQ(m.edges[1].remote, 100u);
  const std::uint32_t per_tuple = Tuple{.fields = {0, 0}, .padding = padding}
                                      .serialized_size();
  EXPECT_EQ(m.edges[0].remote_bytes, 100u * per_tuple);
}

TEST(Engine, FlushIsIdempotentAndShutdownSafe) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  Engine engine(topo, place, counting_factory(), {});
  engine.start();
  engine.flush();  // nothing injected
  engine.inject(Tuple{.fields = {0, 2}, .padding = 0});
  engine.flush();
  engine.flush();
  engine.shutdown();
  engine.shutdown();  // idempotent
}

// --- reconfiguration protocol --------------------------------------------------------

TEST(Engine, ReconfigureWithNoTrafficIsNoop) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  Engine engine(topo, place, counting_factory(), {});
  engine.start();
  core::Manager mgr(topo, place, {});
  const auto plan = engine.reconfigure(mgr);
  EXPECT_TRUE(plan.tables.empty());
  engine.shutdown();
}

TEST(Engine, ReconfigureImprovesLocalityAndPreservesState) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kTable,
                 .source_mode = SourceMode::kAlignedField0});
  engine.start();
  core::Manager mgr(topo, place, {});
  workload::SyntheticGenerator gen(
      {.num_values = n * 50, .locality = 0.9, .padding = 4, .seed = 24});
  GroundTruth truth;
  pump(engine, gen, 20'000, &truth);
  engine.flush();
  const auto before = engine.metrics();

  const auto plan = engine.reconfigure(mgr);
  EXPECT_GT(plan.keys_assigned, 0u);
  EXPECT_GT(plan.total_moves(), 0u);

  pump(engine, gen, 20'000, &truth);
  engine.flush();
  const auto after = engine.metrics();

  const double loc_before =
      static_cast<double>(before.edges[1].local) /
      static_cast<double>(before.edges[1].local + before.edges[1].remote);
  const double loc_after =
      static_cast<double>(after.edges[1].local - before.edges[1].local) /
      20'000.0;
  EXPECT_LT(loc_before, 0.5);
  EXPECT_GT(loc_after, 0.8);

  // No tuple lost, no duplication, every key on exactly one instance.
  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  engine.shutdown();
}

TEST(Engine, ReconfigureWhileStreamIsFlowing) {
  // Reconfiguration must not require quiescence: inject from another thread
  // for the whole duration.
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kTable});
  engine.start();
  core::Manager mgr(topo, place, {});

  workload::SyntheticGenerator gen(
      {.num_values = 90, .locality = 0.8, .padding = 0, .seed = 25});
  GroundTruth truth;
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    workload::SyntheticGenerator fgen(
        {.num_values = 90, .locality = 0.8, .padding = 0, .seed = 26});
    while (!stop.load()) {
      Tuple t = fgen.next();
      truth.field0.add(t.fields[0]);
      truth.field1.add(t.fields[1]);
      engine.inject(std::move(t));
    }
  });

  // Warm up, then reconfigure twice against the live stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.reconfigure(mgr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.reconfigure(mgr);
  stop = true;
  feeder.join();
  engine.flush();

  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  engine.shutdown();
}

TEST(Engine, RepeatedStableReconfigsMoveNothing) {
  const std::uint32_t n = 2;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.pair_stats_capacity = 0 /* exact */,
                 .fields_mode = FieldsRouting::kTable});
  engine.start();
  core::Manager mgr(topo, place, {});
  workload::SyntheticGenerator gen(
      {.num_values = 20, .locality = 1.0, .padding = 0, .seed = 27});
  pump(engine, gen, 10'000);
  engine.flush();
  engine.reconfigure(mgr);
  // Same distribution again: the second plan must be (nearly) a no-op —
  // the partitioner is deterministic and the workload is stable.
  workload::SyntheticGenerator gen2(
      {.num_values = 20, .locality = 1.0, .padding = 0, .seed = 27});
  pump(engine, gen2, 10'000);
  engine.flush();
  const auto plan2 = engine.reconfigure(mgr);
  EXPECT_EQ(plan2.total_moves(), 0u);
  engine.shutdown();
}

TEST(Engine, MigratedStateLandsOnTableTarget) {
  const std::uint32_t n = 2;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(topo, place, counting_factory(),
                {.fields_mode = FieldsRouting::kTable});
  engine.start();
  core::Manager mgr(topo, place, {});
  workload::SyntheticGenerator gen(
      {.num_values = 30, .locality = 1.0, .padding = 0, .seed = 28});
  pump(engine, gen, 8000);
  engine.flush();
  const auto plan = engine.reconfigure(mgr);
  engine.flush();
  // After migration, each table-assigned key's state lives exactly on its
  // assigned instance.
  for (const auto& [key, inst] : plan.tables.at(1)->sorted_entries()) {
    for (InstanceIndex i = 0; i < n; ++i) {
      const std::uint64_t c = counter_at(engine, 1, i).count(key);
      if (i == inst) {
        EXPECT_GT(c, 0u) << "key " << key;
      } else {
        EXPECT_EQ(c, 0u) << "key " << key << " instance " << i;
      }
    }
  }
  engine.shutdown();
}

// --- flush exactness ---------------------------------------------------------

/// Fails the test instead of letting it hang: a flush() that never returns
/// cannot be unwound from another thread, so a round that makes no progress
/// for `stall` reports where it stuck and aborts the test binary.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds stall)
      : stall_(stall), thread_([this] { watch(); }) {}

  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Records one finished round.
  void kick() {
    {
      std::lock_guard lock(mutex_);
      ++rounds_;
    }
    cv_.notify_all();
  }

 private:
  void watch() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      const std::uint64_t seen = rounds_;
      if (!cv_.wait_for(lock, stall_,
                        [&] { return stop_ || rounds_ != seen; })) {
        std::fprintf(stderr,
                     "watchdog: no round finished for %lld s after round "
                     "%llu; flush() never returned\n",
                     static_cast<long long>(stall_.count()),
                     static_cast<unsigned long long>(seen));
        std::abort();
      }
    }
  }

  const std::chrono::seconds stall_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t rounds_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// Runs `rounds` inject -> flush() rounds of 1..300 tuples each and checks,
/// after every flush, that every operator processed exactly the injected
/// tuples and every edge carried exactly one hop per tuple: a flush() that
/// returns while a tuple is still in flight leaves a count short.  With an
/// injector, every duplicated copy must also have been dropped by then.
void expect_flush_exact(FieldsRouting mode, std::size_t lane_batch,
                        chaos::Injector* inj, int rounds, std::uint64_t seed,
                        Watchdog& dog) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  Engine engine(
      topo, place, counting_factory(),
      {.lane_batch = lane_batch, .fields_mode = mode, .injector = inj});
  engine.start();
  workload::SyntheticGenerator gen(
      {.num_values = 60, .locality = 0.8, .padding = 4, .seed = seed});
  GroundTruth truth;
  std::uint64_t injected = 0;
  if (mode == FieldsRouting::kTable) {
    // Deploy a plan first, so the rounds run on table routing proper rather
    // than on the empty table's hash fallback.
    pump(engine, gen, 2000, &truth);
    injected = 2000;
    engine.flush();
    core::Manager mgr(topo, place, {});
    ASSERT_FALSE(engine.reconfigure(mgr).tables.empty());
  }
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const auto batch = static_cast<int>(1 + rng.below(300));
    pump(engine, gen, batch, &truth);
    injected += static_cast<std::uint64_t>(batch);
    engine.flush();
    const EngineMetrics m = engine.metrics();
    for (OperatorId op = 0; op < topo.num_operators(); ++op) {
      std::uint64_t processed = 0;
      for (const std::uint64_t p : m.instance_processed[op]) processed += p;
      ASSERT_EQ(processed, injected) << "op " << op << " round " << round;
    }
    for (std::size_t e = 0; e < m.edges.size(); ++e) {
      ASSERT_EQ(m.edges[e].local + m.edges[e].remote, injected)
          << "edge " << e << " round " << round;
    }
    if (inj != nullptr) {
      ASSERT_EQ(m.data_dups_dropped,
                inj->fired(chaos::FaultSite::kChannelDuplicate))
          << "round " << round;
    }
    dog.kick();
  }
  expect_counts_match(engine, 1, n, truth.field0);
  expect_counts_match(engine, 2, n, truth.field1);
  engine.shutdown();
}

constexpr FieldsRouting kFlushModes[] = {FieldsRouting::kHash,
                                         FieldsRouting::kTable};
constexpr std::size_t kFlushBatches[] = {1, 32};

TEST(RuntimeFlush, ExactAfterEveryRound) {
  Watchdog dog(std::chrono::seconds(30));
  std::uint64_t seed = 41;
  for (const FieldsRouting mode : kFlushModes) {
    for (const std::size_t lane_batch : kFlushBatches) {
      SCOPED_TRACE(testing::Message()
                   << "table " << (mode == FieldsRouting::kTable)
                   << " lane_batch " << lane_batch);
      expect_flush_exact(mode, lane_batch, nullptr, 200, seed++, dog);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RuntimeFlush, ExactAfterEveryRoundUnderDuplicates) {
  // Duplicated hops are sent twice and dropped once by the receiver's link
  // dedup, so flush() must also wait out the drop path.
  Watchdog dog(std::chrono::seconds(30));
  std::uint64_t seed = 51;
  for (const FieldsRouting mode : kFlushModes) {
    for (const std::size_t lane_batch : kFlushBatches) {
      SCOPED_TRACE(testing::Message()
                   << "table " << (mode == FieldsRouting::kTable)
                   << " lane_batch " << lane_batch);
      chaos::FaultPlan plan(seed);
      plan.set(chaos::FaultSite::kChannelDuplicate, {.rate = 0.05});
      chaos::Injector inj(plan);
      expect_flush_exact(mode, lane_batch, &inj, 200, seed++, dog);
      if (HasFatalFailure()) return;
      EXPECT_GT(inj.fired(chaos::FaultSite::kChannelDuplicate), 0u);
    }
  }
}

}  // namespace
}  // namespace lar::runtime
