// Stress and fuzz tests: randomized configurations end-to-end, protocol
// torture under a live stream, concurrent channel traffic, codec fuzzing.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "core/manager.hpp"
#include "runtime/codec.hpp"
#include "runtime/engine.hpp"
#include "runtime/queue.hpp"
#include "sketch/exact_counter.hpp"
#include "workload/synthetic.hpp"

namespace lar {
namespace {

runtime::OperatorFactory chain_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
    return std::make_unique<runtime::CountingOperator>(op - 1);
  };
}

// --- randomized end-to-end sweep -------------------------------------------------

struct SweepParam {
  std::uint32_t stages;
  std::uint32_t parallelism;
  double locality;
};

class EndToEndSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EndToEndSweep, CountsExactThroughTwoReconfigurations) {
  const auto [stages, parallelism, locality] = GetParam();
  const Topology topo = make_chain_topology(stages, parallelism);
  const Placement place = Placement::round_robin(topo, parallelism);
  runtime::Engine engine(topo, place, chain_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .seed = stages * 31 + parallelism});
  engine.start();
  core::Manager manager(topo, place, {});
  workload::SyntheticGenerator gen(
      {.num_values = 16 * parallelism,
       .locality = locality,
       .padding = 8,
       .seed = stages * 1000 + parallelism,
       .num_fields = stages});
  std::vector<sketch::ExactCounter<Key>> truth(stages);

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4000; ++i) {
      Tuple t = gen.next();
      for (std::uint32_t f = 0; f < stages; ++f) truth[f].add(t.fields[f]);
      engine.inject(std::move(t));
    }
    engine.flush();
    if (round < 2) engine.reconfigure(manager);
  }

  for (OperatorId op = 1; op <= stages; ++op) {
    for (const auto& e : truth[op - 1].entries()) {
      std::uint64_t sum = 0;
      int holders = 0;
      for (InstanceIndex i = 0; i < parallelism; ++i) {
        const auto c = static_cast<runtime::CountingOperator&>(
                           engine.operator_at(op, i))
                           .count(e.key);
        sum += c;
        holders += (c > 0);
      }
      ASSERT_EQ(sum, e.count) << "op " << op << " key " << e.key;
      ASSERT_EQ(holders, 1);
    }
  }
  engine.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndSweep,
    ::testing::Values(SweepParam{1, 1, 0.5}, SweepParam{1, 4, 0.9},
                      SweepParam{2, 2, 0.0}, SweepParam{2, 5, 0.7},
                      SweepParam{3, 2, 1.0}, SweepParam{3, 3, 0.6},
                      SweepParam{4, 2, 0.8}, SweepParam{4, 4, 0.5}));

// --- protocol torture --------------------------------------------------------------

TEST(Torture, FiveLiveReconfigurationsUnderContinuousStream) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  runtime::Engine engine(topo, place, chain_factory(),
                         {.queue_capacity = 256,  // tight: force back pressure
                          .fields_mode = FieldsRouting::kTable});
  engine.start();
  core::Manager manager(topo, place, {});

  sketch::ExactCounter<Key> truth0;
  sketch::ExactCounter<Key> truth1;
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    workload::SyntheticGenerator gen(
        {.num_values = 200, .locality = 0.85, .padding = 64, .seed = 77});
    while (!stop.load(std::memory_order_relaxed)) {
      Tuple t = gen.next();
      truth0.add(t.fields[0]);
      truth1.add(t.fields[1]);
      engine.inject(std::move(t));
    }
  });

  // Reconfigure repeatedly while the stream hammers the queues.  The drift
  // between windows comes purely from sampling noise, so later plans still
  // move a few keys each time.
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    engine.reconfigure(manager);
  }
  stop = true;
  feeder.join();
  engine.flush();

  const auto metrics = engine.metrics();
  EXPECT_GT(metrics.states_migrated, 0u);
  // Exactness despite everything.
  std::uint64_t sum0 = 0;
  for (const auto& e : truth0.entries()) {
    for (InstanceIndex i = 0; i < n; ++i) {
      sum0 += static_cast<runtime::CountingOperator&>(engine.operator_at(1, i))
                  .count(e.key);
    }
  }
  EXPECT_EQ(sum0, truth0.total());
  std::uint64_t sum1 = 0;
  for (const auto& e : truth1.entries()) {
    for (InstanceIndex i = 0; i < n; ++i) {
      sum1 += static_cast<runtime::CountingOperator&>(engine.operator_at(2, i))
                  .count(e.key);
    }
  }
  EXPECT_EQ(sum1, truth1.total());
  engine.shutdown();
}

// --- channel stress -----------------------------------------------------------------

TEST(ChannelStress, ManyProducersOneConsumerLosesNothing) {
  runtime::Channel<std::uint64_t> ch;
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 5'000;
  std::vector<std::uint32_t> lanes;
  for (int p = 0; p < kProducers; ++p) lanes.push_back(ch.add_lane(8));
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, &lanes, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.lane_push(
            lanes[p], static_cast<std::uint64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  bool fifo_per_producer = true;
  while (count < kProducers * kPerProducer) {
    const auto v = ch.pop();
    ASSERT_TRUE(v.has_value());
    const auto producer = *v / kPerProducer;
    const auto seq = *v % kPerProducer + 1;
    fifo_per_producer &= (seq > last_seen[producer] ||
                          (seq == 1 && last_seen[producer] == 0));
    last_seen[producer] = seq;
    sum += *v;
    ++count;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(fifo_per_producer);
  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(sum, total * (total - 1) / 2);
}

TEST(ChannelStress, UnboundedControlInterleavesWithBoundedData) {
  runtime::Channel<int> ch;
  const std::uint32_t lane = ch.add_lane(4);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) ch.lane_push(lane, i);
    ch.push_unbounded_after(lane, -1);  // sentinel behind the lane's data
  });
  int data_seen = 0;
  while (true) {
    const auto v = ch.pop();
    ASSERT_TRUE(v.has_value());
    if (*v == -1) break;
    EXPECT_EQ(*v, data_seen++);
  }
  producer.join();
  EXPECT_EQ(data_seen, 1000);
}

// --- codec fuzz -----------------------------------------------------------------------

TEST(CodecFuzz, RandomTuplesRoundTrip) {
  Rng rng(123);
  for (int iter = 0; iter < 2000; ++iter) {
    Tuple t;
    const std::size_t nfields = rng.below(9);
    for (std::size_t f = 0; f < nfields; ++f) t.fields.push_back(rng.next());
    t.padding = static_cast<std::uint32_t>(rng.below(30'000));
    const auto wire = runtime::encode_tuple(t);
    ASSERT_EQ(wire.size(), t.serialized_size());
    const Tuple back = runtime::decode_tuple(wire);
    ASSERT_EQ(back.fields, t.fields);
    ASSERT_EQ(back.padding, t.padding);
  }
}

}  // namespace
}  // namespace lar
