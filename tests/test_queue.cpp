// Tests for the hybrid Channel (DESIGN.md §13): per-producer SPSC ring
// lanes with batched publication and watermarked control, differentially
// against the legacy shared mutex queue — per-producer FIFO must be
// identical between the two paths, with control messages pinned at the
// exact data position they were pushed at.  Run pops must match one-item
// pops, stop at control marks and wake parked producers at most once per
// run; bursty publishers must never strand a parked consumer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/queue.hpp"

namespace lar::runtime {
namespace {

// Item encoding for multi-producer runs: producer * kStride + position.
// Data items are positive; a control item is the negated encoding of how
// many data items its producer pushed before it.
constexpr std::int64_t kStride = 10'000'000;

/// Asserts the per-producer projection is canonical: data positions strictly
/// consecutive from 0, and every control item consumed when exactly its
/// pushed-behind count of data items has been consumed (FIFO-behind-data,
/// ahead of everything pushed after it).
void check_per_producer_fifo(
    const std::vector<std::vector<std::int64_t>>& seqs) {
  for (std::size_t p = 0; p < seqs.size(); ++p) {
    std::int64_t next_data = 0;
    for (const std::int64_t v : seqs[p]) {
      if (v >= 0) {
        ASSERT_EQ(v % kStride, next_data) << "producer " << p;
        ++next_data;
      } else {
        ASSERT_EQ((-v) % kStride, next_data)
            << "producer " << p << ": control out of position";
      }
    }
  }
}

// --- differential: lane channel vs reference shared channel ----------------

TEST(QueueDifferential, LanesMatchSharedQueuePerProducerOrder) {
  constexpr int kProducers = 8;
  constexpr std::int64_t kItems = 4000;
  constexpr std::int64_t kCtrlEvery = 97;

  const auto run = [&](bool use_lanes) {
    Channel<std::int64_t> ch(256);
    std::vector<std::uint32_t> lanes;
    if (use_lanes) {
      for (int p = 0; p < kProducers; ++p) lanes.push_back(ch.add_lane(64));
      ch.set_lane_batch(7);  // deliberately not a divisor of anything
    }
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    std::int64_t total = 0;
    for (int p = 0; p < kProducers; ++p) {
      total += kItems + (kItems - 1) / kCtrlEvery + 1;
      producers.emplace_back([&, p] {
        const std::int64_t base = p * kStride;
        for (std::int64_t i = 0; i < kItems; ++i) {
          if (i != 0 && i % kCtrlEvery == 0) {
            if (use_lanes) {
              ASSERT_TRUE(ch.push_unbounded_after(lanes[p], -(base + i)));
            } else {
              ASSERT_TRUE(ch.push_unbounded(-(base + i)));
            }
          }
          if (use_lanes) {
            ASSERT_TRUE(ch.lane_push(lanes[p], base + i));
          } else {
            ASSERT_TRUE(ch.push(base + i));
          }
        }
        // Trailing control: also exercises flush-before-control at the end.
        if (use_lanes) {
          ASSERT_TRUE(ch.push_unbounded_after(lanes[p], -(base + kItems)));
        } else {
          ASSERT_TRUE(ch.push_unbounded(-(base + kItems)));
        }
      });
    }
    std::vector<std::vector<std::int64_t>> seqs(kProducers);
    for (std::int64_t n = 0; n < total; ++n) {
      const auto v = ch.pop();
      EXPECT_TRUE(v.has_value());
      if (!v.has_value()) break;
      const std::int64_t x = *v;
      const auto p = static_cast<std::size_t>((x < 0 ? -x : x) / kStride);
      if (p >= seqs.size()) {
        ADD_FAILURE() << "item " << x << " maps to no producer";
        break;
      }
      seqs[p].push_back(x);
    }
    for (auto& t : producers) t.join();
    return seqs;
  };

  const auto lane_seqs = run(/*use_lanes=*/true);
  const auto ref_seqs = run(/*use_lanes=*/false);
  check_per_producer_fifo(lane_seqs);
  check_per_producer_fifo(ref_seqs);
  // Canonical per-producer order means the projections are identical.
  EXPECT_EQ(lane_seqs, ref_seqs);
}

// --- batching semantics ----------------------------------------------------

TEST(QueueBatch, StagedItemsInvisibleUntilFlushOrBatchBoundary) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ch.set_lane_batch(3);
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  EXPECT_EQ(ch.size(), 0u);  // staged, not published
  EXPECT_FALSE(ch.try_pop().has_value());
  ASSERT_TRUE(ch.lane_push(lane, 3));  // batch boundary publishes
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.try_pop(), 1);
  EXPECT_EQ(ch.try_pop(), 2);
  EXPECT_EQ(ch.try_pop(), 3);
  ASSERT_TRUE(ch.lane_push(lane, 4));
  EXPECT_FALSE(ch.try_pop().has_value());
  ch.lane_flush(lane);
  EXPECT_EQ(ch.try_pop(), 4);
  EXPECT_FALSE(ch.try_pop().has_value());
}

TEST(QueueBatch, ControlPushPublishesStagedBatchFirst) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ch.set_lane_batch(100);  // larger than anything staged here
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  EXPECT_FALSE(ch.try_pop().has_value());
  ASSERT_TRUE(ch.push_unbounded_after(lane, 99));
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_EQ(ch.pop(), 99);
}

TEST(QueueBatch, ControlHoldsBackDataPublishedAfterIt) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.push_unbounded_after(lane, -1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), -1);  // the watermark pins it between 1 and 2
  EXPECT_EQ(ch.pop(), 2);
}

TEST(QueueBatch, SharedQueueServedBeforeLaneControl) {
  // The engine relies on driver-side shared control (e.g. a checkpoint
  // commit) keeping its FIFO edge over later lane-side control (e.g. the
  // next epoch's barrier).
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.push_unbounded_after(lane, 100));  // lane control
  ASSERT_TRUE(ch.push_unbounded(200));              // shared (driver) control
  EXPECT_EQ(ch.pop(), 200);
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 100);
}

// --- run pops ---------------------------------------------------------------

TEST(QueueRun, RunStopsExactlyAtControlMarkAndAtTheBatchCap) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(32);
  ch.set_lane_batch(4);
  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  ASSERT_TRUE(ch.push_unbounded_after(lane, -6));  // mark after item 6
  for (int i = 7; i <= 9; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  ch.lane_flush(lane);

  std::vector<std::vector<int>> runs;
  std::vector<int> run;
  while (ch.try_pop_run(run)) {
    runs.push_back(run);
    run.clear();
  }
  const std::vector<std::vector<int>> expected = {
      {1, 2, 3, 4}, {5, 6}, {-6}, {7, 8, 9}};
  EXPECT_EQ(runs, expected);
}

TEST(QueueRun, BatchOnePopsOneItemAtATime) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  std::vector<int> run;
  for (int i = 1; i <= 5; ++i) {
    run.clear();
    ASSERT_TRUE(ch.try_pop_run(run));
    EXPECT_EQ(run, std::vector<int>{i});
  }
  run.clear();
  EXPECT_FALSE(ch.try_pop_run(run));
  EXPECT_TRUE(run.empty());
}

TEST(QueueRun, RunsMatchOneItemPopsPerProducer) {
  // The same multi-producer workload consumed by runs and by one-item pops
  // must give identical per-producer sequences; every run must be lane data
  // from one producer, consecutive and at most lane_batch long, or a single
  // control item.
  constexpr int kProducers = 6;
  constexpr std::int64_t kItems = 5000;
  constexpr std::int64_t kCtrlEvery = 61;
  constexpr std::size_t kBatch = 7;

  const auto run = [&](bool by_runs) {
    Channel<std::int64_t> ch(256);
    std::vector<std::uint32_t> lanes;
    for (int p = 0; p < kProducers; ++p) lanes.push_back(ch.add_lane(32));
    ch.set_lane_batch(kBatch);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    std::int64_t total = 0;
    for (int p = 0; p < kProducers; ++p) {
      total += kItems + (kItems - 1) / kCtrlEvery + 1;
      producers.emplace_back([&, p] {
        const std::int64_t base = p * kStride;
        for (std::int64_t i = 0; i < kItems; ++i) {
          if (i != 0 && i % kCtrlEvery == 0) {
            ASSERT_TRUE(ch.push_unbounded_after(lanes[p], -(base + i)));
          }
          ASSERT_TRUE(ch.lane_push(lanes[p], base + i));
        }
        ASSERT_TRUE(ch.push_unbounded_after(lanes[p], -(base + kItems)));
      });
    }
    std::vector<std::vector<std::int64_t>> seqs(kProducers);
    std::vector<std::int64_t> batch;
    for (std::int64_t n = 0; n < total;) {
      batch.clear();
      if (by_runs) {
        EXPECT_TRUE(ch.pop_run(batch));
      } else if (auto v = ch.pop()) {
        batch.push_back(*v);
      }
      if (batch.empty()) break;
      EXPECT_LE(batch.size(), kBatch);
      const std::int64_t first = batch.front();
      const auto p =
          static_cast<std::size_t>((first < 0 ? -first : first) / kStride);
      if (p >= seqs.size()) {
        ADD_FAILURE() << "item " << first << " maps to no producer";
        break;
      }
      if (first < 0) {
        EXPECT_EQ(batch.size(), 1u) << "control inside a run";
      }
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (k > 0) {
          EXPECT_EQ(batch[k], first + static_cast<std::int64_t>(k));
        }
        seqs[p].push_back(batch[k]);
      }
      n += static_cast<std::int64_t>(batch.size());
    }
    for (auto& t : producers) t.join();
    return seqs;
  };

  const auto run_seqs = run(/*by_runs=*/true);
  const auto one_seqs = run(/*by_runs=*/false);
  check_per_producer_fifo(run_seqs);
  check_per_producer_fifo(one_seqs);
  EXPECT_EQ(run_seqs, one_seqs);
}

TEST(QueueRun, ParkedProducerIsWokenAtMostOncePerRun) {
  // A producer far faster than its consumer spends the test parked on a
  // full ring; each run frees lane_batch slots with one head store, so it
  // may wake the producer once — never once per item.
  constexpr int kItems = 96;
  Channel<int> ch(4);
  const std::uint32_t lane = ch.add_lane(8);
  ch.set_lane_batch(4);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
    ch.lane_flush(lane);
  });
  std::vector<int> got;
  std::uint64_t runs = 0;
  while (got.size() < static_cast<std::size_t>(kItems)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::size_t before = got.size();
    ASSERT_TRUE(ch.pop_run(got));
    EXPECT_LE(got.size() - before, 4u);
    ++runs;
  }
  producer.join();
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  const std::uint64_t wakes = ch.producer_wakes();
  EXPECT_GE(wakes, 1u);  // the ring of 8 is full long before 96 items
  EXPECT_LE(wakes, runs);
}

// --- lost wake-ups ------------------------------------------------------------

TEST(QueueWake, BurstyProducersNeverStrandAParkedConsumer) {
  // Producers publish short bursts separated by idle gaps, so the consumer
  // drains, parks and is woken over and over.  Only the publisher whose
  // exchange clears the consumer's waiting flag wakes it; a publisher that
  // read the flag, stalled, and cleared the flag armed for a *later* park
  // wakes a consumer with nothing to pop.  Unless the consumer re-arms
  // before sleeping again, every later publish sees no sleeper and the
  // items strand — caught here by a deadline instead of a hang.
  constexpr int kProducers = 6;
  constexpr int kMaxBursts = 40000;
  constexpr int kBurst = 4;
  // A normal build publishes every burst in about a second; slower
  // (sanitizer) builds stop producing once the budget is spent.  A stranded
  // consumer never recovers, so a stall long enough to rule out scheduling
  // noise is the failure signal.
  constexpr auto kBudget = std::chrono::seconds(4);
  constexpr auto kStall = std::chrono::seconds(10);
  Channel<std::int64_t> ch(64);
  std::vector<std::uint32_t> lanes;
  for (int p = 0; p < kProducers; ++p) lanes.push_back(ch.add_lane(16));

  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
  std::vector<std::int64_t> pushed(kProducers, 0);  // read once `done` is full
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t x =
          0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(p + 1);
      std::int64_t& next = pushed[static_cast<std::size_t>(p)];
      for (int b = 0; b < kMaxBursts && !stop.load(std::memory_order_relaxed);
           ++b) {
        for (int k = 0; k < kBurst; ++k) {
          if (!ch.lane_push(lanes[p], p * kStride + next)) break;  // closed
          ++next;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x % 4 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(x % 50));
        } else {
          for (std::uint64_t y = x % 16; y != 0; --y) std::this_thread::yield();
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  std::atomic<std::int64_t> received{0};
  std::thread consumer([&] {
    std::vector<std::int64_t> next(kProducers, 0);
    std::vector<std::int64_t> run;
    while (ch.pop_run(run)) {  // ends at close()
      for (const std::int64_t v : run) {
        const auto p = static_cast<std::size_t>(v / kStride);
        EXPECT_EQ(v % kStride, next[p]++) << "producer " << p;
      }
      received.fetch_add(static_cast<std::int64_t>(run.size()),
                         std::memory_order_relaxed);
      run.clear();
    }
  });

  const auto start = std::chrono::steady_clock::now();
  auto progress_at = start;
  std::int64_t got = 0;
  bool complete = false;
  while (!complete) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto now = std::chrono::steady_clock::now();
    if (now - start > kBudget) stop.store(true, std::memory_order_relaxed);
    if (const std::int64_t r = received.load(std::memory_order_relaxed);
        r != got) {
      got = r;
      progress_at = now;
    }
    if (done.load(std::memory_order_acquire) == kProducers) {
      std::int64_t total = 0;
      for (const std::int64_t n : pushed) total += n;
      complete = got == total;
    }
    if (now - progress_at > kStall) break;
  }
  EXPECT_TRUE(complete) << "consumer stranded with items published; "
                        << got << " received";
  stop.store(true, std::memory_order_relaxed);
  ch.close();  // ends the consumer; releases parked producers if stranded
  for (auto& t : producers) t.join();
  consumer.join();
}

// --- abort / drain ---------------------------------------------------------

TEST(QueueAbort, AbortStagedDiscardsOnlyUnpublishedItems) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ch.set_lane_batch(100);
  for (int i = 1; i <= 7; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  ch.lane_flush(lane);
  for (int i = 8; i <= 9; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  EXPECT_EQ(ch.lane_abort_staged(lane), 2u);
  for (int i = 1; i <= 7; ++i) EXPECT_EQ(ch.try_pop(), i);
  EXPECT_FALSE(ch.try_pop().has_value());
  EXPECT_EQ(ch.lane_abort_staged(lane), 0u);
}

TEST(QueueDrain, DrainMergesLaneDataControlAndShared) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.push_unbounded_after(lane, -1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  ASSERT_TRUE(ch.push_unbounded(-2));
  const auto out = ch.drain();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], -1);  // control at its watermark position
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(out[3], -2);  // shared queue after the lanes
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.try_pop().has_value());
}

// --- close/drain under concurrent push: conservation -----------------------

TEST(QueueStress, CloseAndDrainDuringConcurrentPushConservesItems) {
  // 12 producers + 1 popping consumer + 1 sweeping drainer = 14 threads,
  // the crash-sweep shape: drain() racing a live consumer through the gate
  // while producers keep pushing until close().
  constexpr int kProducers = 12;
  constexpr std::int64_t kItems = 20'000;
  Channel<std::int64_t> ch(128);
  std::vector<std::uint32_t> lanes;
  lanes.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) lanes.push_back(ch.add_lane(32));
  ch.set_lane_batch(5);

  std::vector<std::atomic<std::int64_t>> pushed(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kItems; ++i) {
        if (!ch.lane_push(lanes[p], p * kStride + i)) break;  // closed
        pushed[p].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::vector<char>> seen(kProducers,
                                      std::vector<char>(kItems, 0));
  std::mutex seen_mutex;
  std::atomic<std::int64_t> consumed{0};
  const auto record = [&](std::int64_t v) {
    const auto p = static_cast<std::size_t>(v / kStride);
    const auto i = static_cast<std::size_t>(v % kStride);
    std::lock_guard lock(seen_mutex);
    ASSERT_LT(p, seen.size());
    ASSERT_EQ(seen[p][i], 0) << "duplicate delivery";
    seen[p][i] = 1;
  };

  std::thread consumer([&] {
    while (const auto v = ch.pop()) {
      record(*v);
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread drainer([&] {
    for (int round = 0; round < 50; ++round) {
      for (const std::int64_t v : ch.drain()) {
        record(v);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });
  drainer.join();
  ch.close();
  for (auto& t : producers) t.join();
  consumer.join();

  // Post-close sweep: published leftovers drain; staged leftovers abort.
  for (const std::int64_t v : ch.drain()) {
    record(v);
    consumed.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t aborted = 0;
  for (int p = 0; p < kProducers; ++p) {
    aborted += static_cast<std::int64_t>(ch.lane_abort_staged(lanes[p]));
  }
  std::int64_t total_pushed = 0;
  for (int p = 0; p < kProducers; ++p) {
    total_pushed += pushed[p].load(std::memory_order_relaxed);
  }
  EXPECT_EQ(consumed.load(std::memory_order_relaxed) + aborted, total_pushed);
}

// --- metrics ---------------------------------------------------------------

TEST(QueueMetrics, SizeAndHighWaterMarkTrackPublishedDepth) {
  Channel<int> ch(16);
  const std::uint32_t lane = ch.add_lane(16);
  EXPECT_EQ(ch.high_water_mark(), 0u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ch.lane_push(lane, i));
  EXPECT_EQ(ch.size(), 4u);  // default batch 1: every push publishes
  ASSERT_TRUE(ch.push_unbounded(99));
  EXPECT_EQ(ch.size(), 5u);
  while (ch.try_pop().has_value()) {
  }
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.high_water_mark(), 5u);  // the ratchet survives the pops
}

TEST(QueueBackpressure, FullLaneBlocksUntilConsumed) {
  Channel<int> ch(4);
  const std::uint32_t lane = ch.add_lane(2);  // tiny ring
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    ASSERT_TRUE(ch.lane_push(lane, 3));  // blocks until a slot frees
    third_done.store(true, std::memory_order_release);
  });
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_EQ(ch.pop(), 3);
  producer.join();
  EXPECT_TRUE(third_done.load(std::memory_order_acquire));
}

TEST(QueueClose, CloseWakesBlockedLaneProducer) {
  Channel<int> ch(4);
  const std::uint32_t lane = ch.add_lane(2);
  ASSERT_TRUE(ch.lane_push(lane, 1));
  ASSERT_TRUE(ch.lane_push(lane, 2));
  std::thread producer([&] {
    EXPECT_FALSE(ch.lane_push(lane, 3));  // parked full, released by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  producer.join();
}

}  // namespace
}  // namespace lar::runtime
