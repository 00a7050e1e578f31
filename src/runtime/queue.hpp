// Hybrid channel used for both data and control messages.
//
// One channel per operator instance (POI).  The *data* hot path runs on
// per-producer SPSC ring lanes: each registered producer (an upstream POI,
// the injector) owns one fixed-capacity ring and publishes batches of items
// by a single atomic tail store; the owning consumer thread round-robin
// drains lanes without ever taking a lock.  Control messages ride either on
// a per-lane control queue stamped with the lane position they must not
// overtake (push_unbounded_after — exact per-producer FIFO of
// control-behind-data), or on the legacy mutex-guarded shared queue
// (push / push_unbounded / try_push) for producers without a lane: the
// manager, sibling POIs migrating state, a POI messaging itself.
//
// Ordering contract (what the reconfiguration wave / chaos dedup / ckpt
// barriers rely on, see CLAUDE.md):
//   * per lane, data items are consumed in push order;
//   * a control message pushed via push_unbounded_after(lane) is consumed
//     after every data item published on that lane before it and before any
//     data item published after it (the stamped watermark);
//   * the shared queue is FIFO in itself and the consumer serves it *first*
//     whenever it is non-empty — a driver-pushed control message (e.g. a
//     checkpoint commit) is never overtaken by a later lane-side control
//     message (e.g. the next epoch's barrier);
//   * ordering across different producers' lanes is unspecified, exactly as
//     the old global FIFO never promised more than some interleaving.
//
// Consumer side: every pop takes a *run* — the front shared message, one
// due lane control message, or up to lane_batch consecutive data items from
// one lane, stopping at that lane's control mark.  A run costs one gate hold,
// one `head` store and one parked-producer check however long it is; the
// engine processes the whole run before it pops again, so control is still
// served between runs (held back by at most one run of data).
//
// Memory ordering: the lock-free hand-off uses seq_cst on the four
// cross-thread atomics (tail, head, ctrl_mark, the sleep flags).  The two
// Dekker-style pairs — publish-then-check-consumer-waiting vs
// arm-waiting-then-scan, and head-store-then-check-producer-waiting vs
// register-then-recheck — plus lock-then-notify on the shared mutex are what
// make blocking wake-ups race-free; the consumer additionally loads tail
// *before* ctrl_mark so a published post-control suffix can never be seen
// without the control mark that precedes it.  A producer re-reads `head`
// only when the ring looks full against the last value it saw.  Exactly one
// publisher wakes a parked consumer: the one whose exchange clears
// `consumer_waiting_`.  Because a waker can clear the flag armed for a later
// park (it read the flag, then was descheduled), the consumer re-arms it and
// rescans before *every* sleep — a predicate wait that loops back to sleep
// without re-arming would miss every later publish.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace lar::runtime {

/// Bounded blocking FIFO.  push()/lane_push() block while full (back
/// pressure); pop() blocks while empty.  close() wakes everyone; pushes on a
/// closed channel are ignored, pop() drains remaining items then returns
/// nullopt.  Single consumer; one registered producer thread per lane; any
/// number of unregistered producers on the shared queue.
template <typename T>
class Channel {
 public:
  /// Guard evaluated on every *bounded* push (push / try_push / lane_push).
  /// Control messages must travel unbounded — a bounded control push can
  /// deadlock the reconfiguration wave against data back pressure (see
  /// CLAUDE.md) — so the engine installs validators that reject them; a
  /// rejected push is a bug and aborts via LAR_CHECK.  A plain function
  /// pointer keeps the disabled cost at one predictable branch.
  using PushValidator = bool (*)(const T&);

  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    LAR_CHECK(capacity >= 1);
  }

  /// Installs `v` (nullptr = no checking).  Call before producers start.
  void set_push_validator(PushValidator v) { validator_ = v; }

  // --- lane registration (call before producers start) ----------------------

  /// Adds one SPSC ring lane of at least `capacity` slots (rounded up to a
  /// power of two) and returns its id.  The lane's push side belongs to
  /// exactly one producer thread (or one externally-serialized domain, like
  /// the injector under the engine's source mutex).
  std::uint32_t add_lane(std::size_t capacity) {
    std::lock_guard lock(mutex_);
    lanes_.emplace_back(std::bit_ceil(std::max<std::size_t>(capacity, 2)));
    const auto id = static_cast<std::uint32_t>(lanes_.size() - 1);
    num_lanes_.store(lanes_.size(), std::memory_order_release);
    return id;
  }

  /// Items per lane publication, and the longest data run pop_run() takes
  /// from one lane.  1 (the default) publishes every push and pops one item
  /// at a time — byte-for-byte the unbatched hand-off; larger values defer
  /// the tail store so a burst of emissions costs one atomic per `batch`,
  /// and let one pop move up to `batch` items.  Staged items become visible
  /// at the next auto-publish, lane_flush(), or push_unbounded_after().
  /// Call before producers start.
  void set_lane_batch(std::size_t batch) {
    LAR_CHECK(batch >= 1);
    batch_ = batch;
  }

  [[nodiscard]] std::size_t num_lanes() const {
    return num_lanes_.load(std::memory_order_acquire);
  }

  // --- producer side ---------------------------------------------------------

  /// Blocking bounded push on `lane`; returns false iff the channel is
  /// closed.  Producer-thread only.
  bool lane_push(std::uint32_t lane_id, T item) {
    LAR_CHECK(validator_ == nullptr || validator_(item));
    Lane& lane = lanes_[lane_id];
    if (closed_.load(std::memory_order_relaxed)) return false;
    // The cached head is a lower bound of the consumer's: only a ring that
    // looks full against it costs a reload of the consumer's cache line.
    while (lane.staged - lane.head_seen >= lane.ring.size()) {
      lane.head_seen = lane.head.load(std::memory_order_seq_cst);
      if (lane.staged - lane.head_seen < lane.ring.size()) break;
      // Ring full: publish what we have so the consumer can make progress,
      // then park on the shared condvar until it frees a slot.
      publish(lane);
      const std::uint64_t head = lane.head_seen;
      std::unique_lock lock(mutex_);
      waiting_producers_.fetch_add(1, std::memory_order_seq_cst);
      not_full_.wait(lock, [&] {
        return closed_ ||
               lane.head.load(std::memory_order_seq_cst) != head;
      });
      waiting_producers_.fetch_sub(1, std::memory_order_relaxed);
      if (closed_) return false;
    }
    lane.ring[lane.staged & lane.mask] = std::move(item);
    ++lane.staged;
    if (lane.staged - lane.tail.load(std::memory_order_relaxed) >= batch_) {
      publish(lane);
    }
    return true;
  }

  /// Publishes any staged items on `lane`.  Producer-thread only.
  void lane_flush(std::uint32_t lane_id) { publish(lanes_[lane_id]); }

  /// Control push FIFO-after `lane`'s data: publishes the lane, then
  /// enqueues `item` stamped with the published position — the consumer
  /// serves it after every data item before that mark and before any item
  /// after it.  Ignores the capacity bound (control must never block behind
  /// data back pressure).  Producer-thread only.  Returns false iff closed.
  bool push_unbounded_after(std::uint32_t lane_id, T item) {
    Lane& lane = lanes_[lane_id];
    publish(lane);
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      const std::uint64_t mark = lane.tail.load(std::memory_order_relaxed);
      lane.ctrl.emplace_back(std::move(item), mark);
      if (lane.ctrl.size() == 1) {
        lane.ctrl_mark.store(mark, std::memory_order_seq_cst);
      }
      slow_count_.fetch_add(1, std::memory_order_seq_cst);
      note_hwm();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Discards `lane`'s staged-but-unpublished items and returns how many
  /// there were.  Crash recovery only: call after the lane's producer thread
  /// has been joined — the consumer never reads past the published tail, so
  /// this is safe against a live (or respawning) consumer.
  std::size_t lane_abort_staged(std::uint32_t lane_id) {
    Lane& lane = lanes_[lane_id];
    const std::uint64_t tail = lane.tail.load(std::memory_order_relaxed);
    const auto n = static_cast<std::size_t>(lane.staged - tail);
    for (std::uint64_t i = tail; i < lane.staged; ++i) {
      lane.ring[i & lane.mask] = T{};
    }
    lane.staged = tail;
    return n;
  }

  // --- legacy shared-queue API (unregistered producers) ----------------------

  /// Blocking bounded push; returns false iff the channel is closed.
  bool push(T item) {
    LAR_CHECK(validator_ == nullptr || validator_(item));
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || shared_.size() < capacity_; });
    if (closed_) return false;
    shared_.push_back(std::move(item));
    slow_count_.fetch_add(1, std::memory_order_seq_cst);
    note_hwm();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Push that ignores the capacity bound (still FIFO with bounded pushes
  /// from the same producer on this queue).  Used for control messages: the
  /// reconfiguration wave must never block behind data back pressure, or a
  /// full queue could deadlock two sibling instances migrating state to
  /// each other.  Returns false iff closed.
  bool push_unbounded(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      shared_.push_back(std::move(item));
      slow_count_.fetch_add(1, std::memory_order_seq_cst);
      note_hwm();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false if full or closed.
  bool try_push(T item) {
    LAR_CHECK(validator_ == nullptr || validator_(item));
    {
      std::lock_guard lock(mutex_);
      if (closed_ || shared_.size() >= capacity_) return false;
      shared_.push_back(std::move(item));
      slow_count_.fetch_add(1, std::memory_order_seq_cst);
      note_hwm();
    }
    not_empty_.notify_one();
    return true;
  }

  // --- consumer side ---------------------------------------------------------

  /// Blocking pop of one run, appended to `out`: the front shared message,
  /// one due lane control message, or up to lane_batch consecutive data
  /// items from one lane (never past its control mark).  Returns false once
  /// closed *and* drained.
  bool pop_run(std::vector<T>& out) {
    return pop_impl(/*block=*/true, batch_,
                    [&out](T&& item) { out.push_back(std::move(item)); });
  }

  /// Non-blocking pop_run(); false when nothing is currently consumable.
  bool try_pop_run(std::vector<T>& out) {
    return pop_impl(/*block=*/false, batch_,
                    [&out](T&& item) { out.push_back(std::move(item)); });
  }

  /// Blocking pop of a single item (a run capped at one); returns nullopt
  /// once closed *and* drained.
  std::optional<T> pop() {
    std::optional<T> item;
    pop_impl(/*block=*/true, 1, [&item](T&& x) { item.emplace(std::move(x)); });
    return item;
  }

  /// Non-blocking pop(); nullopt when nothing is currently consumable.
  std::optional<T> try_pop() {
    std::optional<T> item;
    pop_impl(/*block=*/false, 1,
             [&item](T&& x) { item.emplace(std::move(x)); });
    return item;
  }

  /// Closes the channel: producers fail fast, the consumer drains then ends.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Published items currently queued (lanes + control + shared).  Lock-free
  /// relaxed sums — exact when quiescent, a racy-but-safe estimate while
  /// producers run; never stalls the data plane (the obs publish path calls
  /// this from outside the consumer thread).
  [[nodiscard]] std::size_t size() const {
    std::size_t total = slow_count_.load(std::memory_order_relaxed);
    const std::size_t n = num_lanes_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      // head first: the consumer only advances head past values it saw
      // published, so a tail read *after* an acquire-read of head can never
      // lag behind it (clamp anyway against torn interleavings).
      const std::uint64_t h = lanes_[i].head.load(std::memory_order_acquire);
      const std::uint64_t t = lanes_[i].tail.load(std::memory_order_relaxed);
      if (t > h) total += static_cast<std::size_t>(t - h);
    }
    return total;
  }

  /// Atomically removes and returns everything currently published (lane
  /// data and control merged in per-lane FIFO order, then the shared queue).
  /// Crash recovery only (lar::ckpt): the consumer gate makes this safe
  /// against a victim thread still popping; producers may keep pushing
  /// concurrently — anything published after the drain is simply seen by the
  /// respawned consumer.  Staged-unpublished lane items are NOT drained; the
  /// driver reaps those via lane_abort_staged() after the producer joins.
  [[nodiscard]] std::deque<T> drain() {
    std::deque<T> out;
    {
      std::unique_lock lock(mutex_);
      GateGuard gate(*this);
      const std::size_t n = num_lanes_.load(std::memory_order_acquire);
      std::size_t slow_removed = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Lane& lane = lanes_[i];
        std::uint64_t h = lane.head.load(std::memory_order_seq_cst);
        const std::uint64_t t = lane.tail.load(std::memory_order_seq_cst);
        while (!lane.ctrl.empty()) {
          auto& [item, mark] = lane.ctrl.front();
          for (; h < mark; ++h) {
            out.push_back(std::move(lane.ring[h & lane.mask]));
          }
          out.push_back(std::move(item));
          lane.ctrl.pop_front();
          ++slow_removed;
        }
        for (; h < t; ++h) out.push_back(std::move(lane.ring[h & lane.mask]));
        lane.head.store(t, std::memory_order_seq_cst);
        lane.ctrl_mark.store(kNoCtrl, std::memory_order_seq_cst);
      }
      slow_removed += shared_.size();
      for (T& item : shared_) out.push_back(std::move(item));
      shared_.clear();
      if (slow_removed != 0) {
        slow_count_.fetch_sub(slow_removed, std::memory_order_seq_cst);
      }
    }
    not_full_.notify_all();
    return out;
  }

  /// Deepest the channel has ever been (items, including unbounded control
  /// messages), sampled at publish/push points.  A back-pressure indicator
  /// for the observability layer; scheduling-dependent, so exports that must
  /// be byte-stable filter it.  Lock-light: a relaxed ratcheted atomic.
  [[nodiscard]] std::size_t high_water_mark() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// How often the consumer woke parked producers — at most once per popped
  /// run.  A relaxed diagnostic, bumped on the wake path only.
  [[nodiscard]] std::uint64_t producer_wakes() const {
    return producer_wakes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kNoCtrl = ~std::uint64_t{0};

  struct Lane {
    explicit Lane(std::size_t capacity)
        : ring(capacity), mask(capacity - 1) {}

    std::vector<T> ring;
    const std::uint64_t mask;

    /// Next unstaged ring position; producer thread only (the recovery
    /// driver may touch it via lane_abort_staged after joining the thread).
    std::uint64_t staged = 0;
    /// The consumer's head as this lane's producer last read it; reloaded
    /// only when the ring looks full against it.  Producer thread only.
    std::uint64_t head_seen = 0;

    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< published
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< consumed

    /// Control messages FIFO-after this lane's data, each stamped with the
    /// published position it must not overtake.  Guarded by the channel
    /// mutex; ctrl_mark mirrors the front entry's stamp (kNoCtrl when
    /// empty) so the lock-free consumer never reads data past a pending
    /// control message.
    std::deque<std::pair<T, std::uint64_t>> ctrl;
    alignas(64) std::atomic<std::uint64_t> ctrl_mark{kNoCtrl};
  };

  /// Spinlock serializing "consumer" roles: the owning thread's pop against
  /// the recovery driver's drain().  Never held while sleeping or while
  /// acquiring mutex_ (lock order: mutex_ first, gate innermost).
  struct GateGuard {
    explicit GateGuard(const Channel& ch) : ch_(ch) {
      while (ch_.gate_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~GateGuard() { ch_.gate_.clear(std::memory_order_release); }
    GateGuard(const GateGuard&) = delete;
    GateGuard& operator=(const GateGuard&) = delete;
    const Channel& ch_;
  };

  void publish(Lane& lane) {  // producer thread only
    if (lane.staged == lane.tail.load(std::memory_order_relaxed)) return;
    lane.tail.store(lane.staged, std::memory_order_seq_cst);
    note_hwm();
    // One wake per park: of all publishers that see the consumer parked,
    // only the one whose exchange clears the flag notifies.  The plain load
    // first keeps the common no-sleeper case free of a read-modify-write.
    if (consumer_waiting_.load(std::memory_order_seq_cst) &&
        consumer_waiting_.exchange(false, std::memory_order_seq_cst)) {
      // Lock-then-notify: the consumer rescans under mutex_ after arming
      // the flag, so touching the mutex here closes the gap between that
      // rescan and the actual sleep.
      { std::lock_guard lock(mutex_); }
      not_empty_.notify_one();
    }
  }

  /// One run pop.  `sink` receives each taken item under the gate, in
  /// order.  The lock-free scan serves lane data whenever no control or
  /// shared message is pending; otherwise the locked scan serves, in order,
  /// the shared queue, a due lane control message, lane data.  Blocking pops
  /// park on not_empty_ in an explicit loop that re-arms consumer_waiting_
  /// and rescans before every sleep (see the header comment).
  template <typename Sink>
  bool pop_impl(bool block, std::size_t limit, Sink&& sink) {
    bool wake = false;
    if (slow_count_.load(std::memory_order_seq_cst) == 0) {
      bool got = false;
      {
        GateGuard gate(*this);
        got = take_lane_data(limit, sink, wake);
      }
      if (got) {
        if (wake) wake_producers();
        return true;
      }
    }
    std::unique_lock lock(mutex_);
    bool armed = false;
    for (;;) {
      bool got = false;
      {
        GateGuard gate(*this);
        got = take_any_locked(limit, sink, wake);
      }
      if (got) {
        if (armed) consumer_waiting_.store(false, std::memory_order_relaxed);
        lock.unlock();
        // We held the mutex after the head store, so a producer mid-wait
        // cannot miss this notification (lock-then-notify).
        if (wake) notify_producers();
        return true;
      }
      if (closed_ || !block) {
        if (armed) consumer_waiting_.store(false, std::memory_order_relaxed);
        return false;
      }
      if (!armed) {
        // Arm, then rescan: a publish that missed the flag is visible to the
        // rescan (Dekker pair with publish()).
        consumer_waiting_.store(true, std::memory_order_seq_cst);
        armed = true;
        continue;
      }
      not_empty_.wait(lock);
      // Woken or spurious: the waker may have cleared the flag, so the next
      // sleep must re-arm it first.
      armed = false;
    }
  }

  void wake_producers() {
    { std::lock_guard lock(mutex_); }
    notify_producers();
  }

  void notify_producers() {
    producer_wakes_.fetch_add(1, std::memory_order_relaxed);
    not_full_.notify_all();
  }

  /// Moves lane data [h, end) — at most `limit` items — to `sink` and
  /// advances head once.  Gate held.
  template <typename Sink>
  void take_run(Lane& lane, std::uint64_t h, std::uint64_t end,
                std::size_t limit, Sink& sink, bool& wake) {
    const std::uint64_t stop = std::min<std::uint64_t>(end, h + limit);
    for (std::uint64_t i = h; i < stop; ++i) {
      sink(std::move(lane.ring[i & lane.mask]));
    }
    lane.head.store(stop, std::memory_order_seq_cst);
    wake = waiting_producers_.load(std::memory_order_seq_cst) != 0;
  }

  /// Round-robin scan for consumable lane *data* (below each lane's pending
  /// control mark).  Gate held; no mutex.
  template <typename Sink>
  bool take_lane_data(std::size_t limit, Sink& sink, bool& wake) {
    const std::size_t n = num_lanes_.load(std::memory_order_acquire);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = cursor_ + k < n ? cursor_ + k : cursor_ + k - n;
      Lane& lane = lanes_[i];
      const std::uint64_t h = lane.head.load(std::memory_order_relaxed);
      // tail before ctrl_mark: the producer stores the mark before any
      // post-control publish, so seeing the suffix implies seeing the mark.
      const std::uint64_t t = lane.tail.load(std::memory_order_seq_cst);
      if (h >= t) continue;
      const std::uint64_t end =
          std::min(t, lane.ctrl_mark.load(std::memory_order_seq_cst));
      if (h >= end) continue;
      take_run(lane, h, end, limit, sink, wake);
      cursor_ = i + 1 < n ? i + 1 : 0;
      return true;
    }
    return false;
  }

  /// Full scan under mutex_ + gate: shared queue first (driver-side control
  /// keeps its old FIFO edge over later lane-side control), then per lane a
  /// ready control message or a data run below the pending mark.
  template <typename Sink>
  bool take_any_locked(std::size_t limit, Sink& sink, bool& wake) {
    if (!shared_.empty()) {
      sink(std::move(shared_.front()));
      shared_.pop_front();
      slow_count_.fetch_sub(1, std::memory_order_seq_cst);
      wake = true;  // shared pops free bounded-push capacity
      return true;
    }
    const std::size_t n = num_lanes_.load(std::memory_order_acquire);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = cursor_ + k < n ? cursor_ + k : cursor_ + k - n;
      Lane& lane = lanes_[i];
      const std::uint64_t h = lane.head.load(std::memory_order_relaxed);
      if (!lane.ctrl.empty() && lane.ctrl.front().second <= h) {
        sink(std::move(lane.ctrl.front().first));
        lane.ctrl.pop_front();
        lane.ctrl_mark.store(
            lane.ctrl.empty() ? kNoCtrl : lane.ctrl.front().second,
            std::memory_order_seq_cst);
        slow_count_.fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
      const std::uint64_t mark =
          lane.ctrl.empty() ? kNoCtrl : lane.ctrl.front().second;
      const std::uint64_t end =
          std::min(lane.tail.load(std::memory_order_seq_cst), mark);
      if (h < end) {
        take_run(lane, h, end, limit, sink, wake);
        cursor_ = i + 1 < n ? i + 1 : 0;
        return true;
      }
    }
    return false;
  }

  void note_hwm() {
    const std::size_t s = size();
    std::size_t cur = high_water_.load(std::memory_order_relaxed);
    while (s > cur && !high_water_.compare_exchange_weak(
                          cur, s, std::memory_order_relaxed)) {
    }
  }

  PushValidator validator_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;

  // Lanes live in a deque so references stay stable across add_lane; the
  // consumer snapshots num_lanes_ (release/acquire pairs with emplace).
  std::deque<Lane> lanes_;
  std::atomic<std::size_t> num_lanes_{0};
  std::size_t batch_ = 1;
  std::size_t cursor_ = 0;  ///< lane round-robin position (consumer side)

  std::deque<T> shared_;    ///< legacy queue, guarded by mutex_
  std::size_t capacity_;    ///< bound for shared-queue push/try_push

  /// Pending control + shared items; the consumer takes its lock-free scan
  /// whenever this is zero.
  std::atomic<std::size_t> slow_count_{0};

  // The gate is written on every pop; its own cache line keeps those
  // writes off the flags every publish reads.
  alignas(64) mutable std::atomic_flag gate_ = ATOMIC_FLAG_INIT;
  alignas(64) std::atomic<bool> consumer_waiting_{false};
  std::atomic<std::size_t> waiting_producers_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> producer_wakes_{0};
};

}  // namespace lar::runtime
