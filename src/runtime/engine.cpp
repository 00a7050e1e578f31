#include "runtime/engine.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/flat_map.hpp"
#include "common/logging.hpp"
#include "runtime/codec.hpp"

namespace lar::runtime {

namespace {

/// Stable chaos entity for a producer->consumer channel link (flat POI
/// indices), shared by the sender's duplicate decision and the receiver's
/// delay decision.
[[nodiscard]] std::uint64_t link_entity(std::uint32_t from,
                                        std::size_t to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

[[nodiscard]] std::string link_entity_str(std::uint32_t from, std::size_t to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

/// Single-writer increment: only the counter's owning thread writes it, so
/// a load and a store replace the locked read-modify-write.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n,
          std::memory_order order = std::memory_order_relaxed) {
  counter.store(counter.load(std::memory_order_relaxed) + n, order);
}

/// Slot of producer link `link` in a POI's last_seq: a producer POI's flat
/// index, or for the injector (BarrierMsg::kCoordinator) the slot past the
/// last POI, so ascending slots keep the links' ascending order.
[[nodiscard]] std::size_t link_slot(std::uint64_t link,
                                    std::size_t num_pois) noexcept {
  return link == BarrierMsg::kCoordinator ? num_pois : link;
}

}  // namespace

// ---------------------------------------------------------------------------
// Poi: one deployed operator instance.
// ---------------------------------------------------------------------------

struct Engine::Poi {
  Poi(OperatorId op_id, InstanceIndex idx, ServerId srv)
      : op(op_id), index(idx), server(srv) {}

  const OperatorId op;
  const InstanceIndex index;
  const ServerId server;
  std::size_t flat = 0;  ///< index into Engine::pois_ (chaos entity id)

  std::unique_ptr<Operator> logic;
  Channel<Message> inbox;
  std::thread thread;

  /// Live in the current epoch (lar::elastic).  Touched only by the driver
  /// thread; dormant/retired POIs have no running thread.
  bool active = true;

  // Parallel to topology.out_edges(op):
  std::vector<Router> routers;
  std::vector<std::optional<core::PairStats>> pair_stats;

  // --- data-plane fast path (DESIGN.md §13), wired at construction ---------
  // This POI owns one SPSC lane into every channel it can send to; the lane
  // is the producer-side half of the pair, so only this POI's thread may
  // push on it.
  struct OutLane {
    Poi* target = nullptr;
    std::uint32_t lane = 0;
  };
  std::vector<std::vector<OutLane>> out_lanes;  ///< [out_pos][dst instance]
  std::vector<OutLane> flush_lanes;  ///< deduplicated; flushed before idling
  FlatMap<std::uint64_t, std::uint32_t> lane_to;  ///< target flat -> lane id

  /// Bounded free-list of recycled tuple field buffers.  Owned end to end by
  /// this POI's thread: buffers are acquired whenever this POI needs a copy
  /// of an emission (emit(const Tuple&), a non-final local edge, a decoded
  /// remote hop) and released once a delivered tuple has been fully
  /// processed.  Buffers travel with the tuples they carry, so a same-server
  /// chain refills each receiver's arena from its sender's.
  std::vector<std::vector<Key>> arena;
  static constexpr std::size_t kArenaCap = 256;

  [[nodiscard]] std::vector<Key> arena_acquire() {
    if (arena.empty()) return {};
    std::vector<Key> buf = std::move(arena.back());
    arena.pop_back();
    buf.clear();
    return buf;
  }

  void arena_release(std::vector<Key>&& buf) {
    if (buf.capacity() == 0 || arena.size() >= kArenaCap) return;
    arena.push_back(std::move(buf));
  }

  /// The run being processed (poi_loop) and the wire buffer remote hops
  /// encode into; both keep their capacity, so neither allocates per hop.
  std::vector<Message> run;
  std::vector<std::byte> wire;

  // --- per-POI counters: written only by this POI's thread, with plain
  // load + store (see bump), on cache lines no other POI thread writes. -----
  /// Quiescence (DESIGN.md §13): data tuples this POI pushed, counted before
  /// the push can publish them, and data tuples it finished — processed or
  /// dropped as a duplicate — counted once fully processed.
  alignas(64) std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> processed{0};

  /// Traffic this POI sent per out edge ([out_pos]); one line per edge.
  struct alignas(64) EdgeTraffic {
    std::atomic<std::uint64_t> local{0};
    std::atomic<std::uint64_t> remote{0};
    std::atomic<std::uint64_t> remote_bytes{0};
  };
  std::vector<EdgeTraffic> traffic;

  // --- reconfiguration state, touched only by the POI thread --------------
  std::optional<ReconfMsg> staged;
  std::uint32_t propagate_seen = 0;
  std::uint32_t propagate_expected = 0;
  bool actions_done = true;  ///< propagate wave handled (tables installed)
  /// State not here yet: key -> the senders still owing a MIGRATE.  A
  /// lar::split degree decrease lists several senders per key; the key stays
  /// buffered until every replica's partial has arrived and merged.
  std::unordered_map<Key, std::vector<InstanceIndex>> awaiting;
  std::unordered_map<Key, std::vector<DataMsg>> pending;  ///< buffered tuples

  // --- chaos state ---------------------------------------------------------
  // out_seq is written by this POI's thread when sending; the rest only by
  // this POI's thread when receiving.  All empty/idle without an injector
  // or a checkpoint coordinator; the sequence cursors are then dense.
  /// A producer link's dedup cursor.  `seen` keeps a link whose cursor is
  /// still 0 (a replay that held nothing) in snapshots.
  struct LinkCursor {
    std::uint64_t seq = 0;
    bool seen = false;
  };
  std::vector<std::uint64_t> out_seq;  ///< [target flat] last seq, 0 = none
  std::vector<LinkCursor> last_seq;    ///< [link_slot(producer)]
  /// A chaos-held link suffix (FIFO within the link) and the inbox drain
  /// mark recorded when it opened: it is delivered once the POI has popped
  /// everything published before that point, or earlier on any control.
  struct DelayStash {
    std::vector<DataMsg> held;
    std::vector<std::uint64_t> mark;
  };
  std::unordered_map<std::uint32_t, DelayStash> delayed;  ///< by producer flat

  std::size_t pending_count = 0;  ///< in-memory buffered tuples (cap basis)
  std::unordered_map<Key, std::vector<std::vector<std::byte>>>
      spilled;  ///< serialized overflow tuples, drained after `pending`

  // --- lar::ckpt state, touched only by the POI thread (the recovery
  // driver touches it only between join and respawn).  All empty/idle
  // without a checkpoint coordinator. ---------------------------------------
  std::uint64_t applied_version = 0;  ///< last reconfiguration applied here
  std::uint64_t ckpt_epoch = 0;       ///< epoch currently aligning (0 = idle)

  /// Incremental checkpointing (durable stores only).  delta_capable is
  /// fixed at construction: true iff every in-edge is fields-grouped, so the
  /// operator's state keys coincide with the routing keys the engine sees
  /// (the migration contract) and a dirty-key set fully covers its state
  /// churn.  Sources and shuffle-fed POIs always snapshot full slices.
  /// `dirty` holds the keys touched since this POI's previous snapshot;
  /// cleared at every snapshot and on crash restore (the pre-crash set is
  /// scheduling-dependent — replay re-marks exactly the post-cut effects).
  bool delta_capable = false;
  std::unordered_set<Key> dirty;
  std::uint32_t barriers_seen = 0;
  std::uint32_t barriers_expected = 0;
  std::shared_ptr<const std::vector<std::vector<InstanceIndex>>>
      barrier_members;
  std::unordered_set<std::uint32_t> blocked_links;  ///< barrier already in
  std::unordered_map<std::uint32_t, std::vector<DataMsg>>
      align_stash;  ///< post-barrier suffix held per blocked link (FIFO)
  /// [target flat] sends since the last committed epoch.
  std::vector<std::vector<DataMsg>> replay_out;
  /// [target flat] out cursors at the last snapshot (commit truncation),
  /// and that snapshot's epoch (0 = none since the last restore).
  std::vector<std::uint64_t> snap_out;
  std::uint64_t snap_epoch = 0;
  std::unordered_set<std::uint32_t> replay_pending;  ///< links mid-replay
  std::unordered_map<std::uint32_t, std::vector<DataMsg>>
      replay_stash;  ///< everything held on a pending link until ReplayEnd

  /// Set by the POI thread as it exits on a crash sentinel.  The recovery
  /// driver spins on it while sweeping victim inboxes, so a victim parked on
  /// a bounded push into another victim's full inbox can run to its death
  /// instead of deadlocking the join.
  std::atomic<bool> crash_exited{false};
};

// ---------------------------------------------------------------------------
// Construction / lifecycle.
// ---------------------------------------------------------------------------

Engine::Engine(const Topology& topology, const Placement& placement,
               OperatorFactory factory, EngineOptions options)
    : topology_(topology),
      placement_(placement),
      options_(options),
      factory_(std::move(factory)) {
  LAR_CHECK(topology.validate().is_ok());
  LAR_CHECK(factory_ != nullptr);

  anchors_ = compute_stats_anchors(topology);
  sources_ = topology.sources();

  // Elastic restricted start: only the server prefix [0, active_servers)
  // is live; fields edges begin on fallback-domain tables so unknown keys
  // hash over the active instance set, never onto a dormant server.
  active_servers_ = options_.active_servers == 0 ? placement.num_servers()
                                                 : options_.active_servers;
  LAR_CHECK(active_servers_ >= 1 &&
            active_servers_ <= placement.num_servers());
  const bool restricted = active_servers_ < placement.num_servers();
  elastic_ = restricted;
  if (restricted) require_elastic_capable();
  std::unordered_map<OperatorId, std::shared_ptr<const RoutingTable>>
      initial_tables;
  if (restricted) {
    for (const auto& edge : topology.edges()) {
      if (edge.grouping != GroupingType::kFields) continue;
      auto [it, inserted] = initial_tables.try_emplace(edge.to);
      if (!inserted) continue;
      auto table = std::make_shared<RoutingTable>();
      table->set_fallback(
          placement.active_instances(edge.to, active_servers_));
      it->second = std::move(table);
    }
  }

  poi_index_.resize(topology.num_operators());
  for (OperatorId op = 0; op < topology.num_operators(); ++op) {
    const std::uint32_t parallelism = topology.op(op).parallelism;
    poi_index_[op].resize(parallelism);
    for (InstanceIndex i = 0; i < parallelism; ++i) {
      poi_index_[op][i] = pois_.size();
      pois_.push_back(
          std::make_unique<Poi>(op, i, placement.server_of(op, i)));
      Poi& poi = *pois_.back();
      poi.flat = poi_index_[op][i];
      // Only the data plane may use the bounded (back-pressuring) lane_push;
      // every control message takes push_unbounded or push_unbounded_after
      // (CLAUDE.md invariant).
      poi.inbox.set_push_validator(
          [](const Message& m) { return std::holds_alternative<DataMsg>(m); });
      poi.logic = factory_(op, i);
      LAR_CHECK(poi.logic != nullptr);

      const auto& out = topology.out_edges(op);
      poi.routers.reserve(out.size());
      poi.pair_stats.reserve(out.size());
      poi.traffic = std::vector<Poi::EdgeTraffic>(out.size());
      for (const std::uint32_t eid : out) {
        const EdgeSpec& edge = topology.edges()[eid];
        std::shared_ptr<const RoutingTable> initial;
        if (auto t = initial_tables.find(edge.to); t != initial_tables.end() &&
                                                   edge.grouping ==
                                                       GroupingType::kFields) {
          initial = t->second;
        }
        poi.routers.push_back(make_router(
            edge, eid, topology, placement, poi.server, options_.fields_mode,
            std::move(initial), options_.seed * 7919 + eid * 131 + i));
        if (restricted && edge.grouping == GroupingType::kShuffle) {
          poi.routers.back().set_active_instances(
              placement.active_instances(edge.to, active_servers_));
        }
        if (edge.grouping == GroupingType::kFields &&
            anchors_[edge.from].has_value()) {
          poi.pair_stats.emplace_back(
              std::in_place, options_.pair_stats_capacity);
        } else {
          poi.pair_stats.emplace_back(std::nullopt);
        }
      }

      std::uint32_t expected = 0;
      for (const std::uint32_t eid : topology.in_edges(op)) {
        expected += topology.op(topology.edges()[eid].from).parallelism;
      }
      poi.propagate_expected = topology.op(op).is_source ? 1 : expected;
      poi.active = poi.server < active_servers_;
    }
  }
  // Second pass: wire the data-plane fast path.  Every producer of a
  // channel — each upstream POI instance, plus the injector for sources —
  // registers its own SPSC ring lane, sized so the per-channel total stays
  // near queue_capacity.  Dormant instances are wired too: lanes are cheap
  // and registration must finish before any producer thread starts, so an
  // elastic resize never adds lanes mid-stream.
  LAR_CHECK(options_.lane_batch >= 1);
  std::vector<std::uint32_t> producers(topology.num_operators(), 0);
  for (const EdgeSpec& edge : topology.edges()) {
    producers[edge.to] += topology.op(edge.from).parallelism;
  }
  for (OperatorId op = 0; op < topology.num_operators(); ++op) {
    if (topology.op(op).is_source) ++producers[op];  // the injector
  }
  const auto lane_cap = [&](OperatorId op) {
    return std::max<std::size_t>(
        64,
        options_.queue_capacity / std::max<std::uint32_t>(producers[op], 1));
  };
  for (auto& poi_ptr : pois_) {
    Poi& poi = *poi_ptr;
    const auto& out = topology.out_edges(poi.op);
    poi.out_lanes.resize(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      const EdgeSpec& edge = topology.edges()[out[k]];
      const std::uint32_t parallelism = topology.op(edge.to).parallelism;
      poi.out_lanes[k].resize(parallelism);
      for (InstanceIndex i = 0; i < parallelism; ++i) {
        Poi& target = poi_at(edge.to, i);
        const auto flat = static_cast<std::uint64_t>(target.flat);
        std::uint32_t lane = 0;
        if (const std::uint32_t* found = poi.lane_to.find(flat)) {
          lane = *found;  // a second edge into the same channel shares it
        } else {
          lane = target.inbox.add_lane(lane_cap(edge.to));
          poi.lane_to[flat] = lane;
          poi.flush_lanes.push_back(Poi::OutLane{&target, lane});
        }
        poi.out_lanes[k][i] = Poi::OutLane{&target, lane};
      }
    }
  }
  inject_lane_.assign(pois_.size(), 0);
  for (const OperatorId src : sources_) {
    for (const std::size_t flat : poi_index_[src]) {
      inject_lane_[flat] = pois_[flat]->inbox.add_lane(lane_cap(src));
    }
  }
  for (auto& poi : pois_) poi->inbox.set_lane_batch(options_.lane_batch);

  set_inject_actives(active_servers_);

  ckpt_enabled_ = options_.checkpoint != nullptr;
  if (options_.injector != nullptr || ckpt_enabled_) {
    for (auto& poi : pois_) {
      poi->out_seq.assign(pois_.size(), 0);
      poi->last_seq.assign(pois_.size() + 1, {});
      if (ckpt_enabled_) {
        poi->replay_out.resize(pois_.size());
        poi->snap_out.assign(pois_.size(), 0);
      }
    }
  }
  if (ckpt_enabled_) {
    inject_out_seq_.assign(pois_.size(), 0);
    inject_replay_.resize(pois_.size());
    for (const OperatorId src : sources_) {
      for (const std::size_t flat : poi_index_[src]) {
        source_flats_.push_back(static_cast<std::uint32_t>(flat));
      }
    }
    std::sort(source_flats_.begin(), source_flats_.end());
    ckpt_delta_enabled_ = options_.checkpoint->store().incremental();
    if (ckpt_delta_enabled_) {
      for (auto& poi : pois_) {
        bool capable = !topology.op(poi->op).is_source;
        for (const std::uint32_t eid : topology.in_edges(poi->op)) {
          if (topology.edges()[eid].grouping != GroupingType::kFields) {
            capable = false;
          }
        }
        poi->delta_capable = capable;
      }
    }
  }

  // lar::fleet: the engine must be deployed over the fleet's own combined
  // topology/placement — tenant operator-id ranges and source positions are
  // only meaningful against them.
  fleet_ = options_.fleet;
  if (fleet_ != nullptr) {
    LAR_CHECK(&topology_ == &fleet_->combined_topology());
    LAR_CHECK(&placement_ == &fleet_->combined_placement());
    app_source_pos_.resize(fleet_->num_apps());
    for (std::size_t pos = 0; pos < sources_.size(); ++pos) {
      app_source_pos_[fleet_->app_of(sources_[pos])].push_back(pos);
    }
    app_inject_seq_.assign(fleet_->num_apps(), 0);
    app_tuples_injected_.assign(fleet_->num_apps(), 0);
  }
}

Engine::~Engine() { shutdown(); }

void Engine::start() {
  LAR_CHECK(!started_);
  if (ckpt_enabled_) restore_from_store();
  started_ = true;
  for (auto& poi : pois_) {
    if (!poi->active) continue;  // dormant until add_servers() reaches it
    poi->thread = std::thread([this, p = poi.get()] { poi_loop(*p); });
  }
}

void Engine::restore_from_store() {
  ckpt::CheckpointStore& store = options_.checkpoint->store();
  const ckpt::CheckpointMeta meta = store.last_committed_meta();
  if (meta.epoch == 0) return;  // fresh store: nothing to restore
  const ckpt::Checkpoint snap = store.last_committed();
  LAR_CHECK(snap.committed);

  // Re-activate the snapshotted server prefix: the epoch is the truth, not
  // this process's EngineOptions (a restarted driver usually passes the
  // default full fleet).  Dormant POIs get no thread, exactly like a
  // restricted construction.
  LAR_CHECK(snap.active_servers >= 1 &&
            snap.active_servers <= placement_.num_servers());
  active_servers_ = snap.active_servers;
  const bool restricted = active_servers_ < placement_.num_servers();
  // Constructed restricted: non-fields routers start limited to the
  // EngineOptions prefix and must be re-widened even when the snapshot
  // restores the full fleet (construction already proved elastic-capable).
  const bool constructed_restricted =
      options_.active_servers != 0 &&
      options_.active_servers < placement_.num_servers();
  if (restricted) require_elastic_capable();
  for (auto& poi : pois_) poi->active = poi->server < active_servers_;
  set_inject_actives(active_servers_);
  last_plan_version_ = snap.plan_version;

  // Reinstall the recovered routing configuration (the chain's base file
  // embeds the engine-wide deployed-table union).  Fields edges without a
  // recovered table — nothing was ever deployed for them — fall back to a
  // fresh fallback-domain table when restricted, i.e. the restricted-start
  // construction; shuffle edges re-restrict to the active prefix.
  const core::ReconfigurationPlan* const plan = store.restored_plan();
  bool elastic_tables = false;
  if (plan != nullptr) {
    deployed_tables_ = plan->tables;
    // Tables with a fallback domain came from plan_for: the engine was
    // elastic, and future plans must keep flowing through plan_for.
    for (const auto& [op, table] : deployed_tables_) {
      if (!table->fallback().empty()) elastic_tables = true;
    }
  }
  elastic_ = elastic_ || restricted || elastic_tables;
  std::unordered_map<OperatorId, std::shared_ptr<const RoutingTable>>
      restored_tables = deployed_tables_;
  if (restricted) {
    for (const EdgeSpec& edge : topology_.edges()) {
      if (edge.grouping != GroupingType::kFields) continue;
      auto [it, inserted] = restored_tables.try_emplace(edge.to);
      if (!inserted) continue;
      auto table = std::make_shared<RoutingTable>();
      table->set_fallback(
          placement_.active_instances(edge.to, active_servers_));
      it->second = std::move(table);
    }
  }
  for (auto& poi : pois_) {
    const auto& out = topology_.out_edges(poi->op);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const EdgeSpec& edge = topology_.edges()[out[k]];
      if (edge.grouping != GroupingType::kFields) {
        if (restricted || constructed_restricted) {
          poi->routers[k].set_active_instances(
              placement_.active_instances(edge.to, active_servers_));
        }
        continue;
      }
      const auto it = restored_tables.find(edge.to);
      if (it == restored_tables.end()) continue;
      poi->routers[k].set_table(it->second);
    }
  }

  // Restore every snapshotted POI: key states through the migration codec,
  // both cursor sets (regenerated emissions reuse their original sequence
  // numbers; replayed inputs dedup against the restored cut), and the plan
  // version it had applied.
  std::uint64_t restored = 0;
  std::uint64_t restored_bytes = 0;
  for (const auto& [flat, pc] : snap.pois) {
    LAR_CHECK(flat < pois_.size());
    Poi& poi = *pois_[flat];
    for (const auto& [key, state] : pc.states) {
      poi.logic->import_key_state(key, state);
      ++restored;
      restored_bytes += state.size();
    }
    restore_cursors(poi, pc);
    poi.applied_version = pc.table_version;
    poi.dirty.clear();
  }
  states_restored_.fetch_add(restored, std::memory_order_relaxed);
  states_restored_bytes_.fetch_add(restored_bytes, std::memory_order_relaxed);

  // Resume the inject sequencing where the cut left it: each source's
  // coordinator-link cursor is exactly how many tuples inject() had pushed
  // to it before the epoch's barrier (barriers ride the same mutex), so the
  // sum is the global inject prefix the chain covers.  The driver replays
  // its stream from restored_inject_offset(); re-injected tuples get fresh
  // sequence numbers past the restored receiver cursors.
  std::uint64_t offset = 0;
  for (const std::uint32_t flat : source_flats_) {
    const auto pc = snap.pois.find(flat);
    if (pc == snap.pois.end()) continue;  // dormant source: no slice
    std::uint64_t cursor = 0;
    for (const auto& [link, seq] : pc->second.in_cursors) {
      if (link == BarrierMsg::kCoordinator) cursor = seq;
    }
    inject_out_seq_[flat] = cursor;
    offset += cursor;
  }
  restored_inject_offset_ = offset;
  inject_seq_.store(offset, std::memory_order_relaxed);
  if (fleet_ != nullptr) {
    std::lock_guard<std::mutex> lock(source_mutex_);
    for (fleet::AppId app = 0; app < fleet_->num_apps(); ++app) {
      std::uint64_t app_offset = 0;
      for (const std::size_t pos : app_source_pos_[app]) {
        for (const std::size_t flat : poi_index_[sources_[pos]]) {
          app_offset += inject_out_seq_[flat];
        }
      }
      app_inject_seq_[app] = app_offset;
    }
  }
  LAR_INFO << "engine: cold restart from checkpoint epoch " << snap.epoch
           << " (" << restored << " states, inject offset " << offset << ")";
}

void Engine::shutdown() {
  if (!started_ || shut_down_) return;
  flush();
  shut_down_ = true;
  for (auto& poi : pois_) {
    poi->inbox.push_unbounded(Message{ShutdownMsg{}});
  }
  for (auto& poi : pois_) {
    if (poi->thread.joinable()) poi->thread.join();
  }
}

Engine::Poi& Engine::poi_at(OperatorId op, InstanceIndex index) {
  return *pois_[poi_index_[op][index]];
}

Operator& Engine::operator_at(OperatorId op, InstanceIndex index) {
  return *poi_at(op, index).logic;
}

// ---------------------------------------------------------------------------
// Data plane.
// ---------------------------------------------------------------------------

void Engine::inject(Tuple tuple) {
  LAR_CHECK(started_ && !shut_down_);
  LAR_CHECK(!sources_.empty());
  OperatorId src = 0;
  InstanceIndex instance = 0;
  {
    // The active lists default to every instance, which makes the picks
    // below exactly the historical `% parallelism` ones; an elastic resize
    // swaps the lists under the same mutex.
    std::lock_guard<std::mutex> lock(source_mutex_);
    const std::uint64_t seq = inject_seq_.load(std::memory_order_relaxed);
    const std::size_t pos = seq % sources_.size();
    src = sources_[pos];
    const std::vector<InstanceIndex>& act = source_actives_[pos];
    switch (options_.source_mode) {
      case SourceMode::kAlignedField0:
        LAR_CHECK(!tuple.fields.empty());
        instance = act[tuple.fields[0] % act.size()];
        break;
      case SourceMode::kRoundRobin:
        instance = act[seq % act.size()];
        break;
    }
    inject_seq_.fetch_add(1, std::memory_order_relaxed);
    inject_push_locked(src, instance, std::move(tuple));
  }
}

void Engine::inject_push_locked(OperatorId src, InstanceIndex instance,
                                Tuple&& tuple) {
  // The injector's SPSC lane: source_mutex_ is its producer serialization
  // domain, so pushing while still holding the mutex keeps the inject log
  // order, the sequence numbers and the lane order in agreement — and a
  // checkpoint barrier injected under this same mutex lands after exactly
  // the tuples logged so far.  The source POI drains its inbox without
  // ever taking this mutex, so a back-pressured push cannot deadlock.
  // Every inject flushes: callers may flush() right after, and a staged
  // tuple nobody publishes would hang that fence.
  Poi& target = poi_at(src, instance);
  const std::uint32_t lane = inject_lane_[target.flat];
  if (ckpt_enabled_) {
    DataMsg dm{std::move(tuple), DataMsg::kInjected};
    dm.from = BarrierMsg::kCoordinator;
    dm.seq = ++inject_out_seq_[target.flat];
    inject_replay_[target.flat].push_back(dm);
    tuples_injected_.fetch_add(1, std::memory_order_relaxed);
    driver_sent_.fetch_add(1, std::memory_order_release);
    target.inbox.lane_push(lane, Message{DataMsg{std::move(dm)}});
  } else {
    tuples_injected_.fetch_add(1, std::memory_order_relaxed);
    driver_sent_.fetch_add(1, std::memory_order_release);
    target.inbox.lane_push(
        lane, Message{DataMsg{std::move(tuple), DataMsg::kInjected}});
  }
  target.inbox.lane_flush(lane);
}

void Engine::inject_app(fleet::AppId app, Tuple tuple) {
  LAR_CHECK(started_ && !shut_down_);
  LAR_CHECK(fleet_ != nullptr && app < app_source_pos_.size());
  const std::vector<std::size_t>& positions = app_source_pos_[app];
  LAR_CHECK(!positions.empty());
  std::lock_guard<std::mutex> lock(source_mutex_);
  // Per-tenant round-robin over the tenant's own source positions with a
  // per-tenant sequence: each tenant's arrival order is independent of how
  // the driver interleaves tenants.
  const std::uint64_t seq = app_inject_seq_[app]++;
  const std::size_t pos = positions[seq % positions.size()];
  const OperatorId src = sources_[pos];
  const std::vector<InstanceIndex>& act = source_actives_[pos];
  InstanceIndex instance = 0;
  switch (options_.source_mode) {
    case SourceMode::kAlignedField0:
      LAR_CHECK(!tuple.fields.empty());
      instance = act[tuple.fields[0] % act.size()];
      break;
    case SourceMode::kRoundRobin:
      instance = act[seq % act.size()];
      break;
  }
  ++app_tuples_injected_[app];
  inject_push_locked(src, instance, std::move(tuple));
}

void Engine::flush() {
  // Register before the first scan: a POI that goes idle after its last done
  // store either sees this registration and wakes us, or every later scan
  // sees that store (a Dekker pair with wake_flushers, over seq_cst
  // operations only).
  flush_waiters_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    const std::uint32_t wake = flush_wake_.load(std::memory_order_acquire);
    if (quiescent()) break;
    flush_wake_.wait(wake, std::memory_order_acquire);
  }
  flush_waiters_.fetch_sub(1, std::memory_order_relaxed);
}

bool Engine::quiescent() const {
  // Every done first, then every sent.  A done counted here implies its send
  // was counted before it, and a tuple still in flight has its send counted
  // but not its done — so equal sums mean nothing is in flight.  Reading
  // sent first would let a tuple sent and finished between the two scans
  // balance an earlier one still in flight.  The done loads are seq_cst:
  // they are the flusher's half of the pair in wake_flushers.
  std::uint64_t done = driver_done_.load(std::memory_order_seq_cst);
  for (const auto& poi : pois_) {
    done += poi->done.load(std::memory_order_seq_cst);
  }
  std::uint64_t sent = driver_sent_.load(std::memory_order_acquire);
  for (const auto& poi : pois_) {
    sent += poi->sent.load(std::memory_order_acquire);
  }
  return done == sent;
}

void Engine::wake_flushers(std::atomic<std::uint64_t>& done) {
  // The idle thread's half of the pair: a seq_cst read-modify-write of its
  // own done counter orders every done store before the registration check.
  // No other thread writes that counter, so this costs a fence, not a
  // contended line.
  done.fetch_add(0, std::memory_order_seq_cst);
  if (flush_waiters_.load(std::memory_order_seq_cst) == 0) return;
  flush_wake_.fetch_add(1, std::memory_order_release);
  flush_wake_.notify_all();
}

void Engine::poi_loop(Poi& poi) {
  chaos::Injector* const inj = options_.injector;
  // About to go idle or exit: publish every staged outbound batch first, or
  // a downstream POI could wait forever on tuples already emitted here, then
  // wake a waiting flush() (no hop does; see wake_flushers).
  auto go_idle = [this, &poi] {
    for (const Poi::OutLane& ol : poi.flush_lanes) {
      ol.target->inbox.lane_flush(ol.lane);
    }
    wake_flushers(poi.done);
  };
  std::vector<Message>& run = poi.run;
  for (;;) {
    run.clear();
    if (!poi.inbox.try_pop_run(run)) {
      // An empty inbox has passed every delay stash's drain mark: deliver
      // them all and look again rather than park on held tuples.
      if (!poi.delayed.empty()) {
        flush_all_delayed(poi);
        continue;
      }
      // Flushing only on the empty-inbox edge (not per message) is what
      // lets batches form while the POI is busy; the per-lane batch bound
      // caps how long a tuple can stay staged meanwhile.
      go_idle();
      if (!poi.inbox.pop_run(run)) return;
    }
    // A run is either one control message or lane data only, and all of it
    // is processed before the next pop: a sentinel below always arrives
    // alone, so returning on it never strands a taken item.
    for (Message& msg : run) {
      if (std::holds_alternative<ShutdownMsg>(msg)) {
        // Same rule on exit: a retired POI's held and staged tuples would
        // otherwise be stranded with it while its targets live on.
        flush_all_delayed(poi);
        go_idle();
        return;
      }
      // A crash sentinel kills the POI where it stands: messages queued
      // behind it stay unprocessed (the recovery driver discards them —
      // their effects come back via checkpoint restore + sender replay).
      if (std::holds_alternative<CrashMsg>(msg)) {
        poi.crash_exited.store(true, std::memory_order_release);
        wake_flushers(poi.done);
        return;
      }
      if (inj != nullptr &&
          inj->fire(chaos::FaultSite::kWorkerStall, poi.flat)) {
        // A stall window: the POI yields the CPU `magnitude` times before
        // touching the message; purely a scheduling perturbation.
        const std::uint32_t yields =
            inj->magnitude(chaos::FaultSite::kWorkerStall);
        for (std::uint32_t i = 0; i < yields; ++i) std::this_thread::yield();
      }
      dispatch(poi, std::move(msg));
    }
    if (!poi.delayed.empty()) flush_delayed(poi, /*all=*/false);
  }
}

void Engine::dispatch(Poi& poi, Message&& msg) {
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        // Any control message force-flushes every delay stash first: the
        // wave relies on a predecessor's pre-switch data being processed
        // before its PROPAGATE, and injected delays must not outlive that
        // ordering.
        if constexpr (!std::is_same_v<T, DataMsg>) flush_all_delayed(poi);
        if constexpr (std::is_same_v<T, DataMsg>) {
          handle_data(poi, std::move(m));
        } else if constexpr (std::is_same_v<T, GetMetricsMsg>) {
          send_metrics(poi);
        } else if constexpr (std::is_same_v<T, std::unique_ptr<ReconfMsg>>) {
          handle_reconf(poi, std::move(*m));
        } else if constexpr (std::is_same_v<T, PropagateMsg>) {
          handle_propagate(poi, m);
        } else if constexpr (std::is_same_v<T, MigrateMsg>) {
          handle_migrate(poi, std::move(m));
        } else if constexpr (std::is_same_v<T, BarrierMsg>) {
          handle_barrier(poi, m);
        } else if constexpr (std::is_same_v<T, CheckpointCommitMsg>) {
          handle_commit(poi, m);
        } else if constexpr (std::is_same_v<T, ReplayRequestMsg>) {
          handle_replay_request(poi, m);
        } else if constexpr (std::is_same_v<T, ReplayEndMsg>) {
          handle_replay_end(poi, m);
        }
      },
      std::move(msg));
}

void Engine::handle_data(Poi& poi, DataMsg msg) {
  chaos::Injector* const inj = options_.injector;
  if (msg.from != DataMsg::kNoFrom && (inj != nullptr || ckpt_enabled_)) {
    const std::uint32_t from = msg.from;
    // A link mid-replay holds *everything* — live stragglers may arrive
    // before the replayed copies, so nothing is applied (and no dedup
    // cursor advanced) until ReplayEnd sorts the union by sequence number.
    if (ckpt_enabled_ && !poi.replay_pending.empty() &&
        poi.replay_pending.contains(from)) {
      poi.replay_stash[from].push_back(std::move(msg));
      return;
    }
    // Dedup before anything else: an injected duplicate (or a recovered
    // sender's regenerated emission) is dropped even if its link is
    // currently held in a stash.
    Poi::LinkCursor& seen = poi.last_seq[link_slot(from, pois_.size())];
    if (msg.seq <= seen.seq) {
      data_dups_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (inj != nullptr) {
        inj->recovery("channel_dedup", link_entity_str(from, poi.flat));
      }
      bump(poi.done, 1, std::memory_order_release);
      return;
    }
    seen = {msg.seq, true};
    // A link whose barrier is in while a sibling's is pending stashes its
    // whole post-barrier suffix until alignment completes (the consistent
    // cut).  Checked before the chaos delay so a blocked link never
    // re-enters the delay stash mid-alignment.
    if (ckpt_enabled_ && !poi.blocked_links.empty() &&
        poi.blocked_links.contains(from)) {
      poi.align_stash[from].push_back(std::move(msg));
      return;
    }
    if (inj != nullptr) {
      // A held link stashes its *whole suffix* — per-producer FIFO is
      // preserved by construction, the delay never reorders within a link.
      if (auto it = poi.delayed.find(from); it != poi.delayed.end()) {
        it->second.held.push_back(std::move(msg));
        return;
      }
      if (inj->fire(chaos::FaultSite::kChannelDelay,
                    link_entity(from, poi.flat))) {
        // Held until the inbox contents published by now have been popped
        // (poi_loop checks the mark after every run): one queue-drain of
        // delay, and no push, so it can never block.
        Poi::DelayStash& stash = poi.delayed[from];
        stash.held.push_back(std::move(msg));
        stash.mark = poi.inbox.drain_mark();
        return;
      }
    }
  }
  deliver_data(poi, std::move(msg));
}

void Engine::deliver_data(Poi& poi, DataMsg msg) {
  Key in_key = msg.anchor;
  if (msg.edge != DataMsg::kInjected) {
    const EdgeSpec& edge = topology_.edges()[msg.edge];
    if (edge.grouping == GroupingType::kFields) {
      LAR_CHECK(edge.key_field < msg.tuple.fields.size());
      in_key = msg.tuple.fields[edge.key_field];
      // Buffer tuples whose key state is still in flight (Section 3.4:
      // "tuples are buffered and are only processed once the state of their
      // key is received").
      if (!poi.awaiting.empty() && poi.awaiting.contains(in_key)) {
        // Buffering implies a live reconfiguration: `awaiting` is populated
        // by handle_reconf and fully drained before `staged` resets, so a
        // parked tuple always has an incoming MIGRATE to wake it.  Keys not
        // in `awaiting` — including keys the routing table has never seen,
        // which fall back to hash routing — are processed immediately; they
        // can never be parked forever.
        LAR_CHECK(poi.staged.has_value());
        buffer_tuple(poi, in_key, std::move(msg));
        return;  // stays in flight until drained by handle_migrate()
      }
    }
  }
  process_tuple(poi, msg.tuple, in_key);
  poi.arena_release(std::move(msg.tuple.fields));
  bump(poi.done, 1, std::memory_order_release);
}

void Engine::buffer_tuple(Poi& poi, Key in_key, DataMsg msg) {
  tuples_buffered_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace != nullptr) {
    options_.trace->record(poi.staged->version, obs::Phase::kBuffer,
                           obs::key_entity(in_key), /*count=*/1);
  }
  const std::size_t cap = options_.buffered_tuples_cap;
  // Spill once the in-memory cap is hit.  Stickiness: after a key's first
  // spill, all its later tuples spill too, so the drain order (in-memory
  // batch first, then the spill store) preserves per-key FIFO.
  if (cap != 0 && (poi.pending_count >= cap || poi.spilled.contains(in_key))) {
    std::vector<std::byte> wire = encode_tuple(msg.tuple);
    tuples_spilled_.fetch_add(1, std::memory_order_relaxed);
    tuples_spilled_bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
    if (options_.injector != nullptr) {
      options_.injector->recovery("buffer_spill", obs::key_entity(in_key),
                                  /*count=*/1, /*bytes=*/wire.size(),
                                  poi.staged->version);
    }
    poi.spilled[in_key].push_back(std::move(wire));
    return;
  }
  poi.pending[in_key].push_back(std::move(msg));
  ++poi.pending_count;
}

void Engine::flush_delayed(Poi& poi, bool all) {
  // deliver_data never touches `delayed`, so the iterator stays valid.
  for (auto it = poi.delayed.begin(); it != poi.delayed.end();) {
    if (!all && !poi.inbox.drained_past(it->second.mark)) {
      ++it;
      continue;
    }
    const std::uint32_t link = it->first;
    std::vector<DataMsg> held = std::move(it->second.held);
    it = poi.delayed.erase(it);
    options_.injector->recovery("delay_flush", link_entity_str(link, poi.flat),
                                held.size());
    for (DataMsg& dm : held) deliver_data(poi, std::move(dm));
  }
}

void Engine::process_tuple(Poi& poi, const Tuple& tuple, Key in_key) {
  bump(poi.processed, 1);
  // Incremental checkpointing: the routing key is the state key for every
  // delta-capable POI (all-fields inputs), so marking it here covers every
  // state mutation process() can make.  delta_capable is only ever set when
  // the store asked for increments — one branch, the structural-no-op rule.
  if (poi.delta_capable && in_key != kNoKey) poi.dirty.insert(in_key);
  // Emitter bound to the POI currently processing a tuple; routes emissions
  // on every outbound edge and records pair statistics.  A local class so it
  // shares this member function's access to Engine internals.
  struct RoutingEmitter final : Emitter {
    Engine& engine;
    Poi& poi;
    Key in_key;

    RoutingEmitter(Engine& e, Poi& p, Key k)
        : engine(e), poi(p), in_key(k) {}

    void emit(const Tuple& tuple) override { route(tuple, nullptr); }

    void emit(Tuple&& tuple) override {
      route(tuple, &tuple);
      // The final local edge moved the storage out; anything left (sinks,
      // remote-only emissions) goes back to the free-list.
      poi.arena_release(std::move(tuple.fields));
    }

    /// `owned` is the emission's own storage when the operator gave it up;
    /// only the final out-edge may take it.
    void route(const Tuple& tuple, Tuple* owned) {
      const auto& out = engine.topology_.out_edges(poi.op);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const EdgeSpec& edge = engine.topology_.edges()[out[k]];
        if (poi.pair_stats[k].has_value() && in_key != kNoKey) {
          LAR_CHECK(edge.key_field < tuple.fields.size());
          poi.pair_stats[k]->record(in_key, tuple.fields[edge.key_field]);
        }
        engine.send_data(poi, static_cast<std::uint32_t>(k), tuple,
                         k + 1 == out.size() ? owned : nullptr, in_key);
      }
    }
  } emitter(*this, poi, in_key);
  poi.logic->process(tuple, emitter);
}

void Engine::send_data(Poi& poi, std::uint32_t out_pos, const Tuple& tuple,
                       Tuple* owned, Key in_key) {
  const std::uint32_t eid = topology_.out_edges(poi.op)[out_pos];
  const EdgeSpec& edge = topology_.edges()[eid];
  const InstanceIndex dst = poi.routers[out_pos].route(tuple);
  const Poi::OutLane& ol = poi.out_lanes[out_pos][dst];
  Poi& target = *ol.target;
  Poi::EdgeTraffic& traffic = poi.traffic[out_pos];

  // The receiver's anchor: a fields hop re-anchors at its own key, anything
  // else forwards the sender's.
  const Key anchor = edge.grouping == GroupingType::kFields
                         ? tuple.fields[edge.key_field]
                         : in_key;

  // Counted before the push can publish the tuple (DESIGN.md §13).
  bump(poi.sent, 1, std::memory_order_release);
  DataMsg out{Tuple{}, eid, anchor};
  if (target.server == poi.server) {
    bump(traffic.local, 1);
    if (owned != nullptr) {
      // Same-server hop of storage the operator gave up: the hand-off is a
      // pointer move into the co-located POI's lane — the paper's "address
      // in memory" hop, with no copy at all.  The receiver recycles the
      // storage once processed.
      out.tuple = std::move(*owned);
    } else {
      // Otherwise this hop needs its own copy, but into a recycled buffer
      // rather than a fresh heap allocation.
      out.tuple.fields = poi.arena_acquire();
      out.tuple.fields.assign(tuple.fields.begin(), tuple.fields.end());
      out.tuple.padding = tuple.padding;
    }
  } else {
    // The network path: every wire byte is written (padding zeroed) into
    // this POI's reused buffer, so the modeled copy cost stays while the
    // allocation goes; the receiver's copy lands in a recycled buffer.
    bump(traffic.remote, 1);
    encode_tuple_into(tuple, poi.wire);
    bump(traffic.remote_bytes, poi.wire.size());
    out.tuple.fields = poi.arena_acquire();
    decode_tuple_into(poi.wire, out.tuple);
  }
  chaos::Injector* const inj = options_.injector;
  if (inj != nullptr || ckpt_enabled_) {
    // Stamp the link sequence so the receiver can drop duplicates; out_seq
    // is only ever touched by this POI's own thread.
    out.from = static_cast<std::uint32_t>(poi.flat);
    out.seq = ++poi.out_seq[target.flat];
    if (ckpt_enabled_) {
      // Sender-side replay buffer: everything since the last committed
      // checkpoint, truncated by handle_commit at the snapshot watermark.
      poi.replay_out[target.flat].push_back(out);
    }
    if (inj != nullptr &&
        inj->fire(chaos::FaultSite::kChannelDuplicate,
                  link_entity(out.from, target.flat))) {
      // Same seq on both copies: whichever arrives second is deduped.
      bump(poi.sent, 1, std::memory_order_release);
      target.inbox.lane_push(ol.lane, Message{DataMsg{out}});
    }
  }
  target.inbox.lane_push(ol.lane, Message{std::move(out)});
}

// ---------------------------------------------------------------------------
// Control plane: the reconfiguration protocol (POI side).
// ---------------------------------------------------------------------------

void Engine::send_metrics(Poi& poi) {
  MetricsReply reply;
  reply.from = InstanceId{poi.op, poi.index};
  const auto& out = topology_.out_edges(poi.op);
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (!poi.pair_stats[k].has_value()) continue;
    reply.stats.emplace_back(out[k], poi.pair_stats[k]->snapshot());
  }
  manager_inbox_.push_unbounded(ManagerReply{std::move(reply)});
}

void Engine::handle_reconf(Poi& poi, ReconfMsg msg) {
  LAR_CHECK(!poi.staged.has_value());  // one reconfiguration at a time
  const std::uint64_t version = msg.version;
  poi.staged = std::move(msg);
  poi.propagate_seen = 0;
  poi.actions_done = false;
  // The wave spec pins how many PROPAGATEs to expect *this* round: only
  // participating predecessor instances forward the wave, so a dormant or
  // newly spawned fleet never changes what this POI waits for mid-wave.
  // At full membership the sums equal the constructor's static values.
  if (const ElasticWave* wave = poi.staged->wave.get(); wave != nullptr) {
    if (topology_.op(poi.op).is_source) {
      poi.propagate_expected = 1;
    } else {
      std::uint32_t expected = 0;
      for (const std::uint32_t eid : topology_.in_edges(poi.op)) {
        expected += static_cast<std::uint32_t>(
            wave->members[topology_.edges()[eid].from].size());
      }
      poi.propagate_expected = expected;
    }
  }
  // Buffering must start now: upstream POIs may switch to the new tables
  // (and route keys here) before this POI's own propagate arrives.  Each
  // entry is one (key, sender) debt: a split convergence lists the same key
  // once per old replica, and the key unblocks only when all have merged.
  for (const auto& [key, sender] : poi.staged->receive) {
    poi.awaiting[key].push_back(sender);
  }
  if (options_.trace != nullptr) {
    options_.trace->record(version, obs::Phase::kAck,
                           obs::poi_entity(poi.op, poi.index),
                           /*count=*/poi.staged->receive.size());
  }
  manager_inbox_.push_unbounded(
      ManagerReply{AckReconfReply{InstanceId{poi.op, poi.index}, version}});
}

void Engine::handle_propagate(Poi& poi, const PropagateMsg& msg) {
  LAR_CHECK(poi.staged.has_value() && poi.staged->version == msg.version);
  ++poi.propagate_seen;
  if (poi.propagate_seen == poi.propagate_expected) {
    run_reconfig_actions(poi);
  }
}

void Engine::run_reconfig_actions(Poi& poi) {
  ReconfMsg& staged = *poi.staged;
  const auto& out = topology_.out_edges(poi.op);

  // update_routing: install the new tables on outbound fields edges and
  // restart statistics collection from a clean slate.  Elastic waves also
  // swap the shuffle restriction to the post-commit active set, in the same
  // step so a link's pre-switch suffix stays ahead of its PROPAGATE.
  const ElasticWave* const wave = staged.wave.get();
  const bool activity_change = wave != nullptr && !wave->actives.empty();
  for (std::size_t k = 0; k < out.size(); ++k) {
    const EdgeSpec& edge = topology_.edges()[out[k]];
    if (edge.grouping != GroupingType::kFields) {
      if (activity_change) {
        poi.routers[k].set_active_instances(wave->actives[edge.to]);
      }
      continue;
    }
    auto it = staged.tables.find(edge.to);
    if (it == staged.tables.end()) continue;
    poi.routers[k].set_table(it->second);
    if (poi.pair_stats[k].has_value()) poi.pair_stats[k]->reset();
  }

  // Export and ship the state of keys this instance no longer owns.  No
  // more tuples for them can arrive: every predecessor switched tables
  // before propagating here, and channels are FIFO.
  for (const auto& [key, dest] : staged.send) {
    std::vector<std::byte> state = poi.logic->export_key_state(key);
    poi.logic->drop_key_state(key);
    Poi& target = poi_at(poi.op, dest);
    if (chaos::Injector* const inj = options_.injector;
        inj != nullptr && inj->fire(chaos::FaultSite::kMigrateDuplicate, key,
                                    staged.version)) {
      // The receiver's awaiting-set check absorbs the second copy.
      target.inbox.push_unbounded(
          Message{MigrateMsg{staged.version, key, state, poi.index}});
    }
    target.inbox.push_unbounded(
        Message{MigrateMsg{staged.version, key, std::move(state), poi.index}});
  }

  // Residual drain (elastic waves only): any still-owned key the new epoch
  // routes away — keys the manager never observed have no move entry, yet a
  // retiring instance must not keep them and a grown fleet must not leave
  // them under the old fallback owner.  Scanned after the planned sends, so
  // `owned_keys` no longer contains the exported ones; receivers import
  // unconditionally (imports are merge-additive), acknowledged through the
  // engine-wide drain fence rather than the awaiting set.
  if (staged.own_table != nullptr) {
    const std::uint32_t parallelism = topology_.op(poi.op).parallelism;
    for (const Key key : poi.logic->owned_keys()) {
      // A split candidate legitimately holds a partial — only ship state the
      // new epoch gives this instance no ownership of at all.
      if (staged.own_table->is_owner(key, poi.index, parallelism)) continue;
      const InstanceIndex dest = staged.own_table->route(key, parallelism);
      std::vector<std::byte> state = poi.logic->export_key_state(key);
      poi.logic->drop_key_state(key);
      states_drained_.fetch_add(1, std::memory_order_relaxed);
      states_drained_bytes_.fetch_add(state.size(),
                                      std::memory_order_relaxed);
      if (options_.trace != nullptr) {
        options_.trace->record(staged.version, obs::Phase::kMigrate,
                               obs::key_entity(key), /*count=*/1,
                               /*bytes=*/state.size());
      }
      drains_in_flight_.fetch_add(1, std::memory_order_acq_rel);
      poi_at(poi.op, dest).inbox.push_unbounded(Message{MigrateMsg{
          staged.version, key, std::move(state), /*from=*/poi.index,
          /*redeliveries=*/0, /*drain=*/true}});
    }
  }

  poi.applied_version = staged.version;
  poi.actions_done = true;
  maybe_finish_reconfig(poi);
}

void Engine::handle_migrate(Poi& poi, MigrateMsg msg) {
  chaos::Injector* const inj = options_.injector;
  // Delayed payload: re-queue at the back of the unlaned control FIFO — a
  // bounded logical backoff (at most `magnitude` redeliveries, each one
  // round of the inbox's lanes long), with the tuples for the key
  // buffering meanwhile.
  if (inj != nullptr &&
      msg.redeliveries < inj->magnitude(chaos::FaultSite::kMigrateDelay) &&
      inj->fire(chaos::FaultSite::kMigrateDelay, msg.key, msg.version)) {
    ++msg.redeliveries;
    migrate_redeliveries_.fetch_add(1, std::memory_order_relaxed);
    inj->recovery("migrate_redelivery", obs::key_entity(msg.key),
                  /*count=*/1, /*bytes=*/msg.state.size(), msg.version);
    poi.inbox.push_unbounded(Message{std::move(msg)});
    return;
  }
  // Residual drain: imported unconditionally — the sender exported-and-
  // dropped, so this is the key's only live copy, and additive imports make
  // a second partial copy merge rather than clobber.  The add/retire caller
  // blocks on the drain fence, so a chaos-delayed drain can never be lost
  // behind a retiree's shutdown.
  if (msg.drain) {
    states_migrated_.fetch_add(1, std::memory_order_relaxed);
    states_migrated_bytes_.fetch_add(msg.state.size(),
                                     std::memory_order_relaxed);
    if (poi.delta_capable) poi.dirty.insert(msg.key);
    poi.logic->import_key_state(msg.key, msg.state);
    if (drains_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drains_in_flight_.notify_all();
    }
    return;
  }
  // Idempotence: apply each (key, sender) state at most once per
  // reconfiguration.  A legit first delivery always finds `staged` at the
  // payload's version with the sender still listed under the key in
  // `awaiting` (states ship only after every ack, and the wave can't finish
  // here until awaiting drains).  Anything else is a duplicate or a stale
  // straggler from a finished round — e.g. a redelivered v1 copy popping
  // after v2 re-stages the same key — and importing it would double-apply
  // or resurrect old state, so drop *before* touching the operator.  The
  // sender match matters under lar::split: a degree decrease awaits several
  // senders per key, and a chaos-duplicated copy from one must not consume
  // another's slot.
  const auto awaiting_it = poi.awaiting.find(msg.key);
  const bool legit =
      poi.staged.has_value() && poi.staged->version == msg.version &&
      awaiting_it != poi.awaiting.end() &&
      std::find(awaiting_it->second.begin(), awaiting_it->second.end(),
                msg.from) != awaiting_it->second.end();
  if (!legit) {
    migrates_deduped_.fetch_add(1, std::memory_order_relaxed);
    if (inj != nullptr) {
      inj->recovery("migrate_dedup", obs::key_entity(msg.key),
                    /*count=*/1, /*bytes=*/msg.state.size(), msg.version);
    }
    return;
  }
  states_migrated_.fetch_add(1, std::memory_order_relaxed);
  states_migrated_bytes_.fetch_add(msg.state.size(),
                                   std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    // Rare path (reconfiguration only), so the by-name lookup is fine.
    options_.registry
        ->histogram("lar_state_migration_size_bytes",
                    {0, 16, 64, 256, 1024, 4096, 16384}, {},
                    "Serialized size of one migrated key state.")
        .observe(static_cast<double>(msg.state.size()));
  }
  if (options_.trace != nullptr) {
    options_.trace->record(msg.version, obs::Phase::kMigrate,
                           obs::key_entity(msg.key), /*count=*/1,
                           /*bytes=*/msg.state.size());
  }
  if (poi.delta_capable) poi.dirty.insert(msg.key);
  poi.logic->import_key_state(msg.key, msg.state);
  std::vector<InstanceIndex>& senders = awaiting_it->second;
  senders.erase(std::find(senders.begin(), senders.end(), msg.from));
  if (!senders.empty()) {
    // lar::split convergence: more replica partials are still in flight for
    // this key (imports are merge-additive, so they sum).  The key stays
    // awaited and its tuples stay buffered until the last one lands.
    return;
  }
  poi.awaiting.erase(awaiting_it);
  // Drain tuples that were buffered waiting for this key's state: the
  // in-memory batch first, then (in arrival order after it, by spill
  // stickiness) the serialized spill store.
  std::vector<DataMsg> buffered;
  if (auto it = poi.pending.find(msg.key); it != poi.pending.end()) {
    buffered = std::move(it->second);
    poi.pending.erase(it);
    poi.pending_count -= buffered.size();
  }
  std::vector<std::vector<std::byte>> spilled;
  if (auto it = poi.spilled.find(msg.key); it != poi.spilled.end()) {
    spilled = std::move(it->second);
    poi.spilled.erase(it);
  }
  if (!buffered.empty() || !spilled.empty()) {
    if (options_.trace != nullptr) {
      std::uint64_t spilled_bytes = 0;
      for (const auto& wire : spilled) spilled_bytes += wire.size();
      options_.trace->record(msg.version, obs::Phase::kDrain,
                             obs::key_entity(msg.key),
                             /*count=*/buffered.size() + spilled.size(),
                             /*bytes=*/spilled_bytes);
    }
    for (DataMsg& dm : buffered) {
      process_tuple(poi, dm.tuple, msg.key);
      poi.arena_release(std::move(dm.tuple.fields));
      bump(poi.done, 1, std::memory_order_release);
    }
    for (const std::vector<std::byte>& wire : spilled) {
      Tuple tuple{poi.arena_acquire(), 0};
      decode_tuple_into(wire, tuple);
      process_tuple(poi, tuple, msg.key);
      poi.arena_release(std::move(tuple.fields));
      bump(poi.done, 1, std::memory_order_release);
    }
  }
  maybe_finish_reconfig(poi);
}

void Engine::maybe_finish_reconfig(Poi& poi) {
  if (!poi.staged.has_value() || !poi.actions_done || !poi.awaiting.empty()) {
    return;
  }
  const std::uint64_t version = poi.staged->version;
  // Forward the wave: one PROPAGATE per participating successor POI per
  // edge.  The membership list rides in the staged message, so the fan-out
  // matches exactly what each successor's propagate_expected counts.
  const std::shared_ptr<const ElasticWave> wave = poi.staged->wave;
  std::uint64_t hops = 0;
  // Each PROPAGATE rides FIFO-after this POI's own lane into its successor:
  // push_unbounded_after publishes any staged batch first, so a successor
  // always processes the pre-switch suffix before it sees the wave.
  for (const std::uint32_t eid : topology_.out_edges(poi.op)) {
    const EdgeSpec& edge = topology_.edges()[eid];
    if (wave != nullptr) {
      for (const InstanceIndex i : wave->members[edge.to]) {
        Poi& target = poi_at(edge.to, i);
        target.inbox.push_unbounded_after(*poi.lane_to.find(target.flat),
                                          Message{PropagateMsg{version}});
        ++hops;
      }
      continue;
    }
    const std::uint32_t parallelism = topology_.op(edge.to).parallelism;
    for (InstanceIndex i = 0; i < parallelism; ++i) {
      Poi& target = poi_at(edge.to, i);
      target.inbox.push_unbounded_after(*poi.lane_to.find(target.flat),
                                        Message{PropagateMsg{version}});
      ++hops;
    }
  }
  if (options_.trace != nullptr) {
    options_.trace->record(version, obs::Phase::kPropagate,
                           obs::poi_entity(poi.op, poi.index),
                           /*count=*/hops);
  }
  poi.staged.reset();
  manager_inbox_.push_unbounded(
      ManagerReply{ReconfDoneReply{InstanceId{poi.op, poi.index}, version}});
}

// ---------------------------------------------------------------------------
// Control plane: the reconfiguration protocol (manager side).
// ---------------------------------------------------------------------------

core::ReconfigurationPlan Engine::reconfigure(core::Manager& manager) {
  LAR_CHECK(started_ && !shut_down_);
  core::ReconfigurationPlan plan =
      run_protocol(manager, active_servers_, active_servers_);
  // Elastic waves may ship residual drains, which ride outside the awaiting
  // sets (and therefore outside flush()'s in-flight accounting); block until
  // they have landed so callers get the usual quiescence semantics.
  if (elastic_) drain_fence();
  // A wave invalidates every earlier checkpoint (its snapshots pre-date the
  // key moves, so restoring one would resurrect migrated keys under their
  // old owners).  Re-checkpoint immediately: recovery always finds a
  // committed epoch at the current plan version (DESIGN.md §11).
  if (ckpt_enabled_) checkpoint();
  end_wave_span();
  return plan;
}

core::ReconfigurationPlan Engine::reconfigure_app(fleet::AppId app) {
  LAR_CHECK(started_ && !shut_down_);
  LAR_CHECK(fleet_ != nullptr && app < fleet_->num_apps());
  core::ReconfigurationPlan plan =
      run_protocol(fleet_->manager(), active_servers_, active_servers_,
                   &fleet_->app(app));
  // Post-wave work mirrors reconfigure().  The drain fence blocks only this
  // driver thread (other tenants' data planes keep flowing through their
  // untouched lanes), and the auto-checkpoint stays global — the aligned
  // cut must cover every tenant or a later crash would restore one tenant
  // across another's wave.
  if (elastic_) drain_fence();
  if (ckpt_enabled_) checkpoint();
  end_wave_span();
  return plan;
}

core::ReconfigurationPlan Engine::resize_fleet(std::uint32_t target_servers) {
  LAR_CHECK(fleet_ != nullptr);
  LAR_CHECK(target_servers != active_servers_);
  // A resize is always a whole-fleet wave: plan_for gives EVERY tenant's
  // fields-destination ops fresh fallback-domain tables, and slicing any of
  // them away would leave that tenant hashing unknown keys over the stale
  // active set.  The joint planner drives the ordinary elastic machinery.
  core::Manager& manager = fleet_->manager();
  core::ReconfigurationPlan plan =
      target_servers > active_servers_
          ? add_servers(manager, target_servers)
          : retire_servers(manager, target_servers);
  // run_protocol already marked the joint planner; fold the deployment into
  // every tenant's bookkeeping (idempotent for the joint planner).
  fleet_->mark_deployed_all(plan);
  return plan;
}

void Engine::end_wave_span() {
  if (wave_span_ == 0) return;
  if (options_.trace != nullptr) {
    options_.trace->end_span(wave_span_, static_cast<double>(control_epoch_));
  }
  wave_span_ = 0;
}

core::ReconfigurationPlan Engine::run_protocol(
    core::Manager& manager, std::uint32_t current_n, std::uint32_t target_n,
    const fleet::AppContext* app_scope) {
  const std::uint32_t max_n = std::max(current_n, target_n);
  const bool resizing = current_n != target_n;
  const bool scoped = app_scope != nullptr;
  LAR_CHECK(!scoped || (fleet_ != nullptr && !resizing));

  // 1) + 2) GET_METRICS -> SEND_METRICS, from the POIs live *before* the
  // wave (a scale-out's fresh POIs have no statistics yet; a scale-in's
  // retirees still hold theirs).  A tenant-scoped round still gathers from
  // EVERYONE: pair statistics are cumulative since each tenant's own last
  // table install, so the full gather is the complete joint picture the
  // shared-capacity plan needs — and a SEND_METRICS reply snapshots without
  // resetting, leaving other tenants' statistics to their own waves.
  std::size_t gather_members = 0;
  for (auto& poi : pois_) {
    if (poi->server >= current_n) continue;
    poi->inbox.push_unbounded(Message{GetMetricsMsg{}});
    ++gather_members;
  }
  std::unordered_map<std::uint32_t, std::vector<std::vector<core::PairCount>>>
      per_edge;
  chaos::Injector* const inj = options_.injector;
  ++gather_epoch_;
  // Reports the previous epoch's gather deadline missed arrive now, one
  // epoch stale; merging them is safe because merge_pair_counts is
  // order-independent over the snapshot *set*.
  const std::uint64_t stale_merged = delayed_stats_.size();
  if (stale_merged > 0) {
    stats_reports_stale_.fetch_add(stale_merged, std::memory_order_relaxed);
    if (inj != nullptr) {
      inj->recovery("stale_merge", "manager", stale_merged, /*bytes=*/0,
                    gather_epoch_);
    }
    for (auto& [eid, counts] : delayed_stats_) {
      per_edge[eid].push_back(std::move(counts));
    }
    delayed_stats_.clear();
  }
  std::uint64_t lost_reports = 0;
  for (std::size_t i = 0; i < gather_members; ++i) {
    auto reply = manager_inbox_.pop();
    LAR_CHECK(reply.has_value());
    auto* metrics = std::get_if<MetricsReply>(&*reply);
    LAR_CHECK(metrics != nullptr);
    if (inj != nullptr) {
      // The manager's gather "timeout" is logical: every envelope is still
      // popped (liveness needs no wall-clock timer), but a faulted report
      // either never makes it into this epoch's statistics (loss: the plan
      // is computed from what arrived in time) or is stashed for the next
      // epoch (delay: merged stale).  Decisions are keyed by the sender's
      // flat index and advance once per epoch, so they are reproducible
      // regardless of reply arrival order.
      const std::size_t sender =
          poi_index_[metrics->from.op][metrics->from.index];
      if (inj->fire(chaos::FaultSite::kStatsLoss, sender, gather_epoch_)) {
        ++lost_reports;
        stats_reports_lost_.fetch_add(1, std::memory_order_relaxed);
        inj->recovery("partial_gather",
                      obs::poi_entity(metrics->from.op, metrics->from.index),
                      /*count=*/1, /*bytes=*/0, gather_epoch_);
        continue;
      }
      if (inj->fire(chaos::FaultSite::kStatsDelay, sender, gather_epoch_)) {
        for (auto& [eid, counts] : metrics->stats) {
          delayed_stats_.emplace_back(eid, std::move(counts));
        }
        inj->recovery("stats_deferred",
                      obs::poi_entity(metrics->from.op, metrics->from.index),
                      /*count=*/1, /*bytes=*/0, gather_epoch_);
        continue;
      }
    }
    for (auto& [eid, counts] : metrics->stats) {
      per_edge[eid].push_back(std::move(counts));
    }
  }
  if (inj != nullptr && options_.registry != nullptr) {
    // Staleness of the statistics the plan is about to be computed from.
    options_.registry
        ->gauge("lar_chaos_gather_lost_reports", {},
                "SEND_METRICS reports lost in the latest gather epoch.")
        .set(static_cast<double>(lost_reports));
    options_.registry
        ->gauge("lar_chaos_gather_stale_reports", {},
                "Late reports merged one epoch stale in the latest gather.")
        .set(static_cast<double>(stale_merged));
  }
  std::vector<core::HopStats> hop_stats;
  std::uint64_t gathered_pairs = 0;
  for (auto& [eid, snapshots] : per_edge) {
    const EdgeSpec& edge = topology_.edges()[eid];
    hop_stats.push_back(core::HopStats{anchors_[edge.from].value(), edge.to,
                                       core::merge_pair_counts(snapshots)});
    gathered_pairs += hop_stats.back().pairs.size();
  }

  // compute_reconfiguration.  Once elastic, ALL plans flow through
  // plan_for — a fixed-fleet compute_plan would drop the fallback domain
  // and silently re-split unknown keys over the full modulus with no
  // migration to match.  Tenant-scoped rounds plan jointly over every
  // tenant's statistics and deploy one tenant's slice (lar::fleet).
  core::ReconfigurationPlan plan =
      scoped ? fleet_->plan_app(app_scope->id, hop_stats,
                                elastic_ ? target_n : 0)
             : (elastic_ ? manager.plan_for(hop_stats, target_n)
                         : manager.compute_plan(hop_stats));
  // One wave = one control epoch, the engine's logical span clock (the
  // runtime has no virtual time; wall-clock is banned).  The span stays
  // open past run_protocol so the caller's post-wave work — drain fence,
  // auto-checkpoint — nests under it; callers close it via end_wave_span().
  ++control_epoch_;
  if (options_.trace != nullptr) {
    wave_span_ = options_.trace->begin_span(
        plan.version, obs::Phase::kWave, "wave", /*count=*/gather_members,
        /*bytes=*/0, static_cast<double>(control_epoch_));
  }
  if (options_.trace != nullptr) {
    options_.trace->record(plan.version, obs::Phase::kGather, "manager",
                           /*count=*/gather_members,
                           /*bytes=*/gathered_pairs * sizeof(core::PairCount));
    options_.trace->record(plan.version, obs::Phase::kCompute, "plan",
                           /*count=*/plan.graph_vertices,
                           /*bytes=*/plan.graph_edges);
  }
  if (plan.tables.empty() && !resizing) {
    if (scoped) {
      fleet_->mark_deployed(app_scope->id, plan);
    } else {
      manager.mark_deployed(plan);
    }
    end_wave_span();  // empty wave: nothing staged, close it here
    return plan;  // nothing observed yet; stay on current routing
  }

  // Advisor gate (Section 6 future work): a steady-state plan whose
  // predicted benefit does not cover its migration cost is not pushed.
  // Resize waves are never gated — the controller already decided — and
  // neither are tenant-scoped ones (the engine-wide measured locality the
  // advisor scores against is meaningless for one tenant's slice).
  if (!scoped && manager.options().advise_deploys && !resizing) {
    const auto [locality, balance] = measured_locality_balance();
    const core::AdvisorVerdict verdict =
        manager.advise(plan, locality, balance);
    if (!verdict.deploy) {
      LAR_INFO << "engine: advisor vetoed plan v" << plan.version
               << " (benefit " << verdict.predicted_benefit << " < cost "
               << verdict.migration_cost << ")";
      end_wave_span();  // vetoed wave: nothing deployed, close it here
      return plan;  // computed, observable, NOT deployed
    }
  }

  // Wave membership: everything live before or after the resize.  The spec
  // travels inside every ReconfMsg of the round so the bookkeeping needs no
  // shared state; `actives` stays empty on fixed-fleet rounds (no activity
  // change to apply).
  auto wave = std::make_shared<ElasticWave>();
  wave->target_servers = target_n;
  wave->members.resize(topology_.num_operators());
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    // Stagger rule (lar::fleet): a tenant-scoped wave's member lists are
    // empty outside the tenant's operator range.  Tenant DAGs share no
    // edges, so propagate_expected derived from these lists keeps the wave
    // entirely inside the tenant — no other tenant's POI ever enters
    // reconfiguration mode, stalls on a drain, or stashes a tuple.
    if (scoped && !app_scope->contains(op)) continue;
    wave->members[op] = placement_.active_instances(op, max_n);
  }
  if (resizing) {
    wave->actives.resize(topology_.num_operators());
    for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
      wave->actives[op] = placement_.active_instances(op, target_n);
    }
  }
  const std::shared_ptr<const ElasticWave> shared_wave = std::move(wave);

  // 3) + 4) SEND_RECONF -> ACK_RECONF (wave members only).
  std::size_t wave_size = 0;
  for (auto& poi : pois_) {
    if (poi->server >= max_n) continue;
    if (scoped && !app_scope->contains(poi->op)) continue;
    ++wave_size;
    ReconfMsg msg;
    msg.version = plan.version;
    msg.wave = shared_wave;
    for (const std::uint32_t eid : topology_.out_edges(poi->op)) {
      const EdgeSpec& edge = topology_.edges()[eid];
      if (edge.grouping != GroupingType::kFields) continue;
      if (auto it = plan.tables.find(edge.to); it != plan.tables.end()) {
        msg.tables.emplace(edge.to, it->second);
      }
    }
    if (elastic_) {
      // The POI's own post-commit table arms the residual-drain scan.  Every
      // elastic wave needs it, not just resizes: the manager's "before"
      // model (its last deployed tables, or plain hash before any deploy)
      // can disagree with where a restricted fleet actually put a key, and
      // the drain is what ships such strays to their post-commit owner.
      if (auto it = plan.tables.find(poi->op); it != plan.tables.end()) {
        msg.own_table = it->second;
      }
    }
    if (auto it = plan.moves.find(poi->op); it != plan.moves.end()) {
      for (const core::KeyMove& mv : it->second) {
        // A move whose nominal sender was dormant before this wave has no
        // one to ship it — the before-model mismatch again.  The key's real
        // state (if any) sits on a live instance and reaches `to` through
        // the residual drain instead; awaiting a MIGRATE that can never be
        // sent would hang the wave.
        if (elastic_ &&
            placement_.server_of(poi->op, mv.from) >= current_n) {
          continue;
        }
        if (mv.from == poi->index) msg.send.emplace_back(mv.key, mv.to);
        if (mv.to == poi->index) msg.receive.emplace_back(mv.key, mv.from);
      }
    }
    poi->inbox.push_unbounded(
        Message{std::make_unique<ReconfMsg>(std::move(msg))});
  }
  for (std::size_t i = 0; i < wave_size; ++i) {
    auto reply = manager_inbox_.pop();
    LAR_CHECK(reply.has_value());
    auto* ack = std::get_if<AckReconfReply>(&*reply);
    LAR_CHECK(ack != nullptr && ack->version == plan.version);
  }
  if (options_.trace != nullptr) {
    std::uint64_t table_entries = 0;
    for (const auto& [op, table] : plan.tables) table_entries += table->size();
    options_.trace->record(
        plan.version, obs::Phase::kStage, "manager",
        /*count=*/wave_size,
        /*bytes=*/table_entries * (sizeof(Key) + sizeof(InstanceIndex)));
  }

  // 5) PROPAGATE into the participating sources; the wave does the rest.
  for (const OperatorId src : sources_) {
    for (const InstanceIndex i : shared_wave->members[src]) {
      poi_at(src, i).inbox.push_unbounded(
          Message{PropagateMsg{plan.version}});
    }
  }
  for (std::size_t i = 0; i < wave_size; ++i) {
    auto reply = manager_inbox_.pop();
    LAR_CHECK(reply.has_value());
    auto* done = std::get_if<ReconfDoneReply>(&*reply);
    LAR_CHECK(done != nullptr && done->version == plan.version);
  }

  if (scoped) {
    fleet_->mark_deployed(app_scope->id, plan);
  } else {
    manager.mark_deployed(plan);
  }
  last_plan_version_ = plan.version;
  if (ckpt_enabled_) note_deployed_plan(plan, target_n);
  LAR_INFO << "engine: reconfiguration v" << plan.version << " deployed ("
           << plan.total_moves() << " key states migrated)";
  return plan;
}

void Engine::note_deployed_plan(const core::ReconfigurationPlan& plan,
                                std::uint32_t target_servers) {
  for (const auto& [op, table] : plan.tables) {
    deployed_tables_.insert_or_assign(op, table);
  }
  // The store persists the *union* — a tenant-scoped wave deploys one
  // tenant's slice, but a cold restart must recover every tenant's tables.
  // Cursors stay empty: the epoch files carry the per-POI cursor truth.
  core::ReconfigurationPlan persisted;
  persisted.version = plan.version;
  persisted.active_servers = target_servers;
  persisted.tables = deployed_tables_;
  options_.checkpoint->store().note_plan(persisted);
}

// ---------------------------------------------------------------------------
// lar::elastic: online scale-out / scale-in.
// ---------------------------------------------------------------------------

void Engine::require_elastic_capable() const {
  // The epoch-consistency story needs the fallback domain to ride inside
  // routing tables, and activity changes only know how to restrict table
  // and shuffle routers.
  LAR_CHECK(options_.fields_mode == FieldsRouting::kTable);
  for (const EdgeSpec& edge : topology_.edges()) {
    LAR_CHECK(edge.grouping == GroupingType::kFields ||
              edge.grouping == GroupingType::kShuffle);
  }
}

void Engine::set_inject_actives(std::uint32_t num_active) {
  std::lock_guard<std::mutex> lock(source_mutex_);
  source_actives_.resize(sources_.size());
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    source_actives_[s] = placement_.active_instances(sources_[s], num_active);
  }
}

void Engine::drain_fence() {
  std::uint64_t v = drains_in_flight_.load(std::memory_order_acquire);
  while (v != 0) {
    drains_in_flight_.wait(v, std::memory_order_acquire);
    v = drains_in_flight_.load(std::memory_order_acquire);
  }
}

std::pair<double, double> Engine::measured_locality_balance() const {
  std::uint64_t local = 0;
  std::uint64_t total = 0;
  for (const EdgeMetricsSnapshot& e : edge_totals()) {
    local += e.local;
    total += e.local + e.remote;
  }
  const double locality =
      total == 0 ? 0.0
                 : static_cast<double>(local) / static_cast<double>(total);

  // Worst per-operator processed-load imbalance (max/avg) over live
  // non-source operators — the same max/avg shape the plan's own imbalance
  // diagnostic uses.
  double balance = 1.0;
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    if (topology_.op(op).is_source) continue;
    std::uint64_t sum = 0;
    std::uint64_t peak = 0;
    std::uint32_t live = 0;
    for (const std::uint32_t parallelism = topology_.op(op).parallelism;
         live < parallelism; ++live) {
      const std::uint64_t p = pois_[poi_index_[op][live]]->processed.load(
          std::memory_order_relaxed);
      sum += p;
      peak = std::max(peak, p);
    }
    if (sum == 0 || live == 0) continue;
    const double avg = static_cast<double>(sum) / static_cast<double>(live);
    balance = std::max(balance, static_cast<double>(peak) / avg);
  }
  return {locality, balance};
}

core::ReconfigurationPlan Engine::add_servers(core::Manager& manager,
                                              std::uint32_t target_servers) {
  LAR_CHECK(started_ && !shut_down_);
  LAR_CHECK(target_servers > active_servers_ &&
            target_servers <= placement_.num_servers());
  require_elastic_capable();
  elastic_ = true;
  const std::uint32_t current = active_servers_;

  // Spin up the joining fleet first: the wave stages tables on it and the
  // plan may migrate state onto it.  No data can reach these POIs yet —
  // every live router still carries the old epoch's tables/restrictions.
  for (auto& poi : pois_) {
    if (poi->server < current || poi->server >= target_servers) continue;
    LAR_CHECK(!poi->active);
    if (poi->thread.joinable()) poi->thread.join();  // a prior retirement
    poi->active = true;
    poi->thread = std::thread([this, p = poi.get()] { poi_loop(*p); });
  }

  core::ReconfigurationPlan plan =
      run_protocol(manager, current, target_servers);

  // Only after the wave committed may the injector target new source
  // instances: flipping earlier would route through the stale constructor
  // routers into the pre-switch epoch.
  set_inject_actives(target_servers);
  drain_fence();
  active_servers_ = target_servers;
  scale_out_events_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace != nullptr) {
    options_.trace->record(plan.version, obs::Phase::kScaleOut, "manager",
                           /*count=*/target_servers);
  }
  LAR_INFO << "engine: scaled out " << current << " -> " << target_servers
           << " servers (plan v" << plan.version << ")";
  // Same post-wave rule as reconfigure(): the grown fleet re-checkpoints so
  // a crash never restores across the resize.
  if (ckpt_enabled_) checkpoint();
  end_wave_span();
  return plan;
}

core::ReconfigurationPlan Engine::retire_servers(core::Manager& manager,
                                                 std::uint32_t target_servers) {
  LAR_CHECK(started_ && !shut_down_);
  LAR_CHECK(target_servers >= 1 && target_servers < active_servers_);
  require_elastic_capable();
  elastic_ = true;
  const std::uint32_t current = active_servers_;

  // Stop feeding the retiring sources first; tuples still in their injector
  // lanes are processed before the shutdown below, which rides FIFO-after
  // the lane.
  set_inject_actives(target_servers);

  // Migrate-then-stop: the retirees are full wave members — they hand off
  // every owned key (planned moves plus the residual drain for keys the
  // manager never observed) before anything is stopped.
  core::ReconfigurationPlan plan =
      run_protocol(manager, current, target_servers);

  // The fence also covers chaos-delayed drain payloads: they re-queue on
  // *surviving* inboxes (drain targets are post-commit actives), so waiting
  // here guarantees none is stranded behind the shutdowns below.
  drain_fence();

  // An unlaned shutdown could overtake injector-lane data, so a retiring
  // source's shutdown goes FIFO-after its injector lane (under the
  // injector's producer lock): tuples injected before the stop are
  // processed, not stranded.
  {
    std::lock_guard<std::mutex> lock(source_mutex_);
    for (auto& poi : pois_) {
      if (poi->server < target_servers || poi->server >= current) continue;
      if (topology_.op(poi->op).is_source) {
        poi->inbox.push_unbounded_after(inject_lane_[poi->flat],
                                        Message{ShutdownMsg{}});
      } else {
        poi->inbox.push_unbounded(Message{ShutdownMsg{}});
      }
    }
  }
  for (auto& poi : pois_) {
    if (poi->server < target_servers || poi->server >= current) continue;
    if (poi->thread.joinable()) poi->thread.join();
    poi->active = false;
    if (options_.trace != nullptr) {
      options_.trace->record(plan.version, obs::Phase::kRetire,
                             obs::poi_entity(poi->op, poi->index),
                             /*count=*/1);
    }
  }
  active_servers_ = target_servers;
  scale_in_events_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace != nullptr) {
    options_.trace->record(plan.version, obs::Phase::kScaleIn, "manager",
                           /*count=*/target_servers);
  }
  LAR_INFO << "engine: retired to " << target_servers << " servers (plan v"
           << plan.version << ")";
  // Same post-wave rule as reconfigure(); this also re-anchors the replay
  // horizon so no recovery ever needs a replay from a retired sender.
  if (ckpt_enabled_) checkpoint();
  end_wave_span();
  return plan;
}

// ---------------------------------------------------------------------------
// lar::ckpt: aligned checkpoints + crash recovery.
// ---------------------------------------------------------------------------

void Engine::drop_data_in_flight(std::size_t n) {
  if (n == 0) return;
  driver_done_.fetch_add(n, std::memory_order_release);
  wake_flushers(driver_done_);
}

std::uint64_t Engine::checkpoint() {
  LAR_CHECK(started_ && !shut_down_);
  ckpt::CheckpointCoordinator* const coord = options_.checkpoint;
  LAR_CHECK(coord != nullptr);

  // Barrier membership: the live fleet.  Rides inside every barrier so each
  // POI derives its alignment count and forwarding fan-out from one
  // consistent snapshot, exactly like ElasticWave does for the
  // reconfiguration wave.
  auto members = std::make_shared<std::vector<std::vector<InstanceIndex>>>();
  members->resize(topology_.num_operators());
  std::size_t live = 0;
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    (*members)[op] = placement_.active_instances(op, active_servers_);
    live += (*members)[op].size();
  }

  const std::uint64_t epoch =
      coord->begin_epoch(active_servers_, last_plan_version_);
  // Incremental stores open chained epochs: delta-capable POIs then
  // snapshot only their dirtied keys.  The answer rides in the barrier.
  const bool full_epoch = !coord->store().epoch_is_delta(epoch);
  // One checkpoint = one control epoch.  The span nests under an open wave
  // span (the auto-checkpoint case) and encloses the coordinator's own
  // kCheckpoint commit record when both share the recorder.
  ++control_epoch_;
  const std::uint64_t ckpt_span =
      options_.trace != nullptr
          ? options_.trace->begin_span(last_plan_version_,
                                       obs::Phase::kCheckpoint, "barrier",
                                       /*count=*/epoch, /*bytes=*/0,
                                       static_cast<double>(control_epoch_))
          : 0;

  // Inject the barrier into every live source under the source mutex, so it
  // sits FIFO-after exactly the tuples inject() logged before it.
  {
    std::lock_guard<std::mutex> lock(source_mutex_);
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      for (const InstanceIndex i : source_actives_[s]) {
        Poi& p = poi_at(sources_[s], i);
        // FIFO-after the injector's lane: the barrier sits behind exactly
        // the tuples inject() logged before it.
        p.inbox.push_unbounded_after(
            inject_lane_[p.flat],
            Message{BarrierMsg{epoch, BarrierMsg::kCoordinator, members,
                               full_epoch}});
      }
    }
  }

  // One ack per live POI: its barrier aligned, its slice is in the store.
  for (std::size_t i = 0; i < live; ++i) {
    auto reply = manager_inbox_.pop();
    LAR_CHECK(reply.has_value());
    auto* ack = std::get_if<CheckpointAckReply>(&*reply);
    LAR_CHECK(ack != nullptr && ack->epoch == epoch);
  }
  coord->committed(epoch);
  checkpoints_committed_.fetch_add(1, std::memory_order_relaxed);
  // Header + source slices only — copying the whole epoch under the store
  // mutex would pause every concurrent reader for the full state volume.
  // `captured` is what this epoch's barrier round actually wrote (the raw
  // delta volume on incremental epochs, the fold notwithstanding).
  const ckpt::CheckpointMeta meta = coord->store().last_committed_meta();
  ckpt_states_captured_.fetch_add(meta.captured_states,
                                  std::memory_order_relaxed);
  ckpt_state_bytes_.fetch_add(meta.captured_state_bytes,
                              std::memory_order_relaxed);

  // Commit notification: every live POI truncates its replay buffers at the
  // watermarks it recorded when snapshotting this epoch.  The commit rides
  // unlaned, so a later epoch's barrier may overtake it; handle_commit then
  // leaves the buffers for that epoch's own commit.
  for (auto& poi : pois_) {
    if (!poi->active) continue;
    poi->inbox.push_unbounded(Message{CheckpointCommitMsg{epoch}});
  }

  // The inject log is the coordinator's own replay buffer; truncate it at
  // each source's snapshotted coordinator-link cursor.
  {
    const std::map<std::uint32_t, ckpt::PoiCheckpoint> slices =
        coord->store().last_committed_slices(source_flats_);
    std::lock_guard<std::mutex> lock(source_mutex_);
    for (const auto& [flat, pc] : slices) {
      std::uint64_t cut = 0;
      for (const auto& [link, seq] : pc.in_cursors) {
        if (link == BarrierMsg::kCoordinator) cut = seq;
      }
      std::vector<DataMsg>& log = inject_replay_[flat];
      const auto keep =
          std::find_if(log.begin(), log.end(),
                       [cut](const DataMsg& m) { return m.seq > cut; });
      log.erase(log.begin(), keep);
    }
  }
  if (ckpt_span != 0 && options_.trace != nullptr) {
    options_.trace->end_span(ckpt_span, static_cast<double>(control_epoch_));
  }
  // The aligned cut covers every tenant (barriers flow through all sources).
  if (fleet_ != nullptr) fleet_->note_checkpoint(epoch);
  return epoch;
}

void Engine::handle_barrier(Poi& poi, const BarrierMsg& msg) {
  if (poi.ckpt_epoch == 0) {
    // First barrier of the epoch: pin the membership and how many barriers
    // alignment needs (mirrors propagate_expected, but derived from the
    // barrier's own member list so dormant instances are never waited on).
    poi.ckpt_epoch = msg.epoch;
    poi.barrier_members = msg.members;
    poi.barriers_seen = 0;
    if (topology_.op(poi.op).is_source) {
      poi.barriers_expected = 1;  // the coordinator's injection
    } else {
      std::uint32_t expected = 0;
      for (const std::uint32_t eid : topology_.in_edges(poi.op)) {
        expected += static_cast<std::uint32_t>(
            (*msg.members)[topology_.edges()[eid].from].size());
      }
      poi.barriers_expected = expected;
    }
  }
  LAR_CHECK(poi.ckpt_epoch == msg.epoch);
  ++poi.barriers_seen;
  // Block the link: its post-barrier data waits out the alignment.  A
  // producer with several edges here sends its barriers back to back, so
  // blocking at the first one holds no pre-barrier data.
  poi.blocked_links.insert(msg.link);
  if (poi.barriers_seen < poi.barriers_expected) return;

  take_snapshot(poi, msg);

  // Forward the barrier on every out edge *before* touching the stashes, so
  // the held tuples' downstream effects land strictly after the successors'
  // own alignment points (per-producer FIFO).
  for (const std::uint32_t eid : topology_.out_edges(poi.op)) {
    const EdgeSpec& edge = topology_.edges()[eid];
    for (const InstanceIndex i : (*poi.barrier_members)[edge.to]) {
      Poi& target = poi_at(edge.to, i);
      // FIFO-after this POI's lane: the forwarded barrier publishes any
      // staged pre-barrier batch ahead of itself.
      target.inbox.push_unbounded_after(
          *poi.lane_to.find(target.flat),
          Message{BarrierMsg{msg.epoch, static_cast<std::uint32_t>(poi.flat),
                             poi.barrier_members, msg.full}});
    }
  }
  manager_inbox_.push_unbounded(ManagerReply{
      CheckpointAckReply{InstanceId{poi.op, poi.index}, msg.epoch}});

  // Release: alignment is over, the held suffixes resume in link order.
  // They already passed dedup when stashed, so they go straight to delivery
  // (the flush_delayed pattern).
  poi.ckpt_epoch = 0;
  poi.barriers_seen = 0;
  poi.barriers_expected = 0;
  poi.barrier_members.reset();
  poi.blocked_links.clear();
  std::vector<std::uint32_t> links;
  links.reserve(poi.align_stash.size());
  for (const auto& [link, held] : poi.align_stash) links.push_back(link);
  std::sort(links.begin(), links.end());
  for (const std::uint32_t link : links) {
    std::vector<DataMsg> held = std::move(poi.align_stash[link]);
    for (DataMsg& dm : held) deliver_data(poi, std::move(dm));
  }
  poi.align_stash.clear();
}

void Engine::restore_cursors(Poi& poi, const ckpt::PoiCheckpoint& pc) {
  for (const auto& [link, seq] : pc.in_cursors) {
    const std::size_t slot = link_slot(link, pois_.size());
    LAR_CHECK(slot < poi.last_seq.size());
    poi.last_seq[slot] = {seq, true};
  }
  for (const auto& [target, seq] : pc.out_cursors) {
    LAR_CHECK(target < poi.out_seq.size());
    poi.out_seq[target] = seq;
  }
}

void Engine::take_snapshot(Poi& poi, const BarrierMsg& msg) {
  ckpt::PoiCheckpoint pc;
  pc.op = poi.op;
  pc.index = poi.index;
  pc.flat = static_cast<std::uint32_t>(poi.flat);
  pc.table_version = poi.applied_version;
  // Reuse the migration codec: export without dropping.  owned_keys() is
  // ascending, so the slice is canonical for the store's golden byte runs.
  // On a delta epoch a delta-capable POI exports only the keys dirtied
  // since its previous snapshot — filtering the ascending owned list keeps
  // the slice canonical; the dirty set resets at EVERY snapshot (full
  // slices re-anchor the "since last snapshot" meaning too).
  pc.delta = !msg.full && poi.delta_capable;
  const std::vector<Key> keys = poi.logic->owned_keys();
  pc.states.reserve(keys.size());
  for (const Key key : keys) {
    if (pc.delta && !poi.dirty.contains(key)) continue;
    pc.states.emplace_back(key, poi.logic->export_key_state(key));
  }
  if (poi.delta_capable) poi.dirty.clear();
  for (std::size_t slot = 0; slot < poi.last_seq.size(); ++slot) {
    if (!poi.last_seq[slot].seen) continue;
    const std::uint32_t link = slot == pois_.size()
                                   ? BarrierMsg::kCoordinator
                                   : static_cast<std::uint32_t>(slot);
    // The dedup cursor advances when a tuple is *stashed*, not when it is
    // applied — so a link blocked mid-alignment may have post-barrier
    // tuples inside last_seq whose effects are not in this snapshot.  The
    // cut cursor is the last APPLIED sequence number: one before the first
    // held tuple (per-link seqs are consecutive).
    std::uint64_t cursor = poi.last_seq[slot].seq;
    if (const auto held = poi.align_stash.find(link);
        held != poi.align_stash.end() && !held->second.empty()) {
      cursor = held->second.front().seq - 1;
    }
    pc.in_cursors.emplace_back(link, cursor);
  }
  for (std::size_t target = 0; target < poi.out_seq.size(); ++target) {
    if (poi.out_seq[target] != 0) {
      pc.out_cursors.emplace_back(target, poi.out_seq[target]);
    }
  }
  poi.snap_out = poi.out_seq;
  poi.snap_epoch = msg.epoch;
  options_.checkpoint->store().add(msg.epoch, std::move(pc));
}

void Engine::handle_commit(Poi& poi, const CheckpointCommitMsg& msg) {
  // Truncate each replay buffer at the watermark recorded by this epoch's
  // snapshot.  Buffers are seq-ascending per target, so the cut is a prefix
  // erase; entries appended since the snapshot survive.  A commit that
  // arrives after this POI already snapshotted a later epoch truncates
  // nothing — that cut is not committed yet; its own commit truncates it.
  if (poi.snap_epoch != msg.epoch) return;
  for (std::size_t target = 0; target < poi.replay_out.size(); ++target) {
    std::vector<DataMsg>& buf = poi.replay_out[target];
    const std::uint64_t cut = poi.snap_out[target];
    const auto keep =
        std::find_if(buf.begin(), buf.end(),
                     [cut](const DataMsg& m) { return m.seq > cut; });
    buf.erase(buf.begin(), keep);
  }
}

void Engine::handle_replay_request(Poi& poi, const ReplayRequestMsg& msg) {
  Poi& target = *pois_[msg.target];
  const std::uint32_t lane = *poi.lane_to.find(msg.target);
  std::uint64_t replayed = 0;
  for (const DataMsg& dm : poi.replay_out[msg.target]) {
    bump(poi.sent, 1, std::memory_order_release);
    target.inbox.lane_push(lane, Message{DataMsg{dm}});
    ++replayed;
  }
  tuples_replayed_.fetch_add(replayed, std::memory_order_relaxed);
  // The end marker travels the same lane, so it arrives after both the
  // replay above and every pre-request live send (including any batch still
  // staged — push_unbounded_after publishes it first).
  target.inbox.push_unbounded_after(
      lane, Message{ReplayEndMsg{static_cast<std::uint32_t>(poi.flat)}});
}

void Engine::handle_replay_end(Poi& poi, const ReplayEndMsg& msg) {
  LAR_CHECK(poi.replay_pending.erase(msg.link) == 1);
  std::vector<DataMsg> held;
  if (auto it = poi.replay_stash.find(msg.link); it != poi.replay_stash.end()) {
    held = std::move(it->second);
    poi.replay_stash.erase(it);
  }
  // The union of replayed copies and live stragglers, in whatever arrival
  // order the crash produced: sort by sequence number and apply each effect
  // exactly once past the restored cursor.
  std::sort(held.begin(), held.end(),
            [](const DataMsg& a, const DataMsg& b) { return a.seq < b.seq; });
  Poi::LinkCursor& seen = poi.last_seq[link_slot(msg.link, pois_.size())];
  seen.seen = true;
  for (DataMsg& dm : held) {
    if (dm.seq <= seen.seq) {
      bump(poi.done, 1, std::memory_order_release);
      continue;
    }
    seen.seq = dm.seq;
    deliver_data(poi, std::move(dm));
  }
  if (poi.replay_pending.empty()) {
    manager_inbox_.push_unbounded(
        ManagerReply{RecoverDoneReply{InstanceId{poi.op, poi.index}}});
  }
}

void Engine::crash_and_recover(std::uint32_t server) {
  LAR_CHECK(started_ && !shut_down_);
  ckpt::CheckpointCoordinator* const coord = options_.checkpoint;
  LAR_CHECK(coord != nullptr);
  LAR_CHECK(server < active_servers_);

  // Recovery needs a committed checkpoint consistent with the current
  // routing epoch and fleet — guaranteed by the automatic checkpoint after
  // every wave: restoring across a wave would resurrect migrated keys under
  // their old owners (DESIGN.md §11).  The header is enough to validate;
  // the state itself is pulled below, filtered to the actual victims.
  const ckpt::CheckpointMeta meta = coord->store().last_committed_meta();
  LAR_CHECK(meta.committed && meta.epoch > 0);
  LAR_CHECK(meta.plan_version == last_plan_version_);
  LAR_CHECK(meta.active_servers == active_servers_);

  crashes_.fetch_add(1, std::memory_order_relaxed);
  // One crash+recovery = one control epoch; the coordinator's kCrash
  // recovery record and every replay-side leaf nest under this span.
  ++control_epoch_;
  const std::uint64_t crash_span =
      options_.trace != nullptr
          ? options_.trace->begin_span(last_plan_version_, obs::Phase::kCrash,
                                       "server" + std::to_string(server),
                                       /*count=*/meta.epoch, /*bytes=*/0,
                                       static_cast<double>(control_epoch_))
          : 0;
  LAR_INFO << "engine: crashing server " << server
           << " (recovering from checkpoint epoch " << meta.epoch << ")";

  // 1) Roll-back region: the crashed server's POIs plus the downstream
  // closure of their operators.  A recovered multi-input POI merges its
  // replayed links in a fresh interleaving, so its regenerated emissions
  // carry a different (sequence -> tuple) mapping than the lost originals —
  // exactly-once only holds against receivers whose state and cursors
  // rolled back to the same cut.  Receivers no rolled-back producer feeds
  // (in particular the surviving sources) keep running, and their replay
  // buffers — plus the coordinator's inject log — re-derive the region.
  std::vector<char> diverged(topology_.num_operators(), 0);
  std::vector<char> roll_all(topology_.num_operators(), 0);
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    for (const InstanceIndex i :
         placement_.active_instances(op, active_servers_)) {
      if (poi_at(op, i).server == server) {
        diverged[op] = 1;
        break;
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const EdgeSpec& edge : topology_.edges()) {
      if (diverged[edge.from] && !roll_all[edge.to]) {
        roll_all[edge.to] = 1;
        diverged[edge.to] = 1;
        changed = true;
      }
    }
  }
  std::vector<Poi*> victims;
  std::vector<char> rolled(pois_.size(), 0);
  for (auto& poi : pois_) {
    if (!poi->active) continue;
    if (poi->server == server || roll_all[poi->op]) {
      victims.push_back(poi.get());
      rolled[poi->flat] = 1;
    }
  }
  LAR_CHECK(!victims.empty());
  // Only the victims' slices leave the store (the filtered accessor): the
  // rest of the fleet keeps its live state, so copying it would be pure
  // mutex-held waste — on a large fleet, most of the epoch.
  std::vector<std::uint32_t> victim_flats;
  victim_flats.reserve(victims.size());
  for (const Poi* p : victims) {
    victim_flats.push_back(static_cast<std::uint32_t>(p->flat));
  }
  std::sort(victim_flats.begin(), victim_flats.end());
  const std::map<std::uint32_t, ckpt::PoiCheckpoint> snap_slices =
      coord->store().last_committed_slices(victim_flats);
  // 2) Kill.  The sentinel makes each POI thread exit where it stands:
  // everything queued behind it stays unprocessed, and the thread's stashes
  // and operator state lose their owner.  A victim can be parked mid-send on
  // a bounded push into another victim's full inbox, though, and would then
  // never pop its own sentinel — so until every victim has signalled exit we
  // keep sweeping the victims' inboxes (re-arming the sentinel a sweep may
  // have swallowed) to let blocked producers run on to their own death.
  std::uint64_t lost = 0;
  for (Poi* p : victims) {
    p->crash_exited.store(false, std::memory_order_relaxed);
    p->inbox.push_unbounded(Message{CrashMsg{}});
  }
  for (bool all_dead = false; !all_dead;) {
    all_dead = true;
    for (Poi* p : victims) {
      // Sweep every victim inbox — including the already-exited ones: a
      // still-live victim may be parked on a push into a dead sibling's
      // refilled queue, and only a fresh drain can release it.
      const bool alive = !p->crash_exited.load(std::memory_order_acquire);
      if (alive) all_dead = false;
      std::size_t dropped = 0;
      for (auto& m : p->inbox.drain()) {
        if (std::holds_alternative<DataMsg>(m)) ++dropped;
      }
      if (alive) p->inbox.push_unbounded(Message{CrashMsg{}});
      if (dropped != 0) {
        drop_data_in_flight(dropped);
        lost += dropped;
      }
    }
    if (!all_dead) std::this_thread::yield();
  }
  for (Poi* p : victims) {
    if (p->thread.joinable()) p->thread.join();
  }
  // Reap each victim's staged-but-unpublished lane batches now that its
  // thread is joined (lane_abort_staged's contract).  Every staged item is
  // a DataMsg already counted sent, and every victim's successors are
  // victims themselves (the rollback region is downstream-closed), so
  // nothing outside the region loses data.  Surviving producers' staged
  // batches toward victims publish later and are absorbed by the replay
  // stash's sequence sort + dedup.
  for (Poi* p : victims) {
    std::size_t aborted = 0;
    for (const Poi::OutLane& ol : p->flush_lanes) {
      aborted += ol.target->inbox.lane_abort_staged(ol.lane);
    }
    if (aborted != 0) {
      drop_data_in_flight(aborted);
      lost += aborted;
    }
  }
  std::uint64_t restored = 0;
  std::uint64_t restored_bytes = 0;
  std::vector<std::vector<std::uint32_t>> victim_links(victims.size());

  for (std::size_t v = 0; v < victims.size(); ++v) {
    Poi* const p = victims[v];
    // 3) Discard the dead inbox and every stash: all of it is covered by
    // the checkpoint + replay, and applying any of it now would double an
    // effect the replay re-delivers.
    std::size_t dropped = 0;
    for (auto& m : p->inbox.drain()) {
      if (std::holds_alternative<DataMsg>(m)) ++dropped;
    }
    for (const auto& [link, stash] : p->delayed) dropped += stash.held.size();
    for (const auto& [link, held] : p->align_stash) dropped += held.size();
    for (const auto& [link, held] : p->replay_stash) dropped += held.size();
    for (const auto& [key, held] : p->pending) dropped += held.size();
    p->delayed.clear();
    p->align_stash.clear();
    p->replay_stash.clear();
    p->pending.clear();
    p->pending_count = 0;
    p->spilled.clear();
    p->awaiting.clear();
    p->staged.reset();
    p->ckpt_epoch = 0;
    p->barriers_seen = 0;
    p->barriers_expected = 0;
    p->barrier_members.reset();
    p->blocked_links.clear();
    p->replay_pending.clear();
    for (std::vector<DataMsg>& buf : p->replay_out) buf.clear();
    p->snap_out.assign(pois_.size(), 0);
    p->snap_epoch = 0;
    p->last_seq.assign(pois_.size() + 1, {});
    p->out_seq.assign(pois_.size(), 0);
    // The pre-crash dirty set is scheduling-dependent (how far the thread
    // ran past the cut before dying); replay deterministically re-marks
    // exactly the post-cut effects, so recovery starts it clean.
    p->dirty.clear();
    drop_data_in_flight(dropped);
    lost += dropped;

    // 4) Restore: a fresh operator object, the checkpointed key states and
    // both cursor sets.  The restored out cursors make regenerated
    // emissions reuse their original sequence numbers, so downstream dedup
    // absorbs the overlap; replay_out refills as reprocessing re-sends, so
    // the buffer stays complete for a later crash of a successor.
    p->logic = factory_(p->op, p->index);
    LAR_CHECK(p->logic != nullptr);
    const auto pc_it = snap_slices.find(static_cast<std::uint32_t>(p->flat));
    LAR_CHECK(pc_it != snap_slices.end());
    const ckpt::PoiCheckpoint& pc = pc_it->second;
    for (const auto& [key, state] : pc.states) {
      p->logic->import_key_state(key, state);
      ++restored;
      restored_bytes += state.size();
    }
    restore_cursors(*p, pc);

    // 5) Arm replay on every producer link *outside* the region (a
    // rolled-back producer instead regenerates in order from its own
    // restored cursors, which the restored last_seq accepts seamlessly).
    // Sources replay from the coordinator's inject log.
    for (const std::uint32_t eid : topology_.in_edges(p->op)) {
      const OperatorId pred = topology_.edges()[eid].from;
      for (const InstanceIndex i :
           placement_.active_instances(pred, active_servers_)) {
        const Poi& sender = poi_at(pred, i);
        if (rolled[sender.flat]) continue;
        p->replay_pending.insert(static_cast<std::uint32_t>(sender.flat));
      }
    }
    if (topology_.op(p->op).is_source) {
      p->replay_pending.insert(BarrierMsg::kCoordinator);
    }
    victim_links[v].assign(p->replay_pending.begin(),
                           p->replay_pending.end());
    std::sort(victim_links[v].begin(), victim_links[v].end());
    pois_recovered_.fetch_add(1, std::memory_order_relaxed);
  }
  states_restored_.fetch_add(restored, std::memory_order_relaxed);
  states_restored_bytes_.fetch_add(restored_bytes, std::memory_order_relaxed);
  tuples_lost_at_crash_.fetch_add(lost, std::memory_order_relaxed);

  // 6) Respawn.  replay_pending is in place, so anything a live sender has
  // pushed since the drain stashes until its link's replay completes.
  for (Poi* p : victims) {
    p->thread = std::thread([this, p] { poi_loop(*p); });
  }

  // 7) Trigger the replays on the senders' own threads (FIFO with their
  // live sends), and replay the inject log ourselves for crashed sources.
  const std::uint64_t replayed_before =
      tuples_replayed_.load(std::memory_order_relaxed);
  std::size_t recovering = 0;
  for (std::size_t v = 0; v < victims.size(); ++v) {
    Poi* const p = victims[v];
    if (!victim_links[v].empty()) ++recovering;
    for (const std::uint32_t link : victim_links[v]) {
      if (link == BarrierMsg::kCoordinator) continue;
      pois_[link]->inbox.push_unbounded(
          Message{ReplayRequestMsg{static_cast<std::uint32_t>(p->flat)}});
    }
    if (topology_.op(p->op).is_source) {
      // Replay the inject log on the injector's own lane, holding the
      // inject mutex for the whole run: the lane's producer domain is
      // source_mutex_, so log order, lane order and any racing inject()
      // stay mutually FIFO, and the end marker (which publishes the lane
      // first) lands after exactly the replayed prefix.  The respawned
      // source never takes this mutex, so the bounded pushes cannot
      // deadlock.
      std::lock_guard<std::mutex> lock(source_mutex_);
      const std::vector<DataMsg>& log = inject_replay_[p->flat];
      tuples_replayed_.fetch_add(log.size(), std::memory_order_relaxed);
      for (const DataMsg& dm : log) {
        driver_sent_.fetch_add(1, std::memory_order_release);
        p->inbox.lane_push(inject_lane_[p->flat], Message{DataMsg{dm}});
      }
      p->inbox.push_unbounded_after(
          inject_lane_[p->flat],
          Message{ReplayEndMsg{BarrierMsg::kCoordinator}});
    }
  }

  // 8) Block until every recovering POI has drained all its replays.
  for (std::size_t i = 0; i < recovering; ++i) {
    auto reply = manager_inbox_.pop();
    LAR_CHECK(reply.has_value());
    auto* done = std::get_if<RecoverDoneReply>(&*reply);
    LAR_CHECK(done != nullptr);
  }

  coord->recovered(
      meta.epoch, server, victims.size(), restored, restored_bytes,
      tuples_replayed_.load(std::memory_order_relaxed) - replayed_before);
  if (crash_span != 0 && options_.trace != nullptr) {
    options_.trace->end_span(crash_span, static_cast<double>(control_epoch_));
  }
  LAR_INFO << "engine: server " << server << " recovered (" << victims.size()
           << " POIs, " << restored << " states restored)";
}

std::optional<std::uint32_t> Engine::maybe_crash() {
  chaos::Injector* const inj = options_.injector;
  if (inj == nullptr || !ckpt_enabled_) return std::nullopt;
  for (std::uint32_t s = 0; s < active_servers_; ++s) {
    if (inj->fire(chaos::FaultSite::kServerCrash, s)) {
      crash_and_recover(s);
      return s;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

std::vector<EdgeMetricsSnapshot> Engine::edge_totals() const {
  std::vector<EdgeMetricsSnapshot> edges(topology_.edges().size());
  for (const auto& poi : pois_) {
    const auto& out = topology_.out_edges(poi->op);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const Poi::EdgeTraffic& t = poi->traffic[k];
      EdgeMetricsSnapshot& e = edges[out[k]];
      e.local += t.local.load(std::memory_order_relaxed);
      e.remote += t.remote.load(std::memory_order_relaxed);
      e.remote_bytes += t.remote_bytes.load(std::memory_order_relaxed);
    }
  }
  return edges;
}

EngineMetrics Engine::metrics() const {
  EngineMetrics out;
  out.tuples_injected = tuples_injected_.load(std::memory_order_relaxed);
  out.tuples_buffered = tuples_buffered_.load(std::memory_order_relaxed);
  out.states_migrated = states_migrated_.load(std::memory_order_relaxed);
  out.states_migrated_bytes =
      states_migrated_bytes_.load(std::memory_order_relaxed);
  out.tuples_spilled = tuples_spilled_.load(std::memory_order_relaxed);
  out.tuples_spilled_bytes =
      tuples_spilled_bytes_.load(std::memory_order_relaxed);
  out.data_dups_dropped = data_dups_dropped_.load(std::memory_order_relaxed);
  out.migrates_deduped = migrates_deduped_.load(std::memory_order_relaxed);
  out.migrate_redeliveries =
      migrate_redeliveries_.load(std::memory_order_relaxed);
  out.stats_reports_lost = stats_reports_lost_.load(std::memory_order_relaxed);
  out.stats_reports_stale =
      stats_reports_stale_.load(std::memory_order_relaxed);
  out.active_servers = active_servers_;
  out.states_drained = states_drained_.load(std::memory_order_relaxed);
  out.states_drained_bytes =
      states_drained_bytes_.load(std::memory_order_relaxed);
  out.scale_out_events = scale_out_events_.load(std::memory_order_relaxed);
  out.scale_in_events = scale_in_events_.load(std::memory_order_relaxed);
  out.checkpoints_committed =
      checkpoints_committed_.load(std::memory_order_relaxed);
  out.ckpt_states_captured =
      ckpt_states_captured_.load(std::memory_order_relaxed);
  out.ckpt_state_bytes = ckpt_state_bytes_.load(std::memory_order_relaxed);
  out.crashes = crashes_.load(std::memory_order_relaxed);
  out.pois_recovered = pois_recovered_.load(std::memory_order_relaxed);
  out.states_restored = states_restored_.load(std::memory_order_relaxed);
  out.states_restored_bytes =
      states_restored_bytes_.load(std::memory_order_relaxed);
  out.tuples_replayed = tuples_replayed_.load(std::memory_order_relaxed);
  out.tuples_lost_at_crash =
      tuples_lost_at_crash_.load(std::memory_order_relaxed);
  out.edges = edge_totals();
  out.instance_processed.resize(topology_.num_operators());
  for (const auto& poi : pois_) {
    auto& per_op = out.instance_processed[poi->op];
    if (per_op.size() < poi->index + 1) per_op.resize(poi->index + 1);
    per_op[poi->index] = poi->processed.load(std::memory_order_relaxed);
  }
  return out;
}

void Engine::publish_metrics() {
  obs::Registry* reg = options_.registry;
  if (reg == nullptr) return;

  // Process-wide counters ratchet forward from the engine's own atomics;
  // advance_to keeps repeated publishes monotonic.
  reg->counter("lar_tuples_injected_total", {},
               "Tuples fed to source POIs via inject().")
      .advance_to(tuples_injected_.load(std::memory_order_relaxed));
  reg->counter("lar_tuples_buffered_total", {},
               "Tuples parked behind an in-flight key-state migration.")
      .advance_to(tuples_buffered_.load(std::memory_order_relaxed));
  reg->counter("lar_states_migrated_total", {},
               "Key states shipped between sibling instances.")
      .advance_to(states_migrated_.load(std::memory_order_relaxed));
  reg->counter("lar_state_migrated_bytes_total", {},
               "Serialized size of all migrated key states.")
      .advance_to(states_migrated_bytes_.load(std::memory_order_relaxed));

  // Chaos / recovery families only exist when the feature is configured, so
  // a chaos-free engine's export stays byte-identical to the pre-chaos one.
  if (options_.injector != nullptr || options_.buffered_tuples_cap != 0) {
    reg->counter("lar_tuples_spilled_total", {},
                 "Buffered tuples serialized past the in-memory cap.")
        .advance_to(tuples_spilled_.load(std::memory_order_relaxed));
    reg->counter("lar_tuples_spilled_bytes_total", {},
                 "Serialized size of all spilled buffered tuples.")
        .advance_to(tuples_spilled_bytes_.load(std::memory_order_relaxed));
    reg->counter("lar_data_duplicates_dropped_total", {},
                 "Chaos-duplicated data tuples dropped by link dedup.")
        .advance_to(data_dups_dropped_.load(std::memory_order_relaxed));
    reg->counter("lar_migrates_deduped_total", {},
                 "Duplicate MIGRATE payloads dropped before import.")
        .advance_to(migrates_deduped_.load(std::memory_order_relaxed));
    reg->counter("lar_migrate_redeliveries_total", {},
                 "MIGRATE payloads re-queued by an injected delay.")
        .advance_to(migrate_redeliveries_.load(std::memory_order_relaxed));
    reg->counter("lar_stats_reports_lost_total", {},
                 "SEND_METRICS reports lost before plan computation.")
        .advance_to(stats_reports_lost_.load(std::memory_order_relaxed));
    reg->counter("lar_stats_reports_stale_total", {},
                 "SEND_METRICS reports merged one gather epoch late.")
        .advance_to(stats_reports_stale_.load(std::memory_order_relaxed));
  }

  // Elastic families only exist once the engine has been elastic, so a
  // fixed-fleet engine's export stays byte-identical to the pre-elastic one.
  if (elastic_) {
    reg->gauge("lar_elastic_active_servers", {},
               "Live-server count (the active prefix [0, n)).")
        .set(static_cast<double>(active_servers_));
    reg->counter("lar_elastic_states_drained_total", {},
                 "Key states shipped by the elastic residual drain.")
        .advance_to(states_drained_.load(std::memory_order_relaxed));
    reg->counter("lar_elastic_states_drained_bytes_total", {},
                 "Serialized size of all residual-drained key states.")
        .advance_to(states_drained_bytes_.load(std::memory_order_relaxed));
    reg->counter("lar_elastic_scale_events_total", {{"direction", "out"}},
                 "Completed scale-out / scale-in waves.")
        .advance_to(scale_out_events_.load(std::memory_order_relaxed));
    reg->counter("lar_elastic_scale_events_total", {{"direction", "in"}},
                 "Completed scale-out / scale-in waves.")
        .advance_to(scale_in_events_.load(std::memory_order_relaxed));
  }

  // lar::ckpt families only exist when a coordinator is attached, so a
  // checkpoint-free engine's export stays byte-identical to the pre-ckpt
  // one (the coordinator itself owns lar_ckpt_checkpoints_total etc.).
  if (ckpt_enabled_) {
    reg->counter("lar_ckpt_states_captured_total", {},
                 "Per-key states captured into checkpoint snapshots.")
        .advance_to(ckpt_states_captured_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_state_bytes_total", {},
                 "Serialized size of all checkpointed key states.")
        .advance_to(ckpt_state_bytes_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_crashes_total", {},
                 "server_crash faults taken (each recovered in place).")
        .advance_to(crashes_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_pois_recovered_total", {},
                 "POIs killed and respawned across all crashes.")
        .advance_to(pois_recovered_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_states_restored_total", {},
                 "Key states restored from committed checkpoints.")
        .advance_to(states_restored_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_states_restored_bytes_total", {},
                 "Serialized size of all restored key states.")
        .advance_to(states_restored_bytes_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_tuples_replayed_total", {},
                 "Data tuples re-pushed from replay buffers during recovery.")
        .advance_to(tuples_replayed_.load(std::memory_order_relaxed));
    reg->counter("lar_ckpt_tuples_lost_at_crash_total", {},
                 "Tuples discarded from crashed inboxes (covered by replay).")
        .advance_to(tuples_lost_at_crash_.load(std::memory_order_relaxed));
  }

  // lar::fleet: every per-tenant family below gains an `app` label (tenant
  // of the edge's producer / the instance's operator), and per-tenant
  // injected counts publish next to the engine-wide total.  All of it is
  // fleet-only, so single-tenant exports stay byte-identical.
  if (fleet_ != nullptr) {
    std::lock_guard<std::mutex> lock(source_mutex_);
    for (fleet::AppId app = 0; app < fleet_->num_apps(); ++app) {
      reg->counter("lar_tuples_injected_total",
                   {{"app", fleet_->app(app).name}},
                   "Tuples fed to source POIs via inject().")
          .advance_to(app_tuples_injected_[app]);
    }
  }

  const std::vector<EdgeMetricsSnapshot> edges = edge_totals();
  for (std::size_t eid = 0; eid < edges.size(); ++eid) {
    const EdgeSpec& edge = topology_.edges()[eid];
    const std::string name =
        topology_.op(edge.from).name + "->" + topology_.op(edge.to).name;
    obs::Labels edge_labels = {{"edge", name}};
    if (fleet_ != nullptr) {
      edge_labels.push_back(
          {"app", fleet_->app(fleet_->app_of(edge.from)).name});
    }
    const std::uint64_t local = edges[eid].local;
    const std::uint64_t remote = edges[eid].remote;
    obs::Labels local_labels = edge_labels;
    local_labels.push_back({"path", "local"});
    reg->counter("lar_edge_tuples_total", std::move(local_labels),
                 "Tuples moved over an edge, split by local/remote hop.")
        .advance_to(local);
    obs::Labels remote_labels = edge_labels;
    remote_labels.push_back({"path", "remote"});
    reg->counter("lar_edge_tuples_total", std::move(remote_labels),
                 "Tuples moved over an edge, split by local/remote hop.")
        .advance_to(remote);
    reg->counter("lar_edge_remote_bytes_total", edge_labels,
                 "Serialized bytes for cross-server hops of an edge.")
        .advance_to(edges[eid].remote_bytes);
    if (local + remote > 0) {
      reg->gauge("lar_edge_locality_ratio", edge_labels,
                 "Fraction of an edge's tuples delivered server-locally "
                 "(paper Figure 8).")
          .set(static_cast<double>(local) /
                static_cast<double>(local + remote));
    }
  }

  for (const auto& poi : pois_) {
    obs::Labels labels = {{"op", topology_.op(poi->op).name},
                          {"inst", std::to_string(poi->index)}};
    if (fleet_ != nullptr) {
      labels.push_back({"app", fleet_->app(fleet_->app_of(poi->op)).name});
    }
    reg->counter("lar_tuples_processed_total", labels,
                 "Tuples processed per operator instance.")
        .advance_to(poi->processed.load(std::memory_order_relaxed));
    // Scheduling-dependent: byte-stable exports filter `lar_queue_` out.
    reg->gauge("lar_queue_depth_hwm", std::move(labels),
               "Deepest a POI inbox has ever been (items).")
        .max_of(static_cast<double>(poi->inbox.high_water_mark()));
  }

  // obs v2: the ring-drop counter registers only once something actually
  // dropped (byte-identity for every run that fits the ring); the timeline
  // ticks at the publish epoch — the engine's only deterministic clock —
  // and the probe reads the tick it just appended.
  if (options_.trace != nullptr && options_.trace->dropped() > 0) {
    reg->counter("lar_trace_dropped_total", {},
                 "Trace events evicted from the bounded recorder ring.")
        .advance_to(options_.trace->dropped());
  }
  if (options_.timeline != nullptr) {
    ++publish_epoch_;
    options_.timeline->tick(*reg, static_cast<double>(publish_epoch_));
    if (options_.probe != nullptr) {
      options_.probe->evaluate(*options_.timeline, *reg);
    }
  }
}

}  // namespace lar::runtime
