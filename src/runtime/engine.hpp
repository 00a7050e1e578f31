// The threaded execution engine: a miniature Storm-like runtime in one
// process.
//
// Every operator instance (POI) runs on its own thread with a bounded FIFO
// inbox carrying both data tuples and control messages.  Servers are
// *logical*: a tuple moving between POIs on the same server is handed over
// by move (the paper's "address in memory" fast path), while a tuple whose
// destination POI lives on a different server is serialized, byte-counted
// and parsed back — the full cost of a network hop minus the wire.
//
// The engine hosts the paper's online reconfiguration protocol end to end
// (Figure 6 / Algorithm 1): metric collection, plan computation via
// core::Manager, configuration staging with acks, the DAG-ordered PROPAGATE
// wave, per-key state migration between sibling instances, and buffering of
// tuples whose key state has not arrived yet — all while the data stream
// keeps flowing.
//
// This engine is the repository's *correctness* substrate (its invariants
// are what the integration tests exercise); throughput figures come from
// lar::sim, because wall-clock numbers from a thread-per-POI runtime on an
// arbitrary CI machine would measure the host, not the algorithm.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaos/injector.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/manager.hpp"
#include "core/plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "runtime/message.hpp"
#include "runtime/operator.hpp"
#include "runtime/queue.hpp"
#include "topology/placement.hpp"
#include "topology/routing.hpp"
#include "topology/topology.hpp"

namespace lar::runtime {

struct EngineOptions {
  /// Per-POI inbox capacity for data tuples (control messages bypass the
  /// bound so the reconfiguration wave can never deadlock against back
  /// pressure).
  std::size_t queue_capacity = 4096;

  /// Tuples staged per SPSC lane before the producer publishes them to the
  /// consumer in one atomic store (the threaded analogue of the sim's
  /// 256-tuple windows).  1 = publish every push, the degenerate unbatched
  /// mode.  Purely a hand-off granularity: batches are always flushed
  /// before any control push and before a POI blocks on an empty inbox, so
  /// ordering, liveness, and every deterministic output are independent of
  /// the value.
  std::size_t lane_batch = 32;

  /// Capacity of each POI's pair-statistics sketch (0 = exact).
  std::size_t pair_stats_capacity = 1 << 16;

  /// Router used on fields-grouped edges before the first reconfiguration.
  FieldsRouting fields_mode = FieldsRouting::kTable;

  /// How inject() picks the source instance.
  SourceMode source_mode = SourceMode::kRoundRobin;

  std::uint64_t seed = 1;

  /// Observability sinks (may be null = the no-op disabled mode; both must
  /// outlive the engine).  The per-tuple data path stays registry-free
  /// either way: counters are engine-owned per-POI atomics that
  /// publish_metrics() copies into `registry`, and `trace` only sees
  /// reconfiguration-protocol steps (ack, propagate hop, migration,
  /// buffer/drain — see obs/trace.hpp).
  obs::Registry* registry = nullptr;
  obs::TraceRecorder* trace = nullptr;

  /// Timeline store (obs v2; null = disabled, must outlive the engine).
  /// When attached — together with a registry — every publish_metrics()
  /// call appends one tick at vtime = publish epoch (a counter of publish
  /// calls, the engine's only deterministic clock).  Spans on `trace`
  /// follow the same opt-in: enable them on the recorder and every
  /// reconfiguration wave / resize / checkpoint / crash-recovery becomes
  /// one span tree (vtimes are control epochs, durations unmodeled).
  obs::Timeline* timeline = nullptr;

  /// Health probe (obs v2; null = disabled, must outlive the engine).
  /// Evaluated right after each timeline tick; requires `timeline` and
  /// `registry`.  Publishes `lar_health_*` / `lar_alerts_total` into
  /// `registry`.
  obs::Probe* probe = nullptr;

  /// Fault injector (null = chaos disabled; must outlive the engine).  The
  /// disabled mode is a structural no-op: every chaos hook sits behind one
  /// `injector == nullptr` branch, the same pattern as `registry`, so the
  /// data hot path is untouched when no faults are configured.
  chaos::Injector* injector = nullptr;

  /// Hard cap on *in-memory* tuples buffered per POI behind in-flight state
  /// migrations (Section 3.4 buffering).  0 = unlimited (the default,
  /// byte-identical to the pre-chaos engine).  Overflow tuples are not
  /// dropped: they spill, serialized, into a per-key store and drain after
  /// the in-memory ones — serialization is the spill cost, exactly-once is
  /// preserved.
  std::size_t buffered_tuples_cap = 0;

  /// Checkpoint coordinator (lar::ckpt; null = checkpointing disabled, the
  /// default; must outlive the engine).  When attached, data tuples carry
  /// link sequence stamps, senders keep bounded per-link replay buffers
  /// (truncated at every checkpoint commit), and checkpoint() /
  /// crash_and_recover() become available.  The disabled mode follows the
  /// registry/injector pattern: one null-check branch per hook, no data-path
  /// cost, no `lar_ckpt_*` metric families.
  ckpt::CheckpointCoordinator* checkpoint = nullptr;

  /// Multi-tenant fleet (lar::fleet; null = single-tenant, the default;
  /// must outlive the engine).  When attached, the engine must be deployed
  /// over fleet->combined_topology() / fleet->combined_placement();
  /// inject_app() / reconfigure_app() become available, reconfiguration
  /// waves are per-tenant and staggered (app-scoped wave control over the
  /// shared channels/lanes), and every per-op / per-edge metric family
  /// gains an `app` label.  The disabled mode is the usual structural
  /// no-op: one null-check per hook, byte-identical output.
  fleet::FleetManager* fleet = nullptr;

  /// Live-server count at startup (lar::elastic).  0 = all servers of the
  /// placement (the default, byte-identical to the fixed-fleet engine).
  /// A value in (0, num_servers) starts the engine in elastic mode with
  /// only the server prefix [0, active_servers) running: dormant POIs get
  /// no thread, sources and shuffle edges restrict to active instances,
  /// and fields edges start from fallback-domain tables.  Requires
  /// fields_mode == kTable and only kFields / kShuffle groupings.
  std::uint32_t active_servers = 0;
};

/// Copyable snapshot of one edge's traffic counters.
struct EdgeMetricsSnapshot {
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t remote_bytes = 0;

  [[nodiscard]] double locality() const noexcept {
    const std::uint64_t total = local + remote;
    return total == 0 ? 0.0
                      : static_cast<double>(local) / static_cast<double>(total);
  }
};

/// Snapshot of all engine counters.
struct EngineMetrics {
  std::vector<EdgeMetricsSnapshot> edges;                    // per edge id
  std::vector<std::vector<std::uint64_t>> instance_processed;  // [op][inst]
  std::uint64_t tuples_injected = 0;

  /// Tuples that arrived for a key whose migrated state had not landed yet
  /// and were parked until it did (Section 3.4's buffering).  A measure of
  /// how much the stream overlapped with reconfigurations.
  std::uint64_t tuples_buffered = 0;

  /// Key states shipped between sibling instances across all
  /// reconfigurations.
  std::uint64_t states_migrated = 0;

  /// Serialized size of all migrated key states, in bytes.
  std::uint64_t states_migrated_bytes = 0;

  // --- chaos / recovery accounting (all zero without an injector or a
  // buffered_tuples_cap) ----------------------------------------------------

  /// Buffered tuples that overflowed the in-memory cap and were serialized
  /// into the per-key spill store (later drained; never dropped).
  std::uint64_t tuples_spilled = 0;
  std::uint64_t tuples_spilled_bytes = 0;

  /// Chaos-duplicated data tuples the receiver's link dedup dropped.
  std::uint64_t data_dups_dropped = 0;

  /// Duplicate MIGRATE payloads dropped before import (idempotence).
  std::uint64_t migrates_deduped = 0;

  /// MIGRATE payloads re-queued behind the receiver's inbox by kMigrateDelay.
  std::uint64_t migrate_redeliveries = 0;

  /// SEND_METRICS reports lost (plan computed from partial statistics) or
  /// delayed into the next gather epoch (merged stale).
  std::uint64_t stats_reports_lost = 0;
  std::uint64_t stats_reports_stale = 0;

  // --- elasticity (all zero / full fleet unless lar::elastic is used) ------

  /// Current live-server count (the active prefix [0, n)).
  std::uint32_t active_servers = 0;

  /// Key states shipped by the residual drain — owned keys the new epoch
  /// routes elsewhere that had no explicit move entry (e.g. keys the
  /// manager never observed, drained off a retiring instance).
  std::uint64_t states_drained = 0;
  std::uint64_t states_drained_bytes = 0;

  /// Completed add_servers() / retire_servers() waves.
  std::uint64_t scale_out_events = 0;
  std::uint64_t scale_in_events = 0;

  // --- lar::ckpt (all zero without a checkpoint coordinator) ---------------

  /// Committed aligned checkpoint epochs.
  std::uint64_t checkpoints_committed = 0;

  /// Per-key states captured into checkpoint snapshots (sum over epochs).
  std::uint64_t ckpt_states_captured = 0;
  std::uint64_t ckpt_state_bytes = 0;

  /// server_crash events taken (every one is recovered before the call
  /// returns).
  std::uint64_t crashes = 0;

  /// POIs rolled back and respawned across all crashes (the crashed
  /// server's POIs plus each crash's downstream-closure region).
  std::uint64_t pois_recovered = 0;

  /// Per-key states restored from the last committed checkpoint.
  std::uint64_t states_restored = 0;
  std::uint64_t states_restored_bytes = 0;

  /// Data tuples re-pushed from sender replay buffers (and the source
  /// inject log) during recovery.  Receiver-side dedup drops the subset
  /// whose effects survived, so replayed >= re-applied.
  std::uint64_t tuples_replayed = 0;

  /// Data tuples discarded from crashed inboxes/stashes (all of them are
  /// covered by replay — nothing is lost, this is the crash's blast radius).
  std::uint64_t tuples_lost_at_crash = 0;
};

/// Deploys and runs a Topology.  Lifecycle: construct -> start() ->
/// inject()* / reconfigure()* -> flush() -> shutdown().
class Engine {
 public:
  Engine(const Topology& topology, const Placement& placement,
         OperatorFactory factory, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Spawns one thread per POI.
  void start();

  /// Feeds one tuple to a source POI (blocking under back pressure).
  /// Thread-safe with respect to itself and reconfigure().
  void inject(Tuple tuple);

  /// Blocks until every injected tuple has been fully processed (including
  /// tuples buffered behind in-flight state migrations).
  void flush();

  /// Runs one full online reconfiguration round against the live stream:
  /// GET_METRICS -> compute plan -> SEND_RECONF/ACK -> PROPAGATE wave with
  /// state migration.  Blocks until every POI reports completion.  The data
  /// stream is NOT paused.  Returns the deployed plan.
  core::ReconfigurationPlan reconfigure(core::Manager& manager);

  // --- lar::elastic: online scale-out / scale-in ---------------------------

  /// Grows the live fleet to the server prefix [0, target_servers): spawns
  /// the dormant POIs' threads, re-plans via manager.plan_for(), and runs
  /// one reconfiguration wave that swaps in epoch-consistent tables (and
  /// shuffle restrictions) plus migrates state onto the new servers.  The
  /// data stream is NOT paused.  Blocks until the wave and all residual
  /// state drains complete.  Requires fields_mode == kTable and only
  /// kFields / kShuffle groupings.
  core::ReconfigurationPlan add_servers(core::Manager& manager,
                                        std::uint32_t target_servers);

  /// Shrinks the live fleet to the prefix [0, target_servers).  Retirement
  /// is migrate-then-stop: the retiring POIs take part in the wave, ship
  /// every owned key state to the surviving instances (planned moves plus
  /// the residual drain), and only then receive their shutdown — no tuple
  /// and no state is lost.  Blocks until the retirees have joined.
  core::ReconfigurationPlan retire_servers(core::Manager& manager,
                                           std::uint32_t target_servers);

  /// Current live-server count (the active prefix).
  [[nodiscard]] std::uint32_t active_servers() const noexcept {
    return active_servers_;
  }

  // --- lar::fleet: multi-tenant serving ------------------------------------

  /// Feeds one tuple to one of tenant `app`'s source POIs (blocking under
  /// back pressure).  Per-tenant round-robin over the tenant's own sources
  /// with a per-tenant sequence; otherwise identical to inject() — same
  /// mutex, same checkpoint inject log, same lane discipline.  Requires
  /// options().fleet.
  void inject_app(fleet::AppId app, Tuple tuple);

  /// Runs one online reconfiguration round scoped to tenant `app`: gathers
  /// statistics from EVERY live POI (pair statistics are cumulative since
  /// each tenant's own last wave, so a full gather is the complete joint
  /// picture), computes the joint plan via the FleetManager, and deploys
  /// only this tenant's slice.  The wave's member lists are empty outside
  /// the tenant's operator range, so no other tenant's POI receives
  /// SEND_RECONF or PROPAGATE and no other tenant's data plane stalls —
  /// the stagger rule (DESIGN.md §15).  Never resizes: the active prefix
  /// is fleet-shared, so resizes go through resize_fleet().  Requires
  /// options().fleet.
  core::ReconfigurationPlan reconfigure_app(fleet::AppId app);

  /// Whole-fleet elastic resize: one joint wave over ALL tenants (slicing
  /// a resize would leave other tenants hashing over a stale fallback
  /// domain) via add_servers/retire_servers on the fleet's joint planner,
  /// with every tenant's plan version advanced.  Requires options().fleet.
  core::ReconfigurationPlan resize_fleet(std::uint32_t target_servers);

  // --- lar::ckpt: aligned checkpoints + crash recovery ---------------------

  /// Runs one aligned checkpoint round and returns its epoch number.
  /// Injects epoch barriers into every live source POI; each POI snapshots
  /// its per-key state and link cursors once the barrier has arrived on all
  /// input links, acks, and forwards the barrier downstream.  Blocks until
  /// every live POI has acked, commits the epoch into the coordinator's
  /// store and truncates the sender-side replay buffers.  The data stream
  /// is NOT paused.  Requires options().checkpoint.  Called from the same
  /// external driver thread as reconfigure() (the control API is externally
  /// synchronized), so a checkpoint never overlaps a reconfiguration wave.
  std::uint64_t checkpoint();

  /// Deterministically kills every live POI of `server` mid-stream —
  /// operator state, inbox contents and chaos stashes are discarded — and
  /// recovers the *region*: the victims plus the downstream closure of
  /// their operators roll back to the last committed checkpoint (a
  /// recovered multi-input POI merges its replayed links in a fresh
  /// interleaving, so its regenerated emissions are exactly-once only
  /// against receivers restored to the same cut).  Producers outside the
  /// region — in particular the surviving sources — keep running and
  /// re-derive the region from their replay buffers (and the coordinator's
  /// inject log); per-link sequence dedup absorbs every overlap.  Blocks
  /// until every recovered POI has caught up.  Requires a committed
  /// checkpoint taken at the current reconfiguration version (checkpoint()
  /// runs automatically after every wave when a coordinator is attached).
  void crash_and_recover(std::uint32_t server);

  /// Evaluates the chaos `server_crash` schedule once per live server (in
  /// server order) and, on the first decision that fires, crashes and
  /// recovers that server.  Pure function of the FaultPlan seed and how
  /// many times each server has been evaluated.  Returns the crashed server
  /// or nullopt.  No-op without both an injector and a coordinator.
  std::optional<std::uint32_t> maybe_crash();

  /// Cold-restart resume point (lar::ckpt durability): how many inject()
  /// calls the restored checkpoint chain already covers.  start() restores
  /// every POI's state and the inject sequence counters from the
  /// coordinator's store when it holds a committed epoch (a
  /// DurableCheckpointStore opened on an existing directory), so a driver
  /// replaying its source stream must skip this prefix — injecting it again
  /// would double-count, the restored state already holds its effects.
  /// Zero when nothing was restored.
  [[nodiscard]] std::uint64_t restored_inject_offset() const noexcept {
    return restored_inject_offset_;
  }

  /// Flushes, then stops and joins all POI threads.  Idempotent.
  void shutdown();

  /// Counter snapshot (consistent only when quiescent, e.g. after flush()).
  [[nodiscard]] EngineMetrics metrics() const;

  /// Publishes all engine counters into options().registry (`lar_*`
  /// families; see DESIGN.md "Observability").  No-op without a registry.
  /// Call when quiescent (after flush()) for a consistent snapshot; safe to
  /// call repeatedly — counters ratchet monotonically.
  void publish_metrics();

  /// Direct access to an operator instance for state inspection in tests
  /// and examples.  Only meaningful while quiescent.
  [[nodiscard]] Operator& operator_at(OperatorId op, InstanceIndex index);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

 private:
  struct Poi;  // one operator instance: thread, inbox, routers, migration state

  void poi_loop(Poi& poi);
  void dispatch(Poi& poi, Message&& msg);
  void handle_data(Poi& poi, DataMsg msg);
  void deliver_data(Poi& poi, DataMsg msg);
  void buffer_tuple(Poi& poi, Key in_key, DataMsg msg);
  void flush_delayed(Poi& poi, std::uint32_t link);
  void flush_all_delayed(Poi& poi);
  void process_tuple(Poi& poi, const Tuple& tuple, Key in_key);
  void handle_reconf(Poi& poi, ReconfMsg msg);
  void handle_propagate(Poi& poi, const PropagateMsg& msg);
  void handle_migrate(Poi& poi, MigrateMsg msg);
  void handle_barrier(Poi& poi, const BarrierMsg& msg);
  void take_snapshot(Poi& poi, const BarrierMsg& msg);
  /// Sets `poi`'s dedup and sequence cursors from a checkpoint slice.
  void restore_cursors(Poi& poi, const ckpt::PoiCheckpoint& pc);
  void handle_commit(Poi& poi, const CheckpointCommitMsg& msg);
  void handle_replay_request(Poi& poi, const ReplayRequestMsg& msg);
  void handle_replay_end(Poi& poi, const ReplayEndMsg& msg);

  /// Counts `n` data tuples the driver discarded (crash sweeps) as done.
  void drop_data_in_flight(std::size_t n);

  /// True when every data tuple counted sent has been counted done: sums
  /// every done counter, then every sent counter (DESIGN.md §13).
  [[nodiscard]] bool quiescent() const;

  /// Idle-wake rule: a POI about to park or exit (and the driver after a
  /// crash sweep) orders its `done` counter's stores before the check, then
  /// wakes flush() only if one is waiting.
  void wake_flushers(std::atomic<std::uint64_t>& done);

  void run_reconfig_actions(Poi& poi);
  void maybe_finish_reconfig(Poi& poi);
  void send_metrics(Poi& poi);

  /// One full protocol round (gather -> plan -> stage/ack -> wave) over the
  /// POIs on servers [0, max(current_n, target_n)).  current_n == target_n
  /// is the fixed-fleet round reconfigure() runs; otherwise the wave carries
  /// the elastic membership/activity change.  Calls mark_deployed on the
  /// manager iff the plan was actually pushed.  `app_scope` non-null makes
  /// the round tenant-scoped (lar::fleet): the plan comes from the
  /// FleetManager sliced to the tenant, wave membership is empty outside
  /// the tenant's operator range, and only the tenant's POIs participate in
  /// SEND_RECONF/PROPAGATE.  Scoped rounds never resize.
  core::ReconfigurationPlan run_protocol(
      core::Manager& manager, std::uint32_t current_n, std::uint32_t target_n,
      const fleet::AppContext* app_scope = nullptr);

  /// Shared tail of inject()/inject_app(): logs, counts and lane-pushes one
  /// tuple into the chosen source POI.  Caller holds source_mutex_.
  void inject_push_locked(OperatorId src, InstanceIndex instance,
                          Tuple&& tuple);

  /// LAR_CHECKs the topology/options shape elasticity supports.
  void require_elastic_capable() const;

  /// Swaps the injector-side active instance lists of every source operator
  /// to the prefix [0, num_active) (mutex-guarded against inject()).
  void set_inject_actives(std::uint32_t num_active);

  /// Blocks until every residual-drain MIGRATE has been imported.
  void drain_fence();

  /// Cold restore (start() before any thread spawns): when the checkpoint
  /// store already holds a committed epoch, restores every POI's key states,
  /// link cursors and applied plan version, re-activates the snapshotted
  /// server prefix, reinstalls the recovered routing configuration, and
  /// resumes the inject sequence counters (restored_inject_offset()).
  void restore_from_store();

  /// Folds a deployed plan's tables into deployed_tables_ and hands the
  /// resulting engine-wide routing configuration to the checkpoint store
  /// (note_plan), so the next full epoch file embeds it.
  void note_deployed_plan(const core::ReconfigurationPlan& plan,
                          std::uint32_t target_servers);

  /// Closes the wave span run_protocol() opened (no-op when spans are off
  /// or no wave is open).  Callers close after the post-wave work — drain
  /// fence, auto-checkpoint — so those nest inside the wave.
  void end_wave_span();

  [[nodiscard]] std::pair<double, double> measured_locality_balance() const;

  /// Per-edge traffic, summed over the POIs that send on each edge.
  [[nodiscard]] std::vector<EdgeMetricsSnapshot> edge_totals() const;

  /// Routes `tuple` over edge at out-position `out_pos` from `poi`,
  /// serializing if cross-server; `in_key` is the emitting tuple's anchor
  /// key, forwarded to the receiver on non-fields edges.  `owned` (null
  /// unless this is the final out-edge of an emit(Tuple&&)) is storage the
  /// hop may take: a same-server hand-off then moves it into the
  /// destination lane; every other hop copies into an arena-recycled
  /// buffer.
  void send_data(Poi& poi, std::uint32_t out_pos, const Tuple& tuple,
                 Tuple* owned, Key in_key);

  [[nodiscard]] Poi& poi_at(OperatorId op, InstanceIndex index);

  const Topology& topology_;
  const Placement& placement_;
  EngineOptions options_;
  OperatorFactory factory_;
  std::vector<std::optional<OperatorId>> anchors_;

  std::vector<std::unique_ptr<Poi>> pois_;           // all instances, flat
  std::vector<std::vector<std::size_t>> poi_index_;  // [op][instance] -> flat

  Channel<ManagerReply> manager_inbox_;

  // Quiescence (DESIGN.md §13): each POI counts the data tuples it sends
  // and finishes on its own cache line; these are the driver-side pair, for
  // tuples the driver pushes (inject, inject-log replay) or discards (crash
  // sweeps).  flush() waits for equal sums.
  std::atomic<std::uint64_t> driver_sent_{0};
  std::atomic<std::uint64_t> driver_done_{0};
  std::atomic<std::uint64_t> tuples_injected_{0};
  std::atomic<std::uint64_t> tuples_buffered_{0};
  std::atomic<std::uint64_t> states_migrated_{0};
  std::atomic<std::uint64_t> states_migrated_bytes_{0};
  std::atomic<std::uint64_t> inject_seq_{0};

  // Elasticity state.  active_servers_ / elastic_ / poi activity flags are
  // only touched by the external driver thread (start/reconfigure/add/retire
  // are externally synchronized, like the rest of the control API); the
  // drain counter is an atomic fence between POI threads and that driver.
  std::uint32_t active_servers_ = 0;
  bool elastic_ = false;
  std::vector<OperatorId> sources_;  ///< cached topology_.sources()
  mutable std::mutex source_mutex_;  ///< guards source_actives_ vs inject()
  std::vector<std::vector<InstanceIndex>> source_actives_;  // [source pos]
  std::atomic<std::uint64_t> drains_in_flight_{0};
  std::atomic<std::uint64_t> states_drained_{0};
  std::atomic<std::uint64_t> states_drained_bytes_{0};
  std::atomic<std::uint64_t> scale_out_events_{0};
  std::atomic<std::uint64_t> scale_in_events_{0};

  // lar::ckpt state.  ckpt_enabled_ is fixed at construction; the inject
  // log (per-source-POI replay buffer + sequence counters for tuples that
  // enter via inject()) is guarded by source_mutex_ so barrier injection
  // and replay order exactly against concurrent inject() calls.  The crash
  // counters are atomics for the metrics snapshot; the driver-side recovery
  // bookkeeping is externally synchronized like the rest of the control API.
  bool ckpt_enabled_ = false;
  /// Incremental checkpointing (set when the coordinator's store asks for
  /// it): POIs track dirty keys and delta epochs snapshot only those.
  bool ckpt_delta_enabled_ = false;
  std::uint64_t last_plan_version_ = 0;  ///< last deployed wave version
  /// Flat indices of all source POIs, ascending (ckpt only: the inject-log
  /// truncation and cold restore pull exactly these slices from the store).
  std::vector<std::uint32_t> source_flats_;
  /// inject() calls already covered by the restored checkpoint chain.
  std::uint64_t restored_inject_offset_ = 0;
  /// Union of every deployed wave's routing tables (driver thread only) —
  /// the engine-wide configuration note_deployed_plan() hands the store.
  std::unordered_map<OperatorId, std::shared_ptr<const RoutingTable>>
      deployed_tables_;
  /// Injector-owned SPSC lane id on each source POI's inbox ([flat]; only
  /// source entries are meaningful).  inject(), barrier injection, and
  /// crashed-source replay all push on it under source_mutex_, which is the
  /// lane's producer serialization domain.
  std::vector<std::uint32_t> inject_lane_;
  std::vector<std::uint64_t> inject_out_seq_;          // [flat] source POIs
  std::vector<std::vector<DataMsg>> inject_replay_;    // [flat] source POIs
  std::atomic<std::uint64_t> checkpoints_committed_{0};
  std::atomic<std::uint64_t> ckpt_states_captured_{0};
  std::atomic<std::uint64_t> ckpt_state_bytes_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> pois_recovered_{0};
  std::atomic<std::uint64_t> states_restored_{0};
  std::atomic<std::uint64_t> states_restored_bytes_{0};
  std::atomic<std::uint64_t> tuples_replayed_{0};
  std::atomic<std::uint64_t> tuples_lost_at_crash_{0};

  // lar::fleet state (empty without options_.fleet).  The per-app inject
  // sequence and injected-tuple counts live under source_mutex_ like the
  // inject log; app_source_pos_ maps each tenant to its positions in
  // sources_ and is immutable after construction.
  fleet::FleetManager* fleet_ = nullptr;
  std::vector<std::vector<std::size_t>> app_source_pos_;  // [app]
  std::vector<std::uint64_t> app_inject_seq_;             // [app]
  std::vector<std::uint64_t> app_tuples_injected_;        // [app]

  // Chaos / recovery counters (stay zero in the disabled mode).
  std::atomic<std::uint64_t> tuples_spilled_{0};
  std::atomic<std::uint64_t> tuples_spilled_bytes_{0};
  std::atomic<std::uint64_t> data_dups_dropped_{0};
  std::atomic<std::uint64_t> migrates_deduped_{0};
  std::atomic<std::uint64_t> migrate_redeliveries_{0};
  std::atomic<std::uint64_t> stats_reports_lost_{0};
  std::atomic<std::uint64_t> stats_reports_stale_{0};

  // obs v2 state, touched only by the externally-synchronized control API:
  // control_epoch_ counts control-plane operations (waves, checkpoints,
  // crashes) and is the vtime of engine-side spans; publish_epoch_ counts
  // publish_metrics() calls and is the timeline tick vtime; wave_span_ is
  // the span run_protocol() opened, closed by its caller.
  std::uint64_t control_epoch_ = 0;
  std::uint64_t publish_epoch_ = 0;
  std::uint64_t wave_span_ = 0;

  // Gather-epoch state, touched only by the reconfigure() caller thread:
  // reports kStatsDelay held back, merged (stale) into the next epoch.
  std::uint64_t gather_epoch_ = 0;
  std::vector<std::pair<std::uint32_t, std::vector<core::PairCount>>>
      delayed_stats_;

  // flush() calls currently waiting, and the word they sleep on.  Read by
  // every POI on each park, so kept off the lines the driver writes.
  alignas(64) std::atomic<std::uint32_t> flush_waiters_{0};
  std::atomic<std::uint32_t> flush_wake_{0};

  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace lar::runtime
