// Messages exchanged on the runtime's data and control planes.
//
// The control messages are exactly the paper's reconfiguration protocol
// (Figure 6 / Algorithm 1): GET_METRICS, SEND_METRICS, SEND_RECONF,
// ACK_RECONF, PROPAGATE and MIGRATE, plus a completion notification so the
// manager knows the wave has finished and a shutdown sentinel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/pair_stats.hpp"
#include "topology/routing.hpp"
#include "topology/types.hpp"

namespace lar::runtime {

/// A data tuple in flight.  `edge` identifies the topology edge it traveled
/// (the receiving POI derives its routing key from the edge's key_field);
/// edge == kInjected marks tuples pushed by the source injector.
struct DataMsg {
  static constexpr std::uint32_t kInjected = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kNoFrom = static_cast<std::uint32_t>(-1);
  Tuple tuple;
  std::uint32_t edge = kInjected;

  /// The key of the nearest upstream fields-grouped hop ("anchor"): for a
  /// fields edge, the routing key itself; for shuffle / local-or-shuffle
  /// edges, propagated from the sender unchanged.  kNoKey before any fields
  /// hop.  This is what lets a stateless relay record (stateful-input,
  /// stateful-output) key pairs for hops like Figure 3's B -> C -> D.
  Key anchor = kNoKey;

  /// Chaos bookkeeping, stamped only when a fault injector is configured:
  /// the sending POI's flat index and a per-(sender, receiver) link sequence
  /// number starting at 1.  The receiver drops seq <= last-seen as a
  /// duplicate; kNoFrom / 0 marks an unstamped (chaos-free) message.
  std::uint32_t from = kNoFrom;
  std::uint64_t seq = 0;
};

/// Manager -> POI: send me your pair statistics.
struct GetMetricsMsg {};

/// Wave membership for one reconfiguration: which instances participate per
/// operator, and (for elastic waves) which remain active once the wave
/// commits.  Shared immutably by every ReconfMsg of the wave, so the
/// bookkeeping rides inside the messages — no cross-thread state.
struct ElasticWave {
  /// Post-commit live-server count (propagated into trace records).
  std::uint32_t target_servers = 0;

  /// Per operator: the instances taking part in this wave, ascending.
  /// Propagate fan-out and propagate_expected are computed from these, so
  /// dormant instances are never waited on.
  std::vector<std::vector<InstanceIndex>> members;

  /// Per operator: the instances active after the wave commits, ascending.
  /// Empty vector-of-vectors = a fixed-fleet wave (no activity change);
  /// shuffle routers then keep their current restriction.
  std::vector<std::vector<InstanceIndex>> actives;
};

/// Manager -> POI: the new configuration (paper Section 3.4).
struct ReconfMsg {
  std::uint64_t version = 0;

  /// Destination operator -> new routing table, for this POI's outbound
  /// fields-grouped edges ("reconfiguration_router").
  std::unordered_map<OperatorId, std::shared_ptr<const RoutingTable>> tables;

  /// Keys whose state this POI must send away ("reconfiguration_send").
  std::vector<std::pair<Key, InstanceIndex>> send;

  /// Keys whose state this POI will receive, paired with the sending
  /// instance ("reconfiguration_receive").  Sender-qualified because a
  /// lar::split degree decrease converges several replicas' partials onto
  /// one instance: the receiver must await one MIGRATE *per sender*, not
  /// per key.
  std::vector<std::pair<Key, InstanceIndex>> receive;

  /// Wave membership (always set by the engine; actives empty when the wave
  /// does not change the active set).
  std::shared_ptr<const ElasticWave> wave;

  /// Elastic waves only: the post-commit table of this POI's *own* operator
  /// (sources have none).  Drives the residual-drain scan — owned keys the
  /// new epoch routes elsewhere are shipped even without an explicit move
  /// entry, which is what makes retirement lossless for keys the manager
  /// never observed.
  std::shared_ptr<const RoutingTable> own_table;
};

/// Predecessor POI (or manager, for sources) -> POI: the reconfiguration
/// wave reached you on this channel.
struct PropagateMsg {
  std::uint64_t version = 0;
};

/// Sibling POI -> POI: state of one reassigned key ("6: Exchange keys").
/// `state` is opaque operator-defined bytes; empty means the old owner had
/// no state for the key yet.
struct MigrateMsg {
  std::uint64_t version = 0;
  Key key = 0;
  std::vector<std::byte> state;

  /// Flat instance index of the sending POI.  Receivers of a lar::split
  /// convergence match (key, from) against their sender-qualified awaiting
  /// lists; pre-split single-sender moves work the same way with one entry.
  InstanceIndex from = 0;

  /// How many times a chaos-delayed copy of this payload has been re-queued
  /// at the back of the receiver's unlaned control FIFO; bounded by the
  /// kMigrateDelay magnitude.
  std::uint32_t redeliveries = 0;

  /// Residual drain (elastic waves): state shipped outside the plan's move
  /// list because the sender's new own-table routes the key elsewhere.  The
  /// receiver imports it unconditionally (imports are merge-additive) and
  /// acknowledges via the engine's drain fence instead of the awaiting set.
  bool drain = false;
};

/// Engine -> POI: drain and exit.
struct ShutdownMsg {};

// --- lar::ckpt: aligned checkpoints + crash recovery -------------------------

/// Epoch-numbered checkpoint barrier (control message, push_unbounded only).
/// `link` is the flat POI index of the forwarding producer — kCoordinator
/// for the barrier the coordinator injects into sources (and the pseudo
/// producer id for tuples entering via inject()).  `members` carries the
/// live instance set per operator at injection time, exactly like
/// ElasticWave: alignment counts and the downstream fan-out are computed
/// from it, so dormant/retired POIs are never waited on.
struct BarrierMsg {
  /// Pseudo producer link for coordinator-injected barriers and injected
  /// tuples.  Distinct from DataMsg::kNoFrom so "unstamped" and "stamped by
  /// the injector itself" stay distinguishable.
  static constexpr std::uint32_t kCoordinator =
      static_cast<std::uint32_t>(-2);

  std::uint64_t epoch = 0;
  std::uint32_t link = kCoordinator;
  std::shared_ptr<const std::vector<std::vector<InstanceIndex>>> members;

  /// False when the epoch is an incremental (delta) one: delta-capable POIs
  /// snapshot only the keys dirtied since their previous snapshot.  Stamped
  /// by the coordinator from the store's epoch_is_delta() answer and
  /// propagated unchanged as the barrier is forwarded.
  bool full = true;
};

/// Coordinator -> POI: epoch committed; truncate your replay buffers up to
/// the watermarks you recorded when forwarding this epoch's barrier (only
/// while that snapshot is still your last one — see handle_commit).
struct CheckpointCommitMsg {
  std::uint64_t epoch = 0;
};

/// Recovery driver -> surviving sender POI: re-push your replay buffer for
/// the link to `target` (flat POI index), then send it a ReplayEndMsg.
/// Handled on the sender's own thread, so replayed tuples stay FIFO with
/// its subsequent live sends.
struct ReplayRequestMsg {
  std::uint32_t target = 0;
};

/// Sender -> recovering POI: the replay for producer link `link` is
/// complete; sort the held tuples by sequence number, apply once each, and
/// resume normal processing on the link.
struct ReplayEndMsg {
  std::uint32_t link = 0;
};

/// Recovery driver -> POI: die where you stand.  Unlike ShutdownMsg the
/// messages queued behind it are NOT processed — they stay in the channel
/// (or are discarded by the driver) and their effects are recovered by
/// checkpoint restore + replay.
struct CrashMsg {};

// DataMsg must stay the first alternative: the channel's SPSC ring slots
// are value-initialized `Message{}` and reset to it when a staged batch is
// aborted, so the default alternative has to be the cheap data one (and
// default-constructible).  Keep Message lean — sizeof(Message) is the ring
// slot size on every data-plane hand-off, so a control message larger than
// DataMsg rides boxed: ReconfMsg (one per POI per wave) sits behind a
// unique_ptr rather than doubling every slot.
using Message = std::variant<DataMsg, GetMetricsMsg, std::unique_ptr<ReconfMsg>,
                             PropagateMsg, MigrateMsg, ShutdownMsg, BarrierMsg,
                             CheckpointCommitMsg, ReplayRequestMsg,
                             ReplayEndMsg, CrashMsg>;
static_assert(sizeof(Message) <= 72,
              "a Message ring slot must stay DataMsg plus the variant index");

// --- replies to the manager ------------------------------------------------

/// POI -> manager: pair statistics per outbound optimizable edge.
struct MetricsReply {
  InstanceId from;
  /// edge id -> merged pair counts observed by this POI on that edge.
  std::vector<std::pair<std::uint32_t, std::vector<core::PairCount>>> stats;
};

/// POI -> manager: configuration received and staged.
struct AckReconfReply {
  InstanceId from;
  std::uint64_t version = 0;
};

/// POI -> manager: propagation handled, state exchanged, wave forwarded.
struct ReconfDoneReply {
  InstanceId from;
  std::uint64_t version = 0;
};

/// POI -> coordinator: barrier aligned on all input links, state snapshot
/// stored for `epoch`, barrier forwarded downstream.
struct CheckpointAckReply {
  InstanceId from;
  std::uint64_t epoch = 0;
};

/// Recovering POI -> recovery driver: every pending link finished its
/// replay; the instance is caught up and live again.
struct RecoverDoneReply {
  InstanceId from;
};

using ManagerReply = std::variant<MetricsReply, AckReconfReply,
                                  ReconfDoneReply, CheckpointAckReply,
                                  RecoverDoneReply>;

}  // namespace lar::runtime
