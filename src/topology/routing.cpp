#include "topology/routing.hpp"

#include <numeric>

namespace lar {

Router::Router(Kind kind, std::uint32_t key_field, std::uint32_t fanout)
    : kind_(kind), key_field_(key_field), fanout_(fanout) {
  LAR_CHECK(fanout >= 1);
}

Router::Router(std::uint32_t key_field, std::uint32_t fanout,
               std::shared_ptr<const RoutingTable> table)
    : Router(Kind::kHash, key_field, fanout) {
  if (table != nullptr) set_table(std::move(table));
}

InstanceIndex Router::route_split(Key key) {
  const auto candidates = table_->split_candidates(key);
  return candidates.empty() ? table_->route(key, fanout_)
                            : least_loaded(candidates);
}

void Router::set_table(std::shared_ptr<const RoutingTable> table) {
  LAR_CHECK(table != nullptr);
  LAR_CHECK(kind_ != Kind::kShuffle && kind_ != Kind::kLocalOrShuffle);
  kind_ = Kind::kTable;
  table_ = std::move(table);
  sent_.assign(fanout_, 0);
}

void Router::set_active_instances(std::vector<InstanceIndex> instances) {
  LAR_CHECK(kind_ == Kind::kShuffle);
  LAR_CHECK(!instances.empty());
  instances_ = std::move(instances);
  cursor_ %= static_cast<std::uint32_t>(instances_.size());
}

Router make_router(const EdgeSpec& edge, std::uint32_t edge_index,
                   const Topology& topology, const Placement& placement,
                   ServerId src_server, FieldsRouting fields_mode,
                   std::shared_ptr<const RoutingTable> table,
                   std::uint64_t seed) {
  const std::uint32_t fanout = topology.op(edge.to).parallelism;
  using Kind = Router::Kind;
  switch (edge.grouping) {
    case GroupingType::kShuffle:
    case GroupingType::kLocalOrShuffle: {
      const bool local = edge.grouping == GroupingType::kLocalOrShuffle;
      Router r(local ? Kind::kLocalOrShuffle : Kind::kShuffle, 0, fanout);
      if (local) r.instances_ = placement.local_instances(edge.to, src_server);
      if (r.instances_.empty()) {
        r.instances_.resize(fanout);
        std::iota(r.instances_.begin(), r.instances_.end(), 0);
      }
      // The seed picks a start in [0, fanout), reduced onto the list: over
      // all instances, or any list whose length divides the fanout, this is
      // the sequence a fanout-modulo cursor would produce.
      r.cursor_ = static_cast<std::uint32_t>(mix64(seed) % fanout %
                                             r.instances_.size());
      return r;
    }
    case GroupingType::kFields:
      switch (fields_mode) {
        case FieldsRouting::kHash:
          return Router(edge.key_field, fanout);
        case FieldsRouting::kPermutation: {
          // Seeded per edge (not per emitting instance): all emitters of one
          // edge must agree on the key -> instance map or stateful routing
          // breaks.
          Router r(Kind::kPermutation, edge.key_field, fanout);
          r.instances_.resize(fanout);
          std::iota(r.instances_.begin(), r.instances_.end(), 0);
          Rng rng(0x9d5f + edge_index * 7919);
          for (std::uint32_t i = fanout; i > 1; --i) {
            std::swap(r.instances_[i - 1], r.instances_[rng.below(i)]);
          }
          return r;
        }
        case FieldsRouting::kTable:
          return Router(edge.key_field, fanout, std::move(table));
        case FieldsRouting::kIdentity:
        case FieldsRouting::kWorstCase: {
          Router r(Kind::kIdentity, edge.key_field, fanout);
          // Worst case rotates by edge_index + 1: every hop lands off-server
          // for aligned keys, and consecutive hops disagree so correlated
          // keys never end up co-located.
          if (fields_mode == FieldsRouting::kWorstCase) {
            r.offset_ = edge_index + 1;
          }
          return r;
        }
        case FieldsRouting::kPartialKey: {
          Router r(Kind::kPartialKey, edge.key_field, fanout);
          r.sent_.assign(fanout, 0);
          return r;
        }
      }
      break;
  }
  LAR_CHECK(false && "unreachable: unknown grouping");
  return Router(0, fanout);
}

}  // namespace lar
