// Unit tests for the application model: topology, placement, routing.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "topology/key_dict.hpp"
#include "topology/placement.hpp"
#include "topology/routing.hpp"
#include "topology/topology.hpp"

namespace lar {
namespace {

Topology chain3(std::uint32_t parallelism) {
  return make_two_stage_topology(parallelism);
}

// --- Tuple ---------------------------------------------------------------------

TEST(Tuple, SerializedSizeFormula) {
  Tuple t{.fields = {1, 2}, .padding = 100};
  EXPECT_EQ(t.serialized_size(), 16u + 16u + 100u);
  Tuple empty;
  EXPECT_EQ(empty.serialized_size(), 16u);
}

// --- KeyDict --------------------------------------------------------------------

TEST(KeyDict, InternIsIdempotent) {
  KeyDict d;
  const Key a = d.intern("#java");
  const Key b = d.intern("#java");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
}

TEST(KeyDict, DistinctStringsDistinctKeys) {
  KeyDict d;
  EXPECT_NE(d.intern("asia"), d.intern("europe"));
  EXPECT_EQ(d.size(), 2u);
}

TEST(KeyDict, RoundTrip) {
  KeyDict d;
  const Key k = d.intern("oceania");
  EXPECT_EQ(d.name(k), "oceania");
}

TEST(KeyDict, FindWithoutInterning) {
  KeyDict d;
  d.intern("x");
  EXPECT_TRUE(d.find("x").has_value());
  EXPECT_FALSE(d.find("y").has_value());
}

// --- Topology --------------------------------------------------------------------

TEST(Topology, TwoStageFactoryIsValid) {
  const Topology t = chain3(4);
  EXPECT_TRUE(t.validate().is_ok());
  EXPECT_EQ(t.num_operators(), 3u);
  EXPECT_EQ(t.edges().size(), 2u);
  EXPECT_EQ(t.op(0).parallelism, 4u);  // replicated source
  EXPECT_TRUE(t.op(0).is_source);
  EXPECT_TRUE(t.op(1).stateful);
  EXPECT_EQ(t.edges()[0].key_field, 0u);
  EXPECT_EQ(t.edges()[1].key_field, 1u);
}

TEST(Topology, ValidateRejectsNoSource) {
  Topology t;
  const auto a = t.add_operator({.name = "a", .parallelism = 1});
  const auto b = t.add_operator({.name = "b", .parallelism = 1});
  t.connect(a, b, GroupingType::kShuffle);
  const Status s = t.validate();
  EXPECT_FALSE(s.is_ok());
}

TEST(Topology, ValidateRejectsUnreachableOperator) {
  Topology t;
  t.add_operator({.name = "s", .parallelism = 1, .is_source = true});
  t.add_operator({.name = "orphan", .parallelism = 1});
  EXPECT_FALSE(t.validate().is_ok());
}

TEST(Topology, ValidateRejectsStatefulWithShuffleInput) {
  Topology t;
  const auto s = t.add_operator({.name = "s", .parallelism = 1, .is_source = true});
  const auto a =
      t.add_operator({.name = "a", .parallelism = 2, .stateful = true});
  t.connect(s, a, GroupingType::kShuffle);
  EXPECT_FALSE(t.validate().is_ok());
}

TEST(Topology, ValidateRejectsSourceWithInput) {
  Topology t;
  const auto s1 = t.add_operator({.name = "s1", .parallelism = 1, .is_source = true});
  const auto s2 = t.add_operator({.name = "s2", .parallelism = 1, .is_source = true});
  t.connect(s1, s2, GroupingType::kShuffle);
  EXPECT_FALSE(t.validate().is_ok());
}

TEST(Topology, TopologicalOrderRespectsEdges) {
  Topology t;
  const auto s = t.add_operator({.name = "s", .parallelism = 1, .is_source = true});
  const auto a = t.add_operator({.name = "a", .parallelism = 1});
  const auto b = t.add_operator({.name = "b", .parallelism = 1});
  const auto c = t.add_operator({.name = "c", .parallelism = 1});
  t.connect(s, a, GroupingType::kShuffle);
  t.connect(s, b, GroupingType::kShuffle);
  t.connect(a, c, GroupingType::kShuffle);
  t.connect(b, c, GroupingType::kShuffle);
  const auto order = t.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](OperatorId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(s), pos(a));
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(c));
}

TEST(Topology, DagFanOutValidates) {
  // A diamond: source -> {a, b} -> join; the model is not chain-limited.
  Topology t;
  const auto s = t.add_operator({.name = "s", .parallelism = 1, .is_source = true});
  const auto a = t.add_operator({.name = "a", .parallelism = 2});
  const auto b = t.add_operator({.name = "b", .parallelism = 2});
  const auto j =
      t.add_operator({.name = "join", .parallelism = 2, .stateful = true});
  t.connect(s, a, GroupingType::kShuffle);
  t.connect(s, b, GroupingType::kShuffle);
  t.connect(a, j, GroupingType::kFields, 0);
  t.connect(b, j, GroupingType::kFields, 0);
  EXPECT_TRUE(t.validate().is_ok());
  EXPECT_EQ(t.in_edges(j).size(), 2u);
}

// --- Placement -------------------------------------------------------------------

TEST(Placement, RoundRobinMatchesPaperLayout) {
  const Topology t = chain3(4);
  const Placement p = Placement::round_robin(t, 4);
  for (OperatorId op = 0; op < 3; ++op) {
    for (InstanceIndex i = 0; i < 4; ++i) {
      EXPECT_EQ(p.server_of(op, i), i);
    }
  }
  EXPECT_EQ(p.num_servers(), 4u);
  EXPECT_EQ(p.parallelism_of(1), 4u);
}

TEST(Placement, RoundRobinWrapsWhenMoreInstancesThanServers) {
  const Topology t = chain3(6);
  const Placement p = Placement::round_robin(t, 3);
  EXPECT_EQ(p.server_of(1, 0), 0u);
  EXPECT_EQ(p.server_of(1, 3), 0u);
  EXPECT_EQ(p.server_of(1, 5), 2u);
  const auto& locals = p.local_instances(1, 0);
  EXPECT_EQ(locals, (std::vector<InstanceIndex>{0, 3}));
}

TEST(Placement, ExplicitPlacement) {
  const Topology t = chain3(2);
  Placement p = Placement::explicit_placement(
      {{1, 1}, {0, 1}, {1, 0}}, /*num_servers=*/2);
  EXPECT_EQ(p.server_of(0, 0), 1u);
  EXPECT_EQ(p.server_of(2, 1), 0u);
  EXPECT_TRUE(p.local_instances(1, 0) == std::vector<InstanceIndex>{0});
  EXPECT_TRUE(p.local_instances(2, 1) == std::vector<InstanceIndex>{0});
}

TEST(Placement, InstanceIdOverload) {
  const Topology t = chain3(3);
  const Placement p = Placement::round_robin(t, 3);
  EXPECT_EQ(p.server_of(InstanceId{1, 2}), 2u);
}

// --- Routers ----------------------------------------------------------------------

TEST(Routing, HashInstanceIsDeterministicAndInRange) {
  for (Key k = 0; k < 1000; ++k) {
    const InstanceIndex i = hash_instance(k, 7);
    EXPECT_LT(i, 7u);
    EXPECT_EQ(i, hash_instance(k, 7));
  }
}

/// The router of the single edge S(1) -> T(`fanout`) under `grouping`, as
/// emitted from `src_server` of a round-robin placement on `servers`.
Router edge_router(GroupingType grouping, FieldsRouting mode,
                   std::uint32_t fanout, std::uint32_t servers = 1,
                   ServerId src_server = 0, std::uint64_t seed = 1,
                   std::uint32_t edge_index = 0) {
  Topology topo;
  const OperatorId s = topo.add_operator(
      {.name = "S", .parallelism = 1, .is_source = true});
  const OperatorId t = topo.add_operator({.name = "T", .parallelism = fanout});
  topo.connect(s, t, grouping, /*key_field=*/1);
  const Placement place = Placement::round_robin(topo, servers);
  return make_router(topo.edges()[0], edge_index, topo, place, src_server,
                     mode, nullptr, seed);
}

TEST(Routing, ShuffleCoversAllInstancesEvenly) {
  Router r = edge_router(GroupingType::kShuffle, FieldsRouting::kHash, 4, 1, 0,
                         /*seed=*/9);
  std::array<int, 4> hits{};
  Tuple t{.fields = {0}, .padding = 0};
  for (int i = 0; i < 400; ++i) ++hits[r.route(t)];
  for (const int h : hits) EXPECT_EQ(h, 100);
}

TEST(Routing, LocalOrShufflePrefersLocals) {
  // Server 1 of 2 holds instances {1, 3} of 4.
  Router r = edge_router(GroupingType::kLocalOrShuffle, FieldsRouting::kHash,
                         4, 2, /*src_server=*/1, /*seed=*/5);
  Tuple t{.fields = {0}, .padding = 0};
  for (int i = 0; i < 100; ++i) {
    const InstanceIndex d = r.route(t);
    EXPECT_TRUE(d == 1 || d == 3);
  }
}

TEST(Routing, LocalOrShuffleRotatesEvenlyWhenLocalsDoNotDivideFanout) {
  // Server 1 of 2 holds instances {1, 3} of 5: no local instance may fall
  // more than one route behind another in any prefix of the stream.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Router r = edge_router(GroupingType::kLocalOrShuffle, FieldsRouting::kHash,
                           5, 2, /*src_server=*/1, seed);
    std::array<int, 5> hits{};
    Tuple t{.fields = {0}, .padding = 0};
    for (int i = 0; i < 1000; ++i) {
      const InstanceIndex d = r.route(t);
      ASSERT_TRUE(d == 1 || d == 3);
      ++hits[d];
      ASSERT_LE(std::abs(hits[1] - hits[3]), 1)
          << "seed " << seed << " route " << i;
    }
  }
}

TEST(Routing, LocalOrShuffleFallsBackWithoutLocals) {
  // Server 3 of 4 holds none of the 3 instances.
  Router r = edge_router(GroupingType::kLocalOrShuffle, FieldsRouting::kHash,
                         3, 4, /*src_server=*/3, /*seed=*/5);
  Tuple t{.fields = {0}, .padding = 0};
  std::set<InstanceIndex> seen;
  for (int i = 0; i < 30; ++i) seen.insert(r.route(t));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Routing, FieldsRoutersUseDeclaredField) {
  Router h(1, 5);
  Tuple t{.fields = {42, 77}, .padding = 0};
  EXPECT_EQ(h.route(t), hash_instance(77, 5));
  Router id =
      edge_router(GroupingType::kFields, FieldsRouting::kIdentity, 5);
  EXPECT_EQ(id.route(t), 77u % 5u);
  Router off = edge_router(GroupingType::kFields, FieldsRouting::kWorstCase, 5,
                           1, 0, 1, /*edge_index=*/1);
  EXPECT_EQ(off.route(t), (77u + 2u) % 5u);
}

TEST(Routing, PermutationIsBijectiveAndStable) {
  Router r = edge_router(GroupingType::kFields, FieldsRouting::kPermutation, 6);
  std::set<InstanceIndex> image;
  for (Key k = 0; k < 6; ++k) {
    Tuple t{.fields = {0, k}, .padding = 0};
    const InstanceIndex d = r.route(t);
    EXPECT_LT(d, 6u);
    image.insert(d);
    EXPECT_EQ(d, r.route(t));
  }
  EXPECT_EQ(image.size(), 6u);
}

TEST(Routing, TableRoutesExplicitKeysAndFallsBackToHash) {
  auto table = std::make_shared<RoutingTable>();
  table->assign(10, 3);
  Router r(0, 5, table);
  Tuple hit{.fields = {10}, .padding = 0};
  EXPECT_EQ(r.route(hit), 3u);
  Tuple miss{.fields = {11}, .padding = 0};
  EXPECT_EQ(r.route(miss), hash_instance(11, 5));
}

TEST(Routing, TableHotSwap) {
  auto t1 = std::make_shared<RoutingTable>();
  t1->assign(1, 0);
  Router r(0, 4, t1);
  Tuple t{.fields = {1}, .padding = 0};
  EXPECT_EQ(r.route(t), 0u);
  auto t2 = std::make_shared<RoutingTable>();
  t2->assign(1, 2);
  r.set_table(t2);
  EXPECT_EQ(r.route(t), 2u);
}

TEST(RoutingTable, VersionAndLookup) {
  RoutingTable t;
  EXPECT_EQ(t.version(), 0u);
  t.set_version(7);
  EXPECT_EQ(t.version(), 7u);
  EXPECT_FALSE(t.lookup(5).has_value());
  t.assign(5, 2);
  EXPECT_EQ(t.lookup(5).value(), 2u);
  t.assign(5, 3);  // overwrite
  EXPECT_EQ(t.lookup(5).value(), 3u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Routing, MakeRouterSelectsImplementations) {
  const Topology topo = chain3(4);
  const Placement place = Placement::round_robin(topo, 4);
  const EdgeSpec& fields_edge = topo.edges()[1];
  Tuple t{.fields = {2, 4 + 3}, .padding = 0};  // field1 key space offset 4

  auto id = make_router(fields_edge, 1, topo, place, 0,
                        FieldsRouting::kIdentity, nullptr, 1);
  EXPECT_EQ(id.route(t), 3u);

  auto worst = make_router(fields_edge, 1, topo, place, 0,
                           FieldsRouting::kWorstCase, nullptr, 1);
  EXPECT_EQ(worst.route(t), (3u + 2u) % 4u);  // offset = edge_index + 1

  auto hash = make_router(fields_edge, 1, topo, place, 0, FieldsRouting::kHash,
                          nullptr, 1);
  EXPECT_EQ(hash.route(t), hash_instance(7, 4));

  auto table = make_router(fields_edge, 1, topo, place, 0,
                           FieldsRouting::kTable, nullptr, 1);
  EXPECT_EQ(table.route(t), hash_instance(7, 4));  // empty table == hash
}

TEST(Routing, WorstCaseDisagreesAcrossConsecutiveEdges) {
  // The defining property: a key pair aligned under identity routing is
  // never co-located under worst-case routing.
  const Topology topo = chain3(4);
  const Placement place = Placement::round_robin(topo, 4);
  auto w0 = make_router(topo.edges()[0], 0, topo, place, 0,
                        FieldsRouting::kWorstCase, nullptr, 1);
  auto w1 = make_router(topo.edges()[1], 1, topo, place, 0,
                        FieldsRouting::kWorstCase, nullptr, 1);
  for (Key k = 0; k < 16; ++k) {
    Tuple t{.fields = {k, 4 + k}, .padding = 0};  // correlated pair
    EXPECT_NE(w0.route(t), w1.route(t));
  }
}

}  // namespace
}  // namespace lar

namespace lar {
namespace {

TEST(Routing, PartialKeyUsesOnlyTheTwoCandidates) {
  Router r = edge_router(GroupingType::kFields, FieldsRouting::kPartialKey, 6);
  for (Key k = 0; k < 50; ++k) {
    const auto [h1, h2] = pkg_candidates(k, 6);
    for (int i = 0; i < 20; ++i) {
      Tuple t{.fields = {0, k}, .padding = 0};
      const InstanceIndex d = r.route(t);
      EXPECT_TRUE(d == h1 || d == h2) << "key " << k;
    }
  }
}

TEST(Routing, PartialKeyBalancesSkewBetterThanHash) {
  // One key carries 60% of the traffic: hash piles it onto one instance;
  // PKG splits it across its two candidates.
  constexpr std::uint32_t kFanout = 4;
  Router pkg =
      edge_router(GroupingType::kFields, FieldsRouting::kPartialKey, kFanout);
  Router hash(1, kFanout);
  std::vector<std::uint64_t> pkg_load(kFanout, 0);
  std::vector<std::uint64_t> hash_load(kFanout, 0);
  Rng rng(71);
  for (int i = 0; i < 40'000; ++i) {
    const Key key = rng.chance(0.6) ? 7 : 100 + rng.below(1000);
    Tuple t{.fields = {0, key}, .padding = 0};
    ++pkg_load[pkg.route(t)];
    ++hash_load[hash.route(t)];
  }
  EXPECT_LT(imbalance(pkg_load), imbalance(hash_load));
  EXPECT_LT(imbalance(pkg_load), 1.5);
}

TEST(Routing, PartialKeySentCountersResetOnTableSwap) {
  // A reconfiguration switches every fields router to its new table, PKG
  // included: the swapped router then routes like a fresh table router —
  // PKG's counter history must not leak into the split keys' choices.
  Router swapped =
      edge_router(GroupingType::kFields, FieldsRouting::kPartialKey, 6);
  Rng rng(71);
  for (int i = 0; i < 5'000; ++i) {  // skew the counter history
    const Key key = rng.chance(0.6) ? 7 : 100 + rng.below(1000);
    Tuple t{.fields = {0, key}, .padding = 0};
    (void)swapped.route(t);
  }

  auto table = std::make_shared<RoutingTable>();
  table->assign_split(7, std::vector<InstanceIndex>{1, 4});
  table->assign_split(9, std::vector<InstanceIndex>{0, 2, 5});
  table->assign(3, 3);
  swapped.set_table(table);
  Router fresh(1, 6, table);
  for (int i = 0; i < 2'000; ++i) {
    const Key key = rng.chance(0.5) ? 7 : rng.below(64);
    Tuple t{.fields = {0, key}, .padding = 0};
    ASSERT_EQ(swapped.route(t), fresh.route(t)) << "step " << i;
  }
}

TEST(Routing, MakeRouterBuildsPartialKey) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  auto r = make_router(topo.edges()[1], 1, topo, place, 0,
                       FieldsRouting::kPartialKey, nullptr, 1);
  Tuple t{.fields = {1, 9}, .padding = 0};
  EXPECT_LT(r.route(t), 4u);
}

// --- Golden routing decisions ----------------------------------------------------
//
// Digests of whole decision streams, recorded once: any change to a routing
// discipline, a seed, a cursor rule or the counter reset on a table swap
// moves a digest.  Both substrates route through these decisions, so these
// pin the runtime and the simulator at once.

/// S(3) -fields0-> A(5) -shuffle-> B(4) -local-> C(6) -local-> D(2)
/// -fields1-> E(4) on 3 round-robin servers.  Every local list divides its
/// fanout (C has 2 instances per server; the uneven case has its own test
/// above), and D's instance-less server 2 makes C's emitters there fall back
/// to rotating over all of D.
Topology golden_topology() {
  Topology topo;
  const OperatorId s = topo.add_operator(
      {.name = "S", .parallelism = 3, .is_source = true});
  const OperatorId a = topo.add_operator({.name = "A", .parallelism = 5});
  const OperatorId b = topo.add_operator({.name = "B", .parallelism = 4});
  const OperatorId c = topo.add_operator({.name = "C", .parallelism = 6});
  const OperatorId d = topo.add_operator({.name = "D", .parallelism = 2});
  const OperatorId e = topo.add_operator({.name = "E", .parallelism = 4});
  topo.connect(s, a, GroupingType::kFields, /*key_field=*/0);
  topo.connect(a, b, GroupingType::kShuffle);
  topo.connect(b, c, GroupingType::kLocalOrShuffle);
  topo.connect(c, d, GroupingType::kLocalOrShuffle);
  topo.connect(d, e, GroupingType::kFields, /*key_field=*/1);
  return topo;
}

constexpr FieldsRouting kAllModes[] = {
    FieldsRouting::kHash,      FieldsRouting::kPermutation,
    FieldsRouting::kTable,     FieldsRouting::kIdentity,
    FieldsRouting::kWorstCase, FieldsRouting::kPartialKey};

/// Plain assignments for even keys below 40.
std::shared_ptr<RoutingTable> golden_table(std::uint32_t fanout) {
  auto table = std::make_shared<RoutingTable>();
  for (Key k = 0; k < 40; k += 2) {
    table->assign(k, static_cast<InstanceIndex>((k * 7) % fanout));
  }
  return table;
}

/// Plain, degree-2 and degree-3 split keys, plus a fallback domain when
/// `fallback` is set.
std::shared_ptr<RoutingTable> golden_split_table(std::uint32_t fanout,
                                                 std::uint64_t seed,
                                                 bool fallback) {
  auto table = std::make_shared<RoutingTable>();
  Rng rng(seed);
  for (Key k = 0; k < 48; ++k) {
    const auto first = static_cast<InstanceIndex>(rng.below(fanout));
    const std::uint64_t kind = rng.below(4);
    if (kind < 2) {
      table->assign(k, first);
    } else {
      std::vector<InstanceIndex> cands;
      for (std::uint32_t c = 0; c < kind; ++c) {
        cands.push_back((first + c * 3) % fanout);
      }
      table->assign_split(k, cands);
    }
  }
  if (fallback) {
    std::vector<InstanceIndex> domain;
    for (InstanceIndex i = 0; i < fanout; i += 2) domain.push_back(i);
    table->set_fallback(std::move(domain));
  }
  return table;
}

Tuple golden_tuple(Rng& rng) {
  return Tuple{.fields = {rng.below(64), rng.below(64)}};
}

TEST(RouterGolden, EveryGroupingModeAndEmitter) {
  const Topology topo = golden_topology();
  const Placement place = Placement::round_robin(topo, 3);
  const std::uint64_t expected[] = {
      1907328634575706951u, 3903588736889198141u,  13383607964897889783u,
      9479741248517275532u, 1242868677553118918u, 13883382953588246417u};
  for (std::size_t m = 0; m < std::size(kAllModes); ++m) {
    std::vector<Router> routers;
    for (std::uint32_t e = 0; e < topo.edges().size(); ++e) {
      const EdgeSpec& edge = topo.edges()[e];
      for (InstanceIndex i = 0; i < topo.op(edge.from).parallelism; ++i) {
        routers.push_back(make_router(
            edge, e, topo, place, place.server_of(edge.from, i), kAllModes[m],
            golden_table(topo.op(edge.to).parallelism),
            /*seed=*/77 * 1000003 + e * 131 + i));
      }
    }
    std::uint64_t h = 0;
    Rng rng(31337);
    for (int round = 0; round < 4000; ++round) {
      const Tuple tuple = golden_tuple(rng);
      for (Router& r : routers) h = hash_combine(h, mix64(r.route(tuple)));
    }
    EXPECT_EQ(h, expected[m])
        << "mode #" << m << " (" << to_string(kAllModes[m]) << ")";
  }
}

TEST(RouterGolden, SetTableFromEveryKind) {
  // Both substrates switch a fields edge to table routing with zeroed sent
  // counters, whatever the router routed by before.
  const Topology topo = golden_topology();
  const Placement place = Placement::round_robin(topo, 3);
  // hash and table coincide: a kTable router born without a table hashes.
  const std::uint64_t expected[] = {
      3089699623784523537u,  9868436411870016526u, 3089699623784523537u,
      15815838900729723402u, 14377896607928664843u, 18222442123298694984u};
  for (std::size_t m = 0; m < std::size(kAllModes); ++m) {
    std::uint64_t h = 0;
    Rng rng(4242);
    for (const std::uint32_t e : {0u, 4u}) {
      const EdgeSpec& edge = topo.edges()[e];
      const std::uint32_t fanout = topo.op(edge.to).parallelism;
      for (InstanceIndex i = 0; i < topo.op(edge.from).parallelism; ++i) {
        auto r = make_router(edge, e, topo, place,
                             place.server_of(edge.from, i), kAllModes[m],
                             nullptr, /*seed=*/5 + i);
        for (int n = 0; n < 500; ++n) {
          h = hash_combine(h, mix64(r.route(golden_tuple(rng))));
        }
        r.set_table(golden_split_table(fanout, 9 + i, true));
        for (int n = 0; n < 1500; ++n) {
          h = hash_combine(h, mix64(r.route(golden_tuple(rng))));
        }
        r.set_table(golden_split_table(fanout, 99 + i, false));
        for (int n = 0; n < 500; ++n) {
          h = hash_combine(h, mix64(r.route(golden_tuple(rng))));
        }
      }
    }
    EXPECT_EQ(h, expected[m])
        << "mode #" << m << " (" << to_string(kAllModes[m]) << ")";
  }
}

TEST(RouterGolden, ShuffleRestrictedTwice) {
  const Topology topo = golden_topology();
  const Placement place = Placement::round_robin(topo, 3);
  const EdgeSpec& edge = topo.edges()[1];  // A -> B, shuffle
  std::uint64_t h = 0;
  for (InstanceIndex i = 0; i < topo.op(edge.from).parallelism; ++i) {
    auto r = make_router(edge, 1, topo, place, place.server_of(edge.from, i),
                         FieldsRouting::kTable, nullptr, /*seed=*/13 + i);
    const Tuple t = Tuple{.fields = {0, 0}};
    for (int n = 0; n < 37; ++n) h = hash_combine(h, mix64(r.route(t)));
    r.set_active_instances({0, 2, 3});
    for (int n = 0; n < 53; ++n) h = hash_combine(h, mix64(r.route(t)));
    r.set_active_instances({1, 2});
    for (int n = 0; n < 41; ++n) h = hash_combine(h, mix64(r.route(t)));
  }
  EXPECT_EQ(h, 10360865032653544577u);
}

TEST(RouterGolden, SplitTablesOfDegreeTwoAndThreeWithSwap) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  const EdgeSpec& edge = topo.edges()[1];
  std::uint64_t h = 0;
  Rng rng(404);
  for (InstanceIndex i = 0; i < 4; ++i) {
    auto r = make_router(edge, 1, topo, place, place.server_of(edge.from, i),
                         FieldsRouting::kTable,
                         golden_split_table(4, 21 + i, false), /*seed=*/9);
    for (int n = 0; n < 4000; ++n) {
      h = hash_combine(h, mix64(r.route(Tuple{.fields = {0, rng.below(48)}})));
    }
    r.set_table(golden_split_table(4, 31 + i, false));
    for (int n = 0; n < 2000; ++n) {
      h = hash_combine(h, mix64(r.route(Tuple{.fields = {0, rng.below(48)}})));
    }
  }
  EXPECT_EQ(h, 5210552211190483204u);
}

}  // namespace
}  // namespace lar
