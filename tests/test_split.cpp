// Tests for lar::split (DESIGN.md §14): hot-key split-degree selection,
// split-capable routing tables and routers (virtual + devirtualized bank),
// planner integration (replica placement, candidate-set migration diffs,
// snapshot v4), and the runtime exactly-once guarantees — merge conservation
// under chaos duplication/delay, split-state migration across waves, and
// crash recovery of replica partials with a checkpoint coordinator attached.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/manager.hpp"
#include "core/snapshot.hpp"
#include "runtime/engine.hpp"
#include "sketch/exact_counter.hpp"
#include "sketch/zipf.hpp"
#include "split/degree.hpp"
#include "workload/workload.hpp"

namespace lar {
namespace {

using core::HopStats;
using core::PairCount;
using split::KeyDegree;
using split::OpInstances;

// --- fixtures ----------------------------------------------------------------

std::string temp_path(const char* name) {
  // Pid-qualified so concurrent invocations of this binary never collide.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One hop 1 -> 2 where key 0 carries `heavy` mass and keys 1..n-1 carry
/// `light` each (out-keys offset by 1000 so the two key spaces stay apart).
std::vector<HopStats> skewed_stats(std::uint32_t n, std::uint64_t heavy,
                                   std::uint64_t light) {
  std::vector<PairCount> pairs;
  pairs.push_back(PairCount{0, 1000, heavy});
  for (std::uint32_t i = 1; i < n; ++i) {
    pairs.push_back(PairCount{i, 1000 + i, light});
  }
  return {HopStats{1, 2, pairs}};
}

/// Uniform mass: no key exceeds the balance cap.
std::vector<HopStats> uniform_stats(std::uint32_t n, std::uint64_t weight) {
  std::vector<PairCount> pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    pairs.push_back(PairCount{i, 1000 + i, weight});
  }
  return {HopStats{1, 2, pairs}};
}

// --- degree selection ---------------------------------------------------------

TEST(SplitDegrees, PureFunctionOfTheStatsSet) {
  std::vector<PairCount> pairs;
  Rng rng(11);
  for (std::uint32_t i = 0; i < 40; ++i) {
    pairs.push_back(PairCount{i % 8, 1000 + i, 1 + rng.below(500)});
  }
  const std::vector<OpInstances> insts{{1, 4}, {2, 4}};
  const split::SplitOptions opts{.max_degree = 4};
  std::vector<split::HopView> hops{{1, 2, &pairs}};
  const auto a = split::choose_degrees(hops, opts, 1.03, insts);

  std::vector<PairCount> reversed(pairs.rbegin(), pairs.rend());
  std::vector<split::HopView> rhops{{1, 2, &reversed}};
  const auto b = split::choose_degrees(rhops, opts, 1.03, insts);
  EXPECT_EQ(a, b);  // pure function of the *set*, not the order

  // Output is canonically sorted by (op, key).
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const KeyDegree& x, const KeyDegree& y) {
                               return x.op != y.op ? x.op < y.op
                                                   : x.key < y.key;
                             }));
}

TEST(SplitDegrees, UniformLoadSplitsNothing) {
  std::vector<PairCount> pairs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    pairs.push_back(PairCount{i, 1000 + i, 100});
  }
  std::vector<split::HopView> hops{{1, 2, &pairs}};
  const auto degrees = split::choose_degrees(
      hops, {.max_degree = 8}, 1.03, {{1, 4}, {2, 4}});
  EXPECT_TRUE(degrees.empty());
}

TEST(SplitDegrees, DegreeTracksMassAndHonorsEveryCap) {
  // Key 0 carries ~76% of a 4-instance op's load: cap ~ 0.26 * total, so the
  // uncapped degree is ceil(0.76 / 0.26) = 3.
  std::vector<PairCount> pairs;
  pairs.push_back(PairCount{0, 1000, 7600});
  for (std::uint32_t i = 1; i < 25; ++i) {
    pairs.push_back(PairCount{i, 1000 + i, 100});
  }
  std::vector<split::HopView> hops{{1, 2, &pairs}};

  const auto full = split::choose_degrees(hops, {.max_degree = 8}, 1.03,
                                          {{1, 4}, {2, 4}});
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(full.front().op, 1u);
  EXPECT_EQ(full.front().key, 0u);
  EXPECT_EQ(full.front().degree, 3u);

  // max_degree caps the choice.
  const auto capped = split::choose_degrees(hops, {.max_degree = 2}, 1.03,
                                            {{1, 4}, {2, 4}});
  ASSERT_FALSE(capped.empty());
  EXPECT_EQ(capped.front().degree, 2u);

  // The instance count caps it too: a 2-instance op cannot split 3 ways.
  const auto narrow = split::choose_degrees(hops, {.max_degree = 8}, 1.03,
                                            {{1, 2}, {2, 2}});
  ASSERT_FALSE(narrow.empty());
  EXPECT_LE(narrow.front().degree, 2u);

  // Single-instance ops never split, no matter the skew.
  const auto solo = split::choose_degrees(hops, {.max_degree = 8}, 1.03,
                                          {{1, 1}, {2, 1}});
  for (const KeyDegree& d : solo) EXPECT_NE(d.op, 1u);
}

TEST(SplitDegrees, MaxDegreeOneDisablesSelection) {
  std::vector<PairCount> pairs{{0, 1000, 100000}, {1, 1001, 1}};
  std::vector<split::HopView> hops{{1, 2, &pairs}};
  EXPECT_TRUE(split::choose_degrees(hops, {.max_degree = 1}, 1.03,
                                    {{1, 4}, {2, 4}})
                  .empty());
}

// --- routing table ------------------------------------------------------------

TEST(SplitTable, CandidateStorageAndOwnership) {
  RoutingTable t;
  t.assign(5, 1);
  const std::vector<InstanceIndex> cands{2, 0, 3};
  t.assign_split(7, cands);
  EXPECT_TRUE(t.has_splits());
  EXPECT_EQ(t.num_split_keys(), 1u);

  // Candidate order is preserved; the first candidate is the primary.
  const auto got = t.split_candidates(7);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), cands.begin()));
  EXPECT_EQ(t.route(7, 4), 2u);
  EXPECT_EQ(t.lookup(7).value(), 2u);

  // Ownership: any candidate owns a split key; only the routed instance owns
  // an unsplit one.
  for (const InstanceIndex c : cands) EXPECT_TRUE(t.is_owner(7, c, 4));
  EXPECT_FALSE(t.is_owner(7, 1, 4));
  EXPECT_TRUE(t.is_owner(5, 1, 4));
  EXPECT_FALSE(t.is_owner(5, 0, 4));

  // Unsplit keys expose no candidates.
  EXPECT_TRUE(t.split_candidates(5).empty());
  EXPECT_TRUE(t.split_candidates(999).empty());

  // Canonical split iteration is ascending by key.
  t.assign_split(3, std::vector<InstanceIndex>{1, 2});
  const auto entries = t.sorted_split_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 3u);
  EXPECT_EQ(entries[1].first, 7u);
  EXPECT_EQ(entries[1].second, cands);
}

TEST(SplitTable, SnapshotRoundTripPreservesCandidates) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  core::ManagerOptions opts;
  opts.split.max_degree = 4;
  core::Manager mgr(topo, place, opts);
  const auto plan = mgr.compute_plan(skewed_stats(30, 8000, 10));
  ASSERT_GT(plan.keys_split, 0u);

  const std::string path = temp_path("lar_split_snapshot.larp");
  ASSERT_TRUE(core::save_plan(plan, path).is_ok());
  const auto restored = core::load_plan(path);
  ASSERT_TRUE(restored.is_ok());
  for (const auto& [op, table] : plan.tables) {
    const auto& rt = restored.value().tables.at(op);
    EXPECT_EQ(rt->num_split_keys(), table->num_split_keys());
    EXPECT_EQ(rt->sorted_split_entries(), table->sorted_split_entries());
    EXPECT_EQ(rt->sorted_entries(), table->sorted_entries());
  }
  std::filesystem::remove(path);
}

TEST(SplitTable, SplitlessPlansKeepThePreSplitSnapshotFormat) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  core::Manager mgr(topo, place, {});
  const auto plan = mgr.compute_plan(uniform_stats(24, 100));
  EXPECT_EQ(plan.keys_split, 0u);
  const std::string path = temp_path("lar_split_snapshot_v3.larp");
  ASSERT_TRUE(core::save_plan(plan, path).is_ok());
  const std::string bytes = read_all(path);
  ASSERT_GE(bytes.size(), 8u);
  // Bytes 4..7 hold the format field: splitless plans stay v3, so every
  // pre-split snapshot byte stream is reproduced exactly.
  std::uint32_t format = 0;
  std::memcpy(&format, bytes.data() + 4, sizeof(format));
  EXPECT_EQ(format, 3u);
  std::filesystem::remove(path);
}

// --- routers -----------------------------------------------------------------

TEST(SplitRouting, TableRouterRunsLeastLoadedOverTheCandidates) {
  auto table = std::make_shared<RoutingTable>();
  table->assign_split(7, std::vector<InstanceIndex>{1, 3});
  table->assign(5, 2);
  Router r(0, 4, table);

  // Equal counters: the first-listed candidate wins the tie, then the
  // counters alternate the choices — PKG's discipline, d-generalized.
  Tuple hot{.fields = {7}, .padding = 0};
  EXPECT_EQ(r.route(hot), 1u);
  EXPECT_EQ(r.route(hot), 3u);
  EXPECT_EQ(r.route(hot), 1u);
  EXPECT_EQ(r.route(hot), 3u);

  // Unsplit keys are untouched by the discipline.
  Tuple cold{.fields = {5}, .padding = 0};
  EXPECT_EQ(r.route(cold), 2u);
  Tuple miss{.fields = {11}, .padding = 0};
  EXPECT_EQ(r.route(miss), hash_instance(11, 4));
}

TEST(SplitRouting, SentCountersResetDeterministicallyOnSwap) {
  auto table = std::make_shared<RoutingTable>();
  table->assign_split(7, std::vector<InstanceIndex>{0, 2, 3});
  Router swapped(0, 4, table);
  Tuple hot{.fields = {7}, .padding = 0};
  for (int i = 0; i < 101; ++i) (void)swapped.route(hot);  // skew history

  // After the swap, the choice sequence equals a fresh router's: post-swap
  // decisions are a pure function of the new table and post-swap tuples.
  swapped.set_table(table);
  Router fresh(0, 4, table);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(swapped.route(hot), fresh.route(hot)) << "step " << i;
  }
}

// --- planner integration -----------------------------------------------------

TEST(SplitPlan, SkewedStatsYieldSplitTables) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  core::ManagerOptions opts;
  opts.split.max_degree = 4;
  core::Manager mgr(topo, place, opts);
  const auto plan = mgr.compute_plan(skewed_stats(30, 8000, 10));
  EXPECT_GT(plan.keys_split, 0u);
  EXPECT_GE(plan.max_split_degree, 2u);
  EXPECT_LE(plan.max_split_degree, 3u);  // capped by the 3-instance fleet

  std::size_t split_seen = 0;
  for (const auto& [op, table] : plan.tables) {
    const std::uint32_t parallelism = topo.op(op).parallelism;
    for (const auto& [key, cands] : table->sorted_split_entries()) {
      ++split_seen;
      ASSERT_GE(cands.size(), 2u);
      std::set<InstanceIndex> uniq(cands.begin(), cands.end());
      EXPECT_EQ(uniq.size(), cands.size()) << "key " << key;
      for (const InstanceIndex c : cands) EXPECT_LT(c, parallelism);
      // The primary candidate is the single-valued route target.
      EXPECT_EQ(table->route(key, parallelism), cands.front());
    }
  }
  EXPECT_EQ(split_seen, plan.keys_split);
}

TEST(SplitPlan, EnabledUnderTheCapIsByteIdenticalToDisabled) {
  // Splitting enabled but no key over the cap: the planner must emit the
  // exact plan the pre-split planner emits — pinned at snapshot-byte level.
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  core::Manager off(topo, place, {});
  core::ManagerOptions opts;
  opts.split.max_degree = 4;
  core::Manager on(topo, place, opts);

  const auto plan_off = off.compute_plan(uniform_stats(24, 100));
  const auto plan_on = on.compute_plan(uniform_stats(24, 100));
  EXPECT_EQ(plan_on.keys_split, 0u);
  const std::string pa = temp_path("lar_split_identity_off.larp");
  const std::string pb = temp_path("lar_split_identity_on.larp");
  ASSERT_TRUE(core::save_plan(plan_off, pa).is_ok());
  ASSERT_TRUE(core::save_plan(plan_on, pb).is_ok());
  EXPECT_EQ(read_all(pa), read_all(pb));
  std::filesystem::remove(pa);
  std::filesystem::remove(pb);
}

TEST(SplitPlan, DegreeDecreaseConsolidatesEveryReplica) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  core::ManagerOptions opts;
  opts.split.max_degree = 4;
  core::Manager mgr(topo, place, opts);

  const auto plan1 = mgr.compute_plan(skewed_stats(30, 8000, 10));
  ASSERT_GT(plan1.keys_split, 0u);
  mgr.mark_deployed(plan1);

  // The skew vanishes: the next plan splits nothing, and every replica of a
  // previously split key that is not the new owner ships its partial there.
  const auto plan2 = mgr.compute_plan(uniform_stats(30, 100));
  EXPECT_EQ(plan2.keys_split, 0u);
  for (const auto& [op, table] : plan1.tables) {
    const std::uint32_t parallelism = topo.op(op).parallelism;
    const auto& after = plan2.tables.at(op);
    const auto it = plan2.moves.find(op);
    for (const auto& [key, cands] : table->sorted_split_entries()) {
      const InstanceIndex dest = after->route(key, parallelism);
      std::size_t moved = 0;
      if (it != plan2.moves.end()) {
        for (const core::KeyMove& mv : it->second) {
          if (mv.key != key) continue;
          ++moved;
          EXPECT_EQ(mv.to, dest) << "key " << key;
          EXPECT_TRUE(std::find(cands.begin(), cands.end(), mv.from) !=
                      cands.end())
              << "move from a non-candidate, key " << key;
        }
      }
      const bool dest_was_candidate =
          std::find(cands.begin(), cands.end(), dest) != cands.end();
      EXPECT_EQ(moved, cands.size() - (dest_was_candidate ? 1 : 0))
          << "key " << key;
    }
  }
}

// --- runtime: split exactly-once ---------------------------------------------

/// Zipf-keyed tuples with `fields` copies of the sampled key — field 0
/// routes the first hop; a two-stage chain routes field 1 on the same key so
/// both stages see the same (heavy-hitter) key distribution.
class ZipfGenerator final : public workload::TupleGenerator {
 public:
  ZipfGenerator(std::size_t n, double s, std::uint64_t seed,
                std::uint32_t fields)
      : zipf_(n, s), rng_(seed), fields_(fields) {}

  [[nodiscard]] Tuple next() override {
    const Key k = static_cast<Key>(zipf_.sample(rng_));
    return Tuple{std::vector<Key>(fields_, k), 0};
  }

 private:
  sketch::ZipfSampler zipf_;
  Rng rng_;
  std::uint32_t fields_;
};

/// Source -> partial-aggregation stage -> merge stage, fields-routed on the
/// key at every hop (the partial stage emits `{key, delta}` tuples).
Topology make_split_topology(std::uint32_t n) {
  Topology t;
  const OperatorId s = t.add_operator({.name = "S",
                                       .parallelism = n,
                                       .stateful = false,
                                       .is_source = true,
                                       .cpu_cost_per_tuple = 0.05});
  const OperatorId partial =
      t.add_operator({.name = "partial", .parallelism = n, .stateful = true});
  const OperatorId merge =
      t.add_operator({.name = "merge", .parallelism = n, .stateful = true});
  t.connect(s, partial, GroupingType::kFields, /*key_field=*/0);
  t.connect(partial, merge, GroupingType::kFields, /*key_field=*/0);
  LAR_CHECK(t.validate().is_ok());
  return t;
}

runtime::OperatorFactory split_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
    if (op == 1) return std::make_unique<runtime::PartialCountOperator>(0);
    return std::make_unique<runtime::MergeCountOperator>(0, 1);
  };
}

/// Conservation without the single-holder requirement: split keys may hold
/// partials on several candidates, but the per-key sum across instances must
/// equal ground truth exactly — no tuple lost, none double-counted.
template <typename GetCount>
void expect_conserved(std::uint32_t par, const sketch::ExactCounter<Key>& truth,
                      GetCount&& count_at, int* multi_holder_keys = nullptr) {
  for (const auto& entry : truth.entries()) {
    std::uint64_t sum = 0;
    int holders = 0;
    for (InstanceIndex i = 0; i < par; ++i) {
      const std::uint64_t c = count_at(i, entry.key);
      sum += c;
      holders += (c > 0);
    }
    ASSERT_EQ(sum, entry.count) << "key " << entry.key;
    ASSERT_GE(holders, 1) << "key " << entry.key;
    if (multi_holder_keys != nullptr) *multi_holder_keys += (holders > 1);
  }
}

TEST(SplitEngine, MergeConservesEveryDeltaUnderChaosFaults) {
  const std::uint32_t n = 3;
  const Topology topo = make_split_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  chaos::FaultPlan fplan(811);
  fplan.set(chaos::FaultSite::kChannelDuplicate, {.rate = 0.02});
  fplan.set(chaos::FaultSite::kChannelDelay, {.rate = 0.02});
  chaos::Injector inj(fplan);
  runtime::Engine engine(topo, place, split_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .injector = &inj});
  engine.start();
  core::ManagerOptions opts;
  opts.split.max_degree = 3;
  core::Manager mgr(topo, place, opts);

  sketch::ExactCounter<Key> truth;
  // Pre-load a fully drained window before streaming live: gathered pair
  // statistics only count *processed* tuples, and under a free-running
  // feeder the head key's POI saturates — a saturated instance never
  // exceeds its 1/P fair share of processed traffic, which sits below the
  // alpha/P split cap by construction, so the head could (schedule-
  // dependently) never split.  The drained window records the true Zipf
  // head regardless of scheduling.
  ZipfGenerator gen(40, /*s=*/1.5, /*seed=*/71, /*fields=*/1);
  for (int i = 0; i < 12'000; ++i) {
    Tuple t = gen.next();
    truth.add(t.fields[0]);
    engine.inject(std::move(t));
  }
  engine.flush();
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    ZipfGenerator fgen(40, 1.5, 72, 1);
    while (!stop.load()) {
      Tuple t = fgen.next();
      truth.add(t.fields[0]);
      engine.inject(std::move(t));
    }
  });
  const auto plan1 = engine.reconfigure(mgr);  // splits the head, live
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto plan2 = engine.reconfigure(mgr);  // second wave, split tables
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop = true;
  feeder.join();
  // A drained post-split batch guarantees head traffic through the
  // d-candidate tables even if the feeder thread was starved — the
  // multi-holder assertion below must not depend on scheduling.
  for (int i = 0; i < 3'000; ++i) {
    Tuple t = gen.next();
    truth.add(t.fields[0]);
    engine.inject(std::move(t));
  }
  engine.flush();

  // The Zipf head must actually have split.
  EXPECT_GT(plan1.keys_split, 0u);
  EXPECT_GT(plan2.version, plan1.version);
  EXPECT_GT(inj.fired(chaos::FaultSite::kChannelDuplicate), 0u);
  EXPECT_GT(inj.fired(chaos::FaultSite::kChannelDelay), 0u);

  // Partial replicas conserve the injected counts; merge totals reconstruct
  // them exactly despite duplicated and delayed channel traffic.
  int split_partials = 0;
  expect_conserved(
      n, truth,
      [&](InstanceIndex i, Key k) {
        return static_cast<runtime::PartialCountOperator&>(
                   engine.operator_at(1, i))
            .partial(k);
      },
      &split_partials);
  expect_conserved(n, truth, [&](InstanceIndex i, Key k) {
    return static_cast<runtime::MergeCountOperator&>(engine.operator_at(2, i))
        .total(k);
  });
  // The drained batch routed through plan2's tables.  Normally plan2 keeps
  // the head split and >= 2 replicas hold partials; under heavy scheduling
  // starvation plan2's window can under-observe the head (a saturated POI
  // caps at its 1/P fair share) and legitimately converge the replicas —
  // then every partial must be back on a single holder.
  std::size_t final_splits = 0;
  for (const auto& [op, table] : plan2.tables) {
    final_splits += table->num_split_keys();
  }
  if (final_splits > 0) {
    EXPECT_GT(split_partials, 0);  // at least one key ran as >= 2 replicas
  } else {
    EXPECT_EQ(split_partials, 0);  // degree decrease consolidated them all
  }
  const auto m = engine.metrics();
  EXPECT_EQ(m.data_dups_dropped, inj.fired(chaos::FaultSite::kChannelDuplicate));
  engine.shutdown();
}

TEST(SplitEngine, WaveMigratesSplitStateAcrossDegreeChanges) {
  // Degree increase (hot key splits) and decrease (replicas converge) across
  // live reconfiguration waves, with counting state conserved throughout.
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  runtime::Engine engine(
      topo, place,
      [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
        if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
        return std::make_unique<runtime::CountingOperator>(op == 1 ? 0 : 1);
      },
      {.fields_mode = FieldsRouting::kTable});
  engine.start();
  core::ManagerOptions opts;
  opts.split.max_degree = 3;
  core::Manager mgr(topo, place, opts);

  sketch::ExactCounter<Key> truth0;
  sketch::ExactCounter<Key> truth1;
  auto pump = [&](workload::TupleGenerator& gen, int count) {
    for (int i = 0; i < count; ++i) {
      Tuple t = gen.next();
      truth0.add(t.fields[0]);
      truth1.add(t.fields[1]);
      engine.inject(std::move(t));
    }
    engine.flush();
  };
  auto counts_conserved = [&](int* multi = nullptr) {
    expect_conserved(
        n, truth0,
        [&](InstanceIndex i, Key k) {
          return static_cast<runtime::CountingOperator&>(engine.operator_at(1, i))
              .count(k);
        },
        multi);
    expect_conserved(n, truth1, [&](InstanceIndex i, Key k) {
      return static_cast<runtime::CountingOperator&>(engine.operator_at(2, i))
          .count(k);
    });
  };

  // Round 1: heavy skew -> the wave deploys split tables (degree increase).
  ZipfGenerator skewed(40, /*s=*/1.5, /*seed=*/81, /*fields=*/2);
  pump(skewed, 20'000);
  const auto plan1 = engine.reconfigure(mgr);
  ASSERT_GT(plan1.keys_split, 0u);
  counts_conserved();

  // Keep streaming skewed: replicas accumulate genuinely partial state.
  pump(skewed, 20'000);
  int multi_holders = 0;
  counts_conserved(&multi_holders);
  EXPECT_GT(multi_holders, 0);  // the hot key really ran split

  // Round 2: skew vanishes -> degree decrease; the wave must converge every
  // replica's partial onto the new single owner (one MIGRATE per sender).
  ZipfGenerator uniform(40, /*s=*/0.0, /*seed=*/82, /*fields=*/2);
  pump(uniform, 20'000);
  const auto plan2 = engine.reconfigure(mgr);
  EXPECT_EQ(plan2.keys_split, 0u);
  pump(uniform, 5'000);
  counts_conserved();

  // Post-decrease, every key is single-holder again: the replicas' partials
  // merged additively on exactly one instance.
  for (const auto& entry : truth0.entries()) {
    int holders = 0;
    for (InstanceIndex i = 0; i < n; ++i) {
      holders += static_cast<runtime::CountingOperator&>(engine.operator_at(1, i))
                     .count(entry.key) > 0;
    }
    EXPECT_EQ(holders, 1) << "key " << entry.key << " still split";
  }
  engine.shutdown();
}

TEST(SplitEngine, CrashRecoveryRestoresReplicaPartials) {
  const std::uint32_t n = 3;
  const Topology topo = make_split_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  ckpt::CheckpointCoordinator coord;
  runtime::Engine engine(topo, place, split_factory(),
                         {.fields_mode = FieldsRouting::kTable,
                          .checkpoint = &coord});
  engine.start();
  core::ManagerOptions opts;
  opts.split.max_degree = 3;
  core::Manager mgr(topo, place, opts);

  sketch::ExactCounter<Key> truth;
  ZipfGenerator gen(40, /*s=*/1.5, /*seed=*/91, /*fields=*/1);
  auto pump = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Tuple t = gen.next();
      truth.add(t.fields[0]);
      engine.inject(std::move(t));
    }
    engine.flush();
  };

  pump(15'000);
  const auto plan = engine.reconfigure(mgr);  // split deploy + auto-checkpoint
  ASSERT_GT(plan.keys_split, 0u);
  pump(6'000);
  engine.checkpoint();  // replica partials snapshotted mid-split
  pump(4'000);
  engine.crash_and_recover(1);
  pump(3'000);
  engine.flush();

  int split_partials = 0;
  expect_conserved(
      n, truth,
      [&](InstanceIndex i, Key k) {
        return static_cast<runtime::PartialCountOperator&>(
                   engine.operator_at(1, i))
            .partial(k);
      },
      &split_partials);
  expect_conserved(n, truth, [&](InstanceIndex i, Key k) {
    return static_cast<runtime::MergeCountOperator&>(engine.operator_at(2, i))
        .total(k);
  });
  EXPECT_GT(split_partials, 0);
  const auto m = engine.metrics();
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_GT(m.states_restored, 0u);
  engine.shutdown();
}

}  // namespace
}  // namespace lar
