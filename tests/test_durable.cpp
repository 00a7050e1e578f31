// Tests for lar::ckpt durability (ckpt/durable.hpp): the file-backed
// checkpoint store's epoch-file framing and byte-determinism, incremental
// dirty-key epochs folding onto a full base, compaction, torn-write and
// injected-io-error fallback, and engine cold restart — a brand-new Engine
// on the same store directory restores state, cursors and routing tables
// from the last durable epoch and is exactly-once against a driver that
// replays its stream from restored_inject_offset().
//
// Every test uses its own store directory under the system temp dir; the
// byte-identity assertions compare directory contents across same-seed runs
// (scripts/check.sh repeats the same diff on the durable ablation).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/durable.hpp"
#include "core/manager.hpp"
#include "obs/export.hpp"
#include "runtime/engine.hpp"
#include "sketch/exact_counter.hpp"
#include "sketch/zipf.hpp"
#include "workload/synthetic.hpp"

namespace lar {
namespace {

namespace fs = std::filesystem;
using chaos::FaultPlan;
using chaos::FaultSite;

// --- fixtures ----------------------------------------------------------------

/// The running test's scratch directories: removed when it passes, left
/// behind for post-mortem inspection when it fails.
std::vector<fs::path>& scratch_dirs() {
  static std::vector<fs::path> dirs;
  return dirs;
}

class ScratchDirCleaner : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (!info.result()->Failed()) {
      std::error_code ec;  // best effort: a listener must not throw
      for (const fs::path& dir : scratch_dirs()) fs::remove_all(dir, ec);
    }
    scratch_dirs().clear();
  }
};

[[maybe_unused]] const bool kCleanerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new ScratchDirCleaner);
  return true;
}();

/// Unique per-test scratch directory (wiped at entry, and at the end of a
/// passing test).
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("lar_durable_" + name + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  scratch_dirs().push_back(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// filename -> bytes for every regular file in `dir` (byte-identity diffs).
std::map<std::string, std::string> dir_contents(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out[entry.path().filename().string()] = read_file(entry.path());
  }
  return out;
}

ckpt::PoiCheckpoint make_slice(
    std::uint32_t flat, std::vector<std::pair<Key, std::uint64_t>> counts,
    bool delta = false, std::uint64_t cursor = 0) {
  ckpt::PoiCheckpoint pc;
  pc.op = 1;
  pc.index = flat;
  pc.flat = flat;
  pc.delta = delta;
  for (const auto& [key, count] : counts) {
    std::vector<std::byte> state(sizeof count);
    std::memcpy(state.data(), &count, sizeof count);
    pc.states.emplace_back(key, std::move(state));
  }
  pc.in_cursors.emplace_back(0, cursor);
  pc.out_cursors.emplace_back(1, cursor);
  return pc;
}

std::map<Key, std::uint64_t> counts_of(const ckpt::PoiCheckpoint& pc) {
  std::map<Key, std::uint64_t> out;
  for (const auto& [key, state] : pc.states) {
    std::uint64_t count = 0;
    EXPECT_EQ(state.size(), sizeof count);
    std::memcpy(&count, state.data(), sizeof count);
    out[key] = count;
  }
  return out;
}

std::unique_ptr<ckpt::DurableCheckpointStore> open_store(
    const fs::path& dir, ckpt::DurableStoreOptions opts = {}) {
  opts.dir = dir.string();
  return std::make_unique<ckpt::DurableCheckpointStore>(std::move(opts));
}

// --- base-store accessors (the non-copying surface crash recovery uses) ------

TEST(CheckpointStoreAccessors, FilteredSlicesAndMetaMatchTheFullCopy) {
  ckpt::CheckpointStore store;
  store.begin(1, /*active_servers=*/3, /*plan_version=*/7);
  store.add(1, make_slice(0, {{10, 1}}));
  store.add(1, make_slice(2, {{11, 2}, {12, 3}}));
  store.add(1, make_slice(5, {{13, 4}}));
  store.commit(1);

  const ckpt::Checkpoint full = store.last_committed();
  const ckpt::CheckpointMeta meta = store.last_committed_meta();
  EXPECT_EQ(meta.epoch, full.epoch);
  EXPECT_TRUE(meta.committed);
  EXPECT_EQ(meta.active_servers, 3u);
  EXPECT_EQ(meta.plan_version, 7u);
  EXPECT_EQ(meta.pois, full.pois.size());
  EXPECT_EQ(meta.total_states, full.total_states());
  EXPECT_EQ(meta.total_state_bytes, full.total_state_bytes());
  // The in-memory store never folds: captured == totals.
  EXPECT_EQ(meta.captured_states, meta.total_states);
  EXPECT_EQ(meta.captured_state_bytes, meta.total_state_bytes);

  const auto slices = store.last_committed_slices({2, 5});
  EXPECT_EQ(slices.size(), 2u);
  EXPECT_EQ(counts_of(slices.at(2)), counts_of(full.pois.at(2)));
  EXPECT_EQ(counts_of(slices.at(5)), counts_of(full.pois.at(5)));
  EXPECT_FALSE(slices.contains(0));
  // Unknown flats are simply absent, not an error.
  EXPECT_TRUE(store.last_committed_slices({99}).empty());
}

// --- epoch files -------------------------------------------------------------

TEST(DurableStore, BaseFileRoundTripsByteIdentically) {
  const fs::path dir_a = fresh_dir("base_a");
  const fs::path dir_b = fresh_dir("base_b");
  for (const fs::path& dir : {dir_a, dir_b}) {
    auto store = open_store(dir);
    store->begin(1, 3, 0);
    store->add(1, make_slice(0, {{10, 1}, {11, 2}}, false, 100));
    store->add(1, make_slice(1, {{12, 3}}, false, 200));
    store->commit(1);
  }
  const fs::path file = dir_a / "epoch-00000000000000000001.base";
  ASSERT_TRUE(fs::exists(file));
  const std::string bytes = read_file(file);
  EXPECT_FALSE(bytes.empty());
  // Same slices, same bytes — the framing has no timestamps or iteration
  // nondeterminism anywhere.
  EXPECT_EQ(dir_contents(dir_a), dir_contents(dir_b));

  // A fresh store on the same directory recovers the committed epoch.
  auto reopened = open_store(dir_a);
  EXPECT_EQ(reopened->last_committed_epoch(), 1u);
  const ckpt::Checkpoint snap = reopened->last_committed();
  EXPECT_TRUE(snap.committed);
  EXPECT_EQ(snap.active_servers, 3u);
  ASSERT_EQ(snap.pois.size(), 2u);
  EXPECT_EQ(counts_of(snap.pois.at(0)),
            (std::map<Key, std::uint64_t>{{10, 1}, {11, 2}}));
  EXPECT_EQ(snap.pois.at(0).in_cursors,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{0, 100}}));
  EXPECT_EQ(snap.pois.at(1).out_cursors,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{1, 200}}));
}

TEST(DurableStore, DeltaEpochsFoldOntoTheBaseInMemoryAndOnDisk) {
  const fs::path dir = fresh_dir("delta_fold");
  {
    auto store = open_store(dir);
    store->begin(1, 2, 0);
    EXPECT_FALSE(store->epoch_is_delta(1));  // first epoch: always full
    store->add(1, make_slice(0, {{10, 5}, {11, 6}}, false, 10));
    store->commit(1);

    store->begin(2, 2, 0);
    EXPECT_TRUE(store->epoch_is_delta(2));  // chained onto epoch 1
    // Only key 11 changed since the cut; cursors are always complete.
    store->add(2, make_slice(0, {{11, 9}}, true, 20));
    store->commit(2);

    // The committed in-memory view is the folded full state.
    const ckpt::Checkpoint folded = store->last_committed();
    EXPECT_EQ(folded.epoch, 2u);
    EXPECT_EQ(counts_of(folded.pois.at(0)),
              (std::map<Key, std::uint64_t>{{10, 5}, {11, 9}}));
    EXPECT_FALSE(folded.pois.at(0).delta);
    EXPECT_EQ(folded.pois.at(0).in_cursors,
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{0, 20}}));
    // Raw capture (what the barrier round moved) is just the delta.
    EXPECT_EQ(store->last_committed_meta().captured_states, 1u);
    EXPECT_EQ(store->last_committed_meta().total_states, 2u);
    EXPECT_EQ(store->delta_depth(), 1u);
  }
  EXPECT_TRUE(fs::exists(dir / "epoch-00000000000000000001.base"));
  EXPECT_TRUE(fs::exists(dir / "epoch-00000000000000000002.delta"));
  // The delta file carries one state instead of two: strictly smaller.
  EXPECT_LT(fs::file_size(dir / "epoch-00000000000000000002.delta"),
            fs::file_size(dir / "epoch-00000000000000000001.base"));

  // Reopening folds base + delta to the same state.
  auto reopened = open_store(dir);
  EXPECT_EQ(reopened->last_committed_epoch(), 2u);
  EXPECT_EQ(counts_of(reopened->last_committed().pois.at(0)),
            (std::map<Key, std::uint64_t>{{10, 5}, {11, 9}}));
  EXPECT_EQ(reopened->delta_depth(), 1u);
}

TEST(DurableStore, PlanVersionChangeForcesAFullEpoch) {
  const fs::path dir = fresh_dir("plan_forces_full");
  auto store = open_store(dir);
  store->begin(1, 2, /*plan_version=*/0);
  store->add(1, make_slice(0, {{10, 1}}));
  store->commit(1);
  // Same plan version: delta.  A wave bumped it: full (keys may have moved,
  // and folding across the wave could resurrect one on its old owner).
  store->begin(2, 2, /*plan_version=*/1);
  EXPECT_FALSE(store->epoch_is_delta(2));
  store->add(2, make_slice(0, {{10, 2}}));
  store->commit(2);
  EXPECT_TRUE(fs::exists(dir / "epoch-00000000000000000002.base"));
  // The full epoch superseded everything before it.
  EXPECT_FALSE(fs::exists(dir / "epoch-00000000000000000001.base"));
  store->begin(3, 2, /*plan_version=*/1);
  EXPECT_TRUE(store->epoch_is_delta(3));
}

TEST(DurableStore, CompactionFoldsTheChainIntoANewBase) {
  const fs::path dir_a = fresh_dir("compact_a");
  const fs::path dir_b = fresh_dir("compact_b");
  ckpt::DurableStoreOptions opts;
  opts.compact_every = 2;
  for (const fs::path& dir : {dir_a, dir_b}) {
    auto store = open_store(dir, opts);
    store->begin(1, 2, 0);
    store->add(1, make_slice(0, {{10, 1}, {11, 1}}, false, 1));
    store->commit(1);
    store->begin(2, 2, 0);
    store->add(2, make_slice(0, {{10, 2}}, true, 2));
    store->commit(2);
    EXPECT_EQ(store->delta_depth(), 1u);
    // Second delta commit hits compact_every=2: written as a folded base.
    store->begin(3, 2, 0);
    store->add(3, make_slice(0, {{11, 3}}, true, 3));
    store->commit(3);
    EXPECT_EQ(store->compactions(), 1u);
    EXPECT_EQ(store->delta_depth(), 0u);
  }
  // Exactly one file remains: the compacted base.
  EXPECT_EQ(dir_contents(dir_a).size(), 1u);
  EXPECT_TRUE(fs::exists(dir_a / "epoch-00000000000000000003.base"));
  EXPECT_EQ(dir_contents(dir_a), dir_contents(dir_b));

  auto reopened = open_store(dir_a);
  EXPECT_EQ(reopened->last_committed_epoch(), 3u);
  EXPECT_EQ(counts_of(reopened->last_committed().pois.at(0)),
            (std::map<Key, std::uint64_t>{{10, 2}, {11, 3}}));
  EXPECT_EQ(reopened->last_committed().pois.at(0).in_cursors,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{0, 3}}));
}

// --- torn writes and io errors -----------------------------------------------

TEST(DurableStore, TornOrCorruptTailFallsBackToThePreviousEpoch) {
  const fs::path dir = fresh_dir("torn_tail");
  {
    auto store = open_store(dir);
    store->begin(1, 2, 0);
    store->add(1, make_slice(0, {{10, 1}}));
    store->commit(1);
    store->begin(2, 2, 0);
    store->add(2, make_slice(0, {{10, 2}}, true));
    store->commit(2);
    store->begin(3, 2, 0);
    store->add(3, make_slice(0, {{10, 3}}, true));
    store->commit(3);
  }
  const fs::path base = dir / "epoch-00000000000000000001.base";
  const fs::path d2 = dir / "epoch-00000000000000000002.delta";
  const fs::path d3 = dir / "epoch-00000000000000000003.delta";
  ASSERT_TRUE(fs::exists(d3));

  // A stray .tmp (a crash between write and rename) is ignored.
  std::ofstream(dir / "epoch-00000000000000000004.base.tmp") << "partial";
  // Torn tail: truncate the newest delta — the chain ends at epoch 2.
  fs::resize_file(d3, fs::file_size(d3) / 2);
  {
    auto reopened = open_store(dir);
    EXPECT_EQ(reopened->last_committed_epoch(), 2u);
    EXPECT_EQ(counts_of(reopened->last_committed().pois.at(0)),
              (std::map<Key, std::uint64_t>{{10, 2}}));
  }
  // A flipped byte mid-file fails the checksum the same way; a gap in the
  // middle of the delta run cuts everything after it.
  {
    std::fstream f(d2, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(d2) / 2));
    f.put('\x5a');
  }
  {
    auto reopened = open_store(dir);
    EXPECT_EQ(reopened->last_committed_epoch(), 1u);
    EXPECT_EQ(counts_of(reopened->last_committed().pois.at(0)),
              (std::map<Key, std::uint64_t>{{10, 1}}));
  }
  // Corrupt base too: nothing intact, the store opens fresh.
  fs::resize_file(base, 3);
  {
    auto reopened = open_store(dir);
    EXPECT_EQ(reopened->last_committed_epoch(), 0u);
  }
}

TEST(DurableStore, InjectedIoErrorsNeverCorruptTheCommittedChain) {
  const fs::path dir = fresh_dir("io_error");
  FaultPlan fplan(4040);
  fplan.set(FaultSite::kCkptIoError, {.rate = 0.5});
  obs::Registry registry;
  chaos::Injector inj(fplan, &registry);
  // The folded view the engine would see at each epoch, tracked shadow-side.
  std::map<Key, std::uint64_t> folded;
  std::map<std::uint64_t, std::map<Key, std::uint64_t>> at_epoch;
  std::uint64_t io_errors = 0;
  {
    ckpt::DurableStoreOptions opts;
    opts.dir = dir.string();
    opts.registry = &registry;
    opts.injector = &inj;
    auto store = std::make_unique<ckpt::DurableCheckpointStore>(opts);
    for (std::uint64_t epoch = 1; epoch <= 8; ++epoch) {
      store->begin(epoch, 2, 0);
      const bool delta = store->epoch_is_delta(epoch);
      const Key key = 10 + (epoch % 3);
      if (delta) {
        store->add(epoch, make_slice(0, {{key, epoch}}, true, epoch));
        folded[key] = epoch;
      } else {
        folded[key] = epoch;
        std::vector<std::pair<Key, std::uint64_t>> all(folded.begin(),
                                                       folded.end());
        store->add(epoch, make_slice(0, all, false, epoch));
      }
      store->commit(epoch);
      at_epoch[epoch] = folded;
      // Whatever the disk fate, the committed in-memory view is the fold.
      EXPECT_EQ(counts_of(store->last_committed().pois.at(0)), folded);
    }
    io_errors = store->io_errors();
    EXPECT_GT(io_errors, 0u);  // seed 4040 at rate 0.5 fires within 8 writes
    EXPECT_GT(inj.fired(FaultSite::kCkptIoError), 0u);
  }
  // No temp debris, and every surviving file is a valid chain prefix: the
  // reopened state must equal the shadow fold at the recovered epoch.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension() == ".tmp", false) << entry.path();
  }
  auto reopened = open_store(dir);
  const std::uint64_t tip = reopened->last_committed_epoch();
  ASSERT_GT(tip, 0u);
  EXPECT_LE(tip, 8u);
  EXPECT_EQ(counts_of(reopened->last_committed().pois.at(0)), at_epoch[tip]);
  // Metric families registered (the io-error counter only because it fired).
  const std::string prom = obs::to_prometheus(registry);
  EXPECT_NE(prom.find("lar_ckpt_bytes_written_total"), std::string::npos);
  EXPECT_NE(prom.find("lar_ckpt_io_errors_total"), std::string::npos);
  EXPECT_EQ(chaos::to_string(FaultSite::kCkptIoError),
            std::string("ckpt_io_error"));
}

// --- engine fixtures (mirrors test_ckpt.cpp) ---------------------------------

runtime::OperatorFactory counting_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
    return std::make_unique<runtime::CountingOperator>(op == 1 ? 0 : 1);
  };
}

runtime::CountingOperator& counter_at(runtime::Engine& engine, OperatorId op,
                                      InstanceIndex i) {
  return static_cast<runtime::CountingOperator&>(engine.operator_at(op, i));
}

struct GroundTruth {
  sketch::ExactCounter<Key> field0;
  sketch::ExactCounter<Key> field1;
};

/// The driver's replayable input: the whole stream generated up front, so a
/// cold-restarted engine can re-inject stream[restored_inject_offset()..] —
/// the Kafka-offset contract.
std::vector<Tuple> make_stream(int n, std::uint64_t seed, GroundTruth* truth) {
  workload::SyntheticGenerator gen(
      {.num_values = 60, .locality = 0.8, .padding = 0, .seed = seed});
  std::vector<Tuple> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tuple t = gen.next();
    if (truth != nullptr) {
      truth->field0.add(t.fields[0]);
      truth->field1.add(t.fields[1]);
    }
    out.push_back(std::move(t));
  }
  return out;
}

void replay(runtime::Engine& engine, const std::vector<Tuple>& stream,
            std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) engine.inject(Tuple{stream[i]});
}

void expect_counts_match(runtime::Engine& engine, OperatorId op,
                         std::uint32_t par,
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

// --- cold restart ------------------------------------------------------------

// The tentpole identity: kill the process after the last durable cut, start
// a brand-new Engine on the store directory, replay the stream from
// restored_inject_offset() — per-key counts equal ground truth exactly,
// with chaos duplicating and delaying channel traffic in both lives.
TEST(DurableEngine, ColdRestartIsExactlyOnceUnderChaosDupDelay) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  const fs::path dir = fresh_dir("cold_restart_chaos");
  GroundTruth truth;
  const std::vector<Tuple> stream = make_stream(15'000, 65, &truth);
  FaultPlan fplan(909);
  fplan.set(FaultSite::kChannelDuplicate, {.rate = 0.02});
  fplan.set(FaultSite::kChannelDelay, {.rate = 0.02});
  {
    chaos::Injector inj(fplan);
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .injector = &inj,
                            .checkpoint = &coord});
    engine.start();
    EXPECT_EQ(engine.restored_inject_offset(), 0u);
    replay(engine, stream, 0, 10'000);
    engine.flush();
    EXPECT_EQ(engine.checkpoint(), 1u);
    // Everything after the cut dies with the process.
    replay(engine, stream, 10'000, 15'000);
    engine.flush();
    engine.shutdown();
  }
  {
    chaos::Injector inj(fplan);
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .injector = &inj,
                            .checkpoint = &coord});
    engine.start();
    EXPECT_EQ(engine.restored_inject_offset(), 10'000u);
    EXPECT_GT(engine.metrics().states_restored, 0u);
    replay(engine, stream, engine.restored_inject_offset(), stream.size());
    engine.flush();
    expect_counts_match(engine, 1, n, truth.field0);
    expect_counts_match(engine, 2, n, truth.field1);
    // Cold restart composes with in-process crash recovery: epoch numbering
    // resumed from the store, so the next cut is epoch 2.
    EXPECT_EQ(engine.checkpoint(), 2u);
    engine.crash_and_recover(1);
    engine.flush();
    expect_counts_match(engine, 1, n, truth.field0);
    expect_counts_match(engine, 2, n, truth.field1);
    engine.shutdown();
  }
}

// Cold restart across a reconfiguration wave and an elastic resize: the new
// Engine restores the deployed routing tables and the widened active set
// from the chain's base file (the manager restores from its own snapshot,
// the paper's stable-storage rule) and the fleet keeps resizing afterwards.
TEST(DurableEngine, ColdRestartRestoresWavesAndTheElasticFleet) {
  const std::uint32_t n = 4;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  const fs::path dir = fresh_dir("cold_restart_elastic");
  GroundTruth truth;
  const std::vector<Tuple> stream = make_stream(15'000, 66, &truth);
  core::ManagerOptions mopts;
  {
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord,
                            .active_servers = 2});
    engine.start();
    mopts.snapshot_path = (dir / "manager.plan").string();
    core::Manager mgr(topo, place, mopts);
    replay(engine, stream, 0, 6'000);
    engine.flush();
    engine.reconfigure(mgr);   // wave + auto-checkpoint
    engine.add_servers(mgr, 4);  // resize + auto-checkpoint
    replay(engine, stream, 6'000, 12'000);
    engine.flush();
    engine.checkpoint();
    engine.shutdown();
  }
  {
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord,
                            .active_servers = 2});
    engine.start();
    // The epoch is the truth, not EngineOptions: the fleet comes back at 4.
    EXPECT_EQ(engine.active_servers(), 4u);
    EXPECT_EQ(engine.restored_inject_offset(), 12'000u);
    core::Manager mgr(topo, place, mopts);
    ASSERT_TRUE(mgr.restore_from_snapshot().is_ok());
    replay(engine, stream, 12'000, stream.size());
    engine.flush();
    expect_counts_match(engine, 1, n, truth.field0);
    expect_counts_match(engine, 2, n, truth.field1);
    // Elasticity survives the restart: retire a server through the restored
    // manager, then verify nothing was lost in the migration.
    engine.retire_servers(mgr, 3);
    EXPECT_EQ(engine.active_servers(), 3u);
    engine.flush();
    expect_counts_match(engine, 1, n, truth.field0);
    expect_counts_match(engine, 2, n, truth.field1);
    engine.shutdown();
  }
}

// --- incremental epochs ------------------------------------------------------

// Delta epochs capture only the keys dirtied since the previous cut — a
// narrow post-checkpoint write burst produces a tiny delta slice over a
// large resident state, the delta chain survives a process restart, and
// cold restore folds it back exactly.
TEST(DurableEngine, IncrementalEpochsCaptureOnlyDirtyKeys) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  const fs::path dir = fresh_dir("dirty_keys");
  GroundTruth truth;
  const std::vector<Tuple> stream = make_stream(5'000, 67, &truth);
  auto hot_tuple = [] { return Tuple{{7, 9}, 0}; };
  {
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord});
    engine.start();
    replay(engine, stream, 0, stream.size());
    engine.flush();
    EXPECT_EQ(engine.checkpoint(), 1u);  // full base
    // Touch exactly one key per counting stage, then cut again.
    for (int i = 0; i < 100; ++i) {
      truth.field0.add(7);
      truth.field1.add(9);
      engine.inject(hot_tuple());
    }
    engine.flush();
    EXPECT_EQ(engine.checkpoint(), 2u);  // delta epoch
    const ckpt::CheckpointMeta meta = coord.store().last_committed_meta();
    EXPECT_EQ(meta.epoch, 2u);
    // Two dirtied keys -> two captured states; the folded epoch holds the
    // whole resident keyspace.
    EXPECT_LE(meta.captured_states, 4u);
    EXPECT_GT(meta.total_states, 100u);
    engine.shutdown();
  }
  ASSERT_TRUE(fs::exists(dir / "epoch-00000000000000000002.delta"));
  // The delta file skips the resident state (two keys instead of ~120); the
  // per-POI cursor framing is shared by both files, so well under half.
  EXPECT_LT(fs::file_size(dir / "epoch-00000000000000000002.delta"),
            fs::file_size(dir / "epoch-00000000000000000001.base") / 2);
  {
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord});
    engine.start();
    EXPECT_EQ(engine.restored_inject_offset(), 5'100u);
    engine.flush();
    expect_counts_match(engine, 1, n, truth.field0);
    expect_counts_match(engine, 2, n, truth.field1);
    // The chain keeps extending across the restart: same plan version, so
    // the next epoch is again a delta.
    for (int i = 0; i < 50; ++i) {
      truth.field0.add(7);
      truth.field1.add(9);
      engine.inject(hot_tuple());
    }
    engine.flush();
    EXPECT_EQ(engine.checkpoint(), 3u);
    EXPECT_LE(coord.store().last_committed_meta().captured_states, 4u);
    expect_counts_match(engine, 1, n, truth.field0);
    engine.shutdown();
  }
}

// Same seed, same script -> byte-identical store directories (the in-test
// twin of scripts/check.sh's durable-ablation double-run diff).
TEST(DurableEngine, SameSeedRunsWriteByteIdenticalStores) {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  const fs::path dir_a = fresh_dir("identical_a");
  const fs::path dir_b = fresh_dir("identical_b");
  for (const fs::path& dir : {dir_a, dir_b}) {
    GroundTruth truth;
    const std::vector<Tuple> stream = make_stream(9'000, 68, &truth);
    ckpt::CheckpointCoordinator coord(open_store(dir));
    runtime::Engine engine(topo, place, counting_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord});
    engine.start();
    core::Manager mgr(topo, place, {});
    replay(engine, stream, 0, 6'000);
    engine.flush();
    engine.checkpoint();
    engine.reconfigure(mgr);  // plan bytes land in the post-wave base file
    replay(engine, stream, 6'000, 9'000);
    engine.flush();
    engine.checkpoint();
    engine.shutdown();
  }
  const auto contents = dir_contents(dir_a);
  EXPECT_GE(contents.size(), 2u);  // post-wave base + trailing delta
  EXPECT_EQ(contents, dir_contents(dir_b));
}

// --- incremental x hot-key splitting -----------------------------------------

/// Zipf-keyed single-field tuples (local copy of test_split's generator).
class ZipfGenerator final : public workload::TupleGenerator {
 public:
  ZipfGenerator(std::size_t n, double s, std::uint64_t seed)
      : zipf_(n, s), rng_(seed) {}
  [[nodiscard]] Tuple next() override {
    return Tuple{{static_cast<Key>(zipf_.sample(rng_))}, 0};
  }

 private:
  sketch::ZipfSampler zipf_;
  Rng rng_;
};

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

// Incremental and full durable stores agree byte-for-state across waves
// that split the Zipf head and then converge it back (degree increase and
// decrease both force full epochs — the plan version changed); the deltas
// in between fold exactly, verified by a cold restart in each mode.
TEST(DurableEngine, IncrementalAndFullAgreeAcrossDegreeChangingWaves) {
  const std::uint32_t n = 3;
  const Topology topo = make_split_topology(n);
  const Placement place = Placement::round_robin(topo, n);

  // (instance, key) -> count at both stages after the cold restart.
  using StateMap = std::map<std::pair<InstanceIndex, Key>, std::uint64_t>;
  auto run_mode = [&](bool incremental,
                      const fs::path& dir) -> std::pair<StateMap, StateMap> {
    sketch::ExactCounter<Key> truth;
    std::vector<Tuple> stream;
    // Skewed head window (splits), then a near-uniform window (the next
    // wave converges the replicas), then a short tail.
    ZipfGenerator skewed(40, 1.5, 71);
    ZipfGenerator uniform(40, 0.1, 72);
    for (int i = 0; i < 12'000; ++i) stream.push_back(skewed.next());
    for (int i = 0; i < 3'000; ++i) stream.push_back(uniform.next());
    for (int i = 0; i < 2'000; ++i) stream.push_back(skewed.next());
    for (const Tuple& t : stream) truth.add(t.fields[0]);

    core::ManagerOptions mopts;
    mopts.split.max_degree = 3;
    ckpt::DurableStoreOptions sopts;
    sopts.incremental = incremental;
    std::uint64_t keys_split = 0;
    {
      ckpt::CheckpointCoordinator coord(open_store(dir, sopts));
      runtime::Engine engine(topo, place, split_factory(),
                             {.fields_mode = FieldsRouting::kTable,
                              .checkpoint = &coord});
      engine.start();
      core::Manager mgr(topo, place, mopts);
      replay(engine, stream, 0, 12'000);
      engine.flush();
      keys_split = engine.reconfigure(mgr).keys_split;  // split + auto-ckpt
      replay(engine, stream, 12'000, 15'000);
      engine.flush();
      engine.checkpoint();       // delta in incremental mode
      engine.reconfigure(mgr);   // degree-decreasing wave, full again
      replay(engine, stream, 15'000, 17'000);
      engine.flush();
      engine.checkpoint();
      engine.shutdown();
    }
    EXPECT_GT(keys_split, 0u);  // the head really ran split

    ckpt::CheckpointCoordinator coord(open_store(dir, sopts));
    runtime::Engine engine(topo, place, split_factory(),
                           {.fields_mode = FieldsRouting::kTable,
                            .checkpoint = &coord});
    engine.start();
    EXPECT_EQ(engine.restored_inject_offset(), stream.size());
    engine.flush();
    StateMap partials;
    StateMap totals;
    std::uint64_t merged_sum = 0;
    for (const auto& entry : truth.entries()) {
      std::uint64_t merged = 0;
      for (InstanceIndex i = 0; i < n; ++i) {
        const auto p = static_cast<runtime::PartialCountOperator&>(
                           engine.operator_at(1, i))
                           .partial(entry.key);
        const auto t = static_cast<runtime::MergeCountOperator&>(
                           engine.operator_at(2, i))
                           .total(entry.key);
        if (p > 0) partials[{i, entry.key}] = p;
        if (t > 0) totals[{i, entry.key}] = t;
        merged += t;
      }
      // Exactly-once through splitting, both waves, and the cold restart.
      EXPECT_EQ(merged, entry.count) << "key " << entry.key;
      merged_sum += merged;
    }
    EXPECT_EQ(merged_sum, stream.size());
    engine.shutdown();
    return {std::move(partials), std::move(totals)};
  };

  const auto inc = run_mode(true, fresh_dir("degree_inc"));
  const auto full = run_mode(false, fresh_dir("degree_full"));
  // Snapshot mode is invisible to routing and state: both restarts land on
  // identical per-instance partials and merged totals.
  EXPECT_EQ(inc.first, full.first);
  EXPECT_EQ(inc.second, full.second);
}

}  // namespace
}  // namespace lar
