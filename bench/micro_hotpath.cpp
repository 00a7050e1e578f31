// Tracked hot-path microbenchmarks: the data-plane costs the simulator pays
// per tuple, measured in isolation so regressions show up before they blur
// into a 50-second figure run.
//
//   * table routing: the seed's std::unordered_map table vs lar::Router's
//     FlatMap table (the acceptance target is >= 2x);
//   * route() cost per routing discipline, split tables included;
//   * SpaceSaving::add throughput (the per-tuple statistics cost);
//   * FlatMap vs std::unordered_map probe cost;
//   * channel hand-off: unlaned control push vs SPSC lane vs batched lane.
//
// Every timed pair doubles as a differential test: the seed table and the
// Router must produce identical decision checksums, FlatMap must agree with
// std::unordered_map and the channels must pop the same stream — any
// mismatch exits nonzero, so the `perf`-labelled ctest smoke run catches
// determinism breakage, not just build rot.
//
// Unlike the fig benches' BENCH_*.json (which embed deterministic obs
// reports), BENCH_micro_hotpath.json contains measured wall-clock timings and
// is not byte-stable across runs; the checksums in it are.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "runtime/queue.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/zipf.hpp"
#include "topology/routing.hpp"

using namespace lar;

namespace {

using Clock = std::chrono::steady_clock;

struct Point {
  std::string name;
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;  // deterministic under fixed seeds
};

template <typename Fn>
Point timed(std::string name, std::uint64_t ops, Fn&& fn) {
  const auto t0 = Clock::now();
  const std::uint64_t checksum = fn();
  const auto t1 = Clock::now();
  Point p;
  p.name = std::move(name);
  p.ops = ops;
  p.checksum = checksum;
  p.ns_per_op = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                static_cast<double>(ops);
  return p;
}

/// The seed's table lookup, kept as the baseline: a node-based
/// std::unordered_map (std::hash) held behind a shared_ptr (the seed's table
/// router shared one RoutingTable per edge), probed with the seed's
/// per-tuple LAR_CHECK.
class LegacyTableRouter {
 public:
  LegacyTableRouter(std::uint32_t key_field, std::uint32_t fanout,
                    std::shared_ptr<const std::unordered_map<Key, InstanceIndex>> table)
      : key_field_(key_field), fanout_(fanout), table_(std::move(table)) {}

  [[nodiscard]] InstanceIndex route(const Tuple& tuple) {
    LAR_CHECK(key_field_ < tuple.fields.size());
    const Key key = tuple.fields[key_field_];
    const auto it = table_->find(key);
    return it != table_->end() ? it->second : hash_instance(key, fanout_);
  }

 private:
  std::uint32_t key_field_;
  std::uint32_t fanout_;
  std::shared_ptr<const std::unordered_map<Key, InstanceIndex>> table_;
};

/// Benchmark topology: S(4) -fields-> A(8) -shuffle-> B(8) -local-> C(8).
Topology bench_topology() {
  Topology topo;
  const OperatorId s =
      topo.add_operator({.name = "S", .parallelism = 4, .is_source = true});
  const OperatorId a = topo.add_operator({.name = "A", .parallelism = 8});
  const OperatorId b = topo.add_operator({.name = "B", .parallelism = 8});
  const OperatorId c = topo.add_operator({.name = "C", .parallelism = 8});
  topo.connect(s, a, GroupingType::kFields, /*key_field=*/0);
  topo.connect(a, b, GroupingType::kShuffle);
  topo.connect(b, c, GroupingType::kLocalOrShuffle);
  return topo;
}

int failures = 0;

void check_equal(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    std::fprintf(stderr, "DETERMINISM MISMATCH: %s (%" PRIu64 " vs %" PRIu64 ")\n",
                 what, a, b);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 2'000'000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0) {
      ops = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  if (ops == 0) ops = 1;

  std::printf(
      "# micro_hotpath — per-tuple data-plane costs (%" PRIu64 " ops/point)\n"
      "# columns: benchmark, ns/op; table, flat-map and channel pairs are\n"
      "# also differential determinism checks (mismatch -> nonzero exit)\n",
      ops);

  const Topology topo = bench_topology();
  const Placement place = Placement::round_robin(topo, 4);
  const std::size_t n_keys = 50'000;
  constexpr std::size_t kTupleMask = (1u << 16) - 1;

  // Pre-generated key stream: uniform over 2x the table's key range, so
  // about half the lookups fall back to hash routing, like a live window
  // whose tail keys were never planned.
  std::vector<Tuple> tuples;
  tuples.reserve(kTupleMask + 1);
  {
    Rng rng(404);
    for (std::size_t i = 0; i <= kTupleMask; ++i) {
      tuples.push_back(Tuple{.fields = {rng.below(2 * n_keys)}});
    }
  }

  std::vector<Point> points;

  // --- headline: table routing, seed baseline vs this PR's hot path --------
  //
  // Workload model: 1M planned keys (the top fig12 budget) drawn from a
  // sparse 64-bit id space (stream keys are hashed identifiers before
  // KeyDict interning densifies them), 90% table hit rate (the table exists
  // to cover the heavy hitters, so most traffic hits it).
  //
  // The loops are latency-bound on purpose: in PipelineModel::deliver the
  // route result feeds the pair-stats bucket and the next hop's frame, so
  // the simulator pays the lookup's *latency*, not its pipelined throughput.
  // The dependent index (`idx += i + dst`) reproduces that: it serializes
  // each lookup on the previous decision, which is also why the checksums of
  // the two loops must match bit-for-bit.
  const EdgeSpec& fields_edge = topo.edges()[0];
  {
    const std::size_t n_table_keys = 1'000'000;
    auto legacy_map =
        std::make_shared<std::unordered_map<Key, InstanceIndex>>();
    RoutingTable table;
    std::vector<Key> planned;
    planned.reserve(n_table_keys);
    Rng keys(7);
    for (std::size_t i = 0; i < n_table_keys; ++i) {
      const Key k = keys.next();
      const auto inst = static_cast<InstanceIndex>(mix64(k * 3) % 8);
      planned.push_back(k);
      legacy_map->emplace(k, inst);
      table.assign(k, inst);
    }
    // Key stream only; the routed tuple itself is kept hot (a single scratch
    // tuple rewritten per iteration) because that matches the simulator: a
    // tuple is routed right after the generator or the upstream hop wrote
    // it, never fetched cold from a far-away pool.
    std::vector<Key> stream;
    stream.reserve(kTupleMask + 1);
    {
      Rng pick(404);
      Rng miss(13);
      for (std::size_t i = 0; i <= kTupleMask; ++i) {
        stream.push_back(pick.below(100) < 90 ? planned[pick.below(n_table_keys)]
                                              : miss.next());
      }
    }
    Tuple scratch{.fields = {0}};
    LegacyTableRouter legacy(/*key_field=*/0, /*fanout=*/8, legacy_map);
    Router router = make_router(
        fields_edge, 0, topo, place, place.server_of(0, 0),
        FieldsRouting::kTable,
        std::make_shared<const RoutingTable>(std::move(table)), /*seed=*/1);

    points.push_back(timed("table_route_seed_unordered", ops, [&] {
      std::uint64_t sum = 0;
      std::uint64_t idx = 0;
      for (std::uint64_t i = 0; i < ops; ++i) {
        scratch.fields[0] = stream[idx & kTupleMask];
        const InstanceIndex dst = legacy.route(scratch);
        sum += dst;
        idx += i + dst;
      }
      return sum;
    }));
    points.push_back(timed("table_route_flatmap", ops, [&] {
      std::uint64_t sum = 0;
      std::uint64_t idx = 0;
      for (std::uint64_t i = 0; i < ops; ++i) {
        scratch.fields[0] = stream[idx & kTupleMask];
        const InstanceIndex dst = router.route(scratch);
        sum += dst;
        idx += i + dst;
      }
      return sum;
    }));
    check_equal("table routing decisions",
                points[points.size() - 2].checksum, points.back().checksum);
  }

  // --- route() cost per routing discipline ---------------------------------
  struct ModePoint {
    const char* name;
    FieldsRouting mode;
    std::uint32_t edge;
  };
  const ModePoint modes[] = {
      {"hash", FieldsRouting::kHash, 0},
      {"permutation", FieldsRouting::kPermutation, 0},
      {"identity", FieldsRouting::kIdentity, 0},
      {"partial_key", FieldsRouting::kPartialKey, 0},
      {"shuffle", FieldsRouting::kHash, 1},         // grouping decides
      {"local_or_shuffle", FieldsRouting::kHash, 2},
  };
  for (const ModePoint& m : modes) {
    const EdgeSpec& edge = topo.edges()[m.edge];
    Router router = make_router(edge, m.edge, topo, place,
                                place.server_of(edge.from, 0), m.mode, nullptr,
                                /*seed=*/9);
    points.push_back(timed(std::string("route_") + m.name, ops, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < ops; ++i) {
        sum += router.route(tuples[i & kTupleMask]);
      }
      return sum;
    }));
  }

  // --- split routing: d-candidate least-loaded ------------------------------
  //
  // Tables where 10% of the planned keys are split (lar::split hot keys):
  // each split lookup walks its d candidates' sent counters and bumps the
  // winner, so this prices the per-degree overhead over plain table routing.
  for (const std::uint32_t degree : {2u, 4u}) {
    const EdgeSpec& edge = topo.edges()[0];
    const std::uint32_t fanout = 8;  // op A's parallelism
    auto table = std::make_shared<RoutingTable>();
    Rng fill(21 + degree);
    for (std::size_t i = 0; i < n_keys; ++i) {
      const Key k = static_cast<Key>(i);
      if (fill.below(10) == 0) {
        std::vector<InstanceIndex> cands;
        const auto first = static_cast<InstanceIndex>(fill.below(fanout));
        for (std::uint32_t c = 0; c < degree; ++c) {
          cands.push_back((first + c) % fanout);
        }
        table->assign_split(k, cands);
      } else {
        table->assign(k, static_cast<InstanceIndex>(fill.below(fanout)));
      }
    }
    Router router = make_router(edge, 0, topo, place,
                                place.server_of(edge.from, 0),
                                FieldsRouting::kTable, table, /*seed=*/9);
    points.push_back(
        timed("route_split_d" + std::to_string(degree), ops, [&] {
          std::uint64_t sum = 0;
          for (std::uint64_t i = 0; i < ops; ++i) {
            sum += router.route(tuples[i & kTupleMask]);
          }
          return sum;
        }));
  }

  // --- SpaceSaving add throughput -------------------------------------------
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(kTupleMask + 1);
    sketch::ZipfSampler zipf(100'000, 1.05);
    Rng rng(7);
    for (std::size_t i = 0; i <= kTupleMask; ++i) keys.push_back(zipf.sample(rng));
    sketch::SpaceSaving<std::uint64_t> sketch(1u << 15);
    points.push_back(timed("space_saving_add", ops, [&] {
      for (std::uint64_t i = 0; i < ops; ++i) sketch.add(keys[i & kTupleMask]);
      return sketch.total() + sketch.min_count();
    }));
  }

  // --- FlatMap vs std::unordered_map probe ----------------------------------
  {
    FlatMap<Key, std::uint64_t> flat;
    std::unordered_map<Key, std::uint64_t> umap;
    Rng rng(12);
    for (std::size_t i = 0; i < n_keys; ++i) {
      const Key k = rng.next();
      flat[k] = i;
      umap[k] = i;
    }
    // Probe stream: alternating hits (re-drawn from the same Rng sequence)
    // and misses.
    std::vector<Key> probes;
    probes.reserve(kTupleMask + 1);
    Rng replay(12);
    Rng miss(13);
    for (std::size_t i = 0; i <= kTupleMask; ++i) {
      probes.push_back((i & 1) == 0 ? replay.next() : miss.next());
    }
    points.push_back(timed("probe_unordered_map", ops, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto it = umap.find(probes[i & kTupleMask]);
        if (it != umap.end()) sum += it->second;
      }
      return sum;
    }));
    points.push_back(timed("probe_flat_map", ops, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < ops; ++i) {
        if (const std::uint64_t* v = flat.find(probes[i & kTupleMask])) sum += *v;
      }
      return sum;
    }));
    check_equal("flat map vs unordered map contents",
                points[points.size() - 2].checksum, points.back().checksum);
  }

  // --- channel hand-off: unlaned MPSC control vs SPSC lane vs batched lane --
  //
  // The runtime's per-hop cost (DESIGN.md §13), measured single-threaded in
  // push/pop chunks so the numbers isolate the hand-off mechanism itself:
  // the unlaned control push (mutex + deque, any producer), an SPSC
  // ring lane publishing every push (batch 1 — the degenerate batch, same
  // per-item visibility as the old queue), the same lane publishing every
  // 32 pushes (the engine's default lane_batch) but popped one item at a
  // time, and that lane popped the way the engine pops it: runs of up to 32
  // items per gate hold and head store.  All four pop the identical value
  // stream, so the checksums double as a differential test.
  {
    constexpr std::uint64_t kChunk = 64;
    const std::uint64_t chunks = std::max<std::uint64_t>(ops / kChunk, 1);
    const std::uint64_t n = chunks * kChunk;
    {
      runtime::Channel<std::uint64_t> ch;
      points.push_back(timed("channel_mpsc_push_pop", n, [&] {
        std::uint64_t sum = 0;
        std::uint64_t v = 1;
        for (std::uint64_t c = 0; c < chunks; ++c) {
          for (std::uint64_t k = 0; k < kChunk; ++k) ch.push_unbounded(v++);
          for (std::uint64_t k = 0; k < kChunk; ++k) sum += *ch.try_pop();
        }
        return sum;
      }));
    }
    {
      runtime::Channel<std::uint64_t> ch;
      const std::uint32_t lane = ch.add_lane(kChunk);
      points.push_back(timed("channel_spsc_lane_push_pop", n, [&] {
        std::uint64_t sum = 0;
        std::uint64_t v = 1;
        for (std::uint64_t c = 0; c < chunks; ++c) {
          for (std::uint64_t k = 0; k < kChunk; ++k) ch.lane_push(lane, v++);
          for (std::uint64_t k = 0; k < kChunk; ++k) sum += *ch.try_pop();
        }
        return sum;
      }));
    }
    {
      runtime::Channel<std::uint64_t> ch;
      const std::uint32_t lane = ch.add_lane(kChunk);
      ch.set_lane_batch(32);
      points.push_back(timed("channel_batched_push_pop", n, [&] {
        std::uint64_t sum = 0;
        std::uint64_t v = 1;
        for (std::uint64_t c = 0; c < chunks; ++c) {
          for (std::uint64_t k = 0; k < kChunk; ++k) ch.lane_push(lane, v++);
          ch.lane_flush(lane);
          for (std::uint64_t k = 0; k < kChunk; ++k) sum += *ch.try_pop();
        }
        return sum;
      }));
    }
    {
      runtime::Channel<std::uint64_t> ch;
      const std::uint32_t lane = ch.add_lane(kChunk);
      ch.set_lane_batch(32);
      std::vector<std::uint64_t> run;
      run.reserve(32);
      points.push_back(timed("channel_batched_run_pop", n, [&] {
        std::uint64_t sum = 0;
        std::uint64_t v = 1;
        for (std::uint64_t c = 0; c < chunks; ++c) {
          for (std::uint64_t k = 0; k < kChunk; ++k) ch.lane_push(lane, v++);
          ch.lane_flush(lane);
          for (std::uint64_t k = 0; k < kChunk; k += run.size()) {
            run.clear();
            if (!ch.try_pop_run(run)) break;  // shows as a checksum mismatch
            for (const std::uint64_t x : run) sum += x;
          }
        }
        return sum;
      }));
    }
    check_equal("channel mpsc vs spsc lane", points[points.size() - 4].checksum,
                points[points.size() - 3].checksum);
    check_equal("channel spsc lane vs batched",
                points[points.size() - 3].checksum,
                points[points.size() - 2].checksum);
    check_equal("channel batched vs run pop",
                points[points.size() - 2].checksum, points.back().checksum);
  }

  // --- report ----------------------------------------------------------------
  double legacy_ns = 0.0;
  double flat_ns = 0.0;
  for (const Point& p : points) {
    std::printf("%-32s %10.2f ns/op\n", p.name.c_str(), p.ns_per_op);
    if (p.name == "table_route_seed_unordered") legacy_ns = p.ns_per_op;
    if (p.name == "table_route_flatmap") flat_ns = p.ns_per_op;
  }
  const double speedup = flat_ns > 0.0 ? legacy_ns / flat_ns : 0.0;
  std::printf("# table routing speedup (unordered_map -> Router+FlatMap): "
              "%.2fx (target >= 2x)\n", speedup);

  std::string json = "{\"bench\":\"micro_hotpath\",\"ops\":" +
                     std::to_string(ops) + ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) json += ',';
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f", points[i].ns_per_op);
    json += "{\"name\":\"" + points[i].name + "\",\"ns_per_op\":" + buf +
            ",\"checksum\":" + std::to_string(points[i].checksum) + "}";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", speedup);
  json += std::string("],\"table_route_speedup\":") + buf + "}\n";
  if (std::FILE* f = std::fopen("BENCH_micro_hotpath.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# wrote BENCH_micro_hotpath.json\n");
  }

  if (failures != 0) {
    std::fprintf(stderr, "# %d differential check(s) FAILED\n", failures);
    return 1;
  }
  return 0;
}
