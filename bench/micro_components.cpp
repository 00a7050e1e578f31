// Component micro-benchmarks (google-benchmark): the per-tuple and
// per-reconfiguration costs that the paper argues are small enough for
// online use — SpaceSaving updates, routing decisions, graph partitioning,
// end-to-end plan computation and the lar::obs instruments.
//
// The custom main() additionally (a) measures the engine's hot-path
// throughput with observability attached vs the no-op disabled mode (the
// acceptance bar is a <5% delta; the per-tuple path is registry-free by
// design, so the true cost is a couple of null checks) and (b) writes a
// deterministic BENCH_micro_components.json snapshot of one instrumented
// engine reconfiguration round.
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>

#include "bench_util.hpp"
#include "core/manager.hpp"
#include "core/pair_stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "runtime/engine.hpp"
#include "sim/pipeline.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/zipf.hpp"
#include "topology/routing.hpp"
#include "workload/synthetic.hpp"
#include "workload/twitter_like.hpp"

namespace {

using namespace lar;

void BM_SpaceSavingAdd(benchmark::State& state) {
  sketch::SpaceSaving<std::uint64_t> sketch(
      static_cast<std::size_t>(state.range(0)));
  sketch::ZipfSampler zipf(100'000, 1.1);
  Rng rng(1);
  std::vector<std::uint64_t> keys(1 << 14);
  for (auto& k : keys) k = zipf.sample(rng);
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.add(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_PairStatsRecord(benchmark::State& state) {
  core::PairStats stats(1 << 16);
  sketch::ZipfSampler zipf(10'000, 1.1);
  Rng rng(2);
  std::vector<std::pair<Key, Key>> pairs(1 << 14);
  for (auto& p : pairs) p = {zipf.sample(rng), 1'000'000 + zipf.sample(rng)};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [in, out] = pairs[i++ & (pairs.size() - 1)];
    stats.record(in, out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairStatsRecord);

void BM_HashRouting(benchmark::State& state) {
  Router router(0, 6);
  Tuple t{.fields = {12345, 678}, .padding = 0};
  for (auto _ : state) {
    t.fields[0] += 1;
    benchmark::DoNotOptimize(router.route(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRouting);

void BM_TableRouting(benchmark::State& state) {
  auto table = std::make_shared<RoutingTable>();
  for (Key k = 0; k < static_cast<Key>(state.range(0)); ++k) {
    table->assign(k, static_cast<InstanceIndex>(k % 6));
  }
  Router router(0, 6, table);
  Tuple t{.fields = {0, 0}, .padding = 0};
  Key k = 0;
  for (auto _ : state) {
    t.fields[0] = (k++) % (2 * state.range(0));  // 50% hits, 50% fallback
    benchmark::DoNotOptimize(router.route(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableRouting)->Arg(1 << 10)->Arg(1 << 17);

void BM_PartitionKeyGraph(benchmark::State& state) {
  // A bipartite key graph of the size a weekly reconfiguration handles.
  const std::size_t tags = static_cast<std::size_t>(state.range(0));
  core::BipartiteGraphBuilder builder;
  std::vector<core::PairCount> pairs;
  Rng rng(3);
  sketch::ZipfSampler loc_zipf(300, 1.0);
  for (std::size_t t = 0; t < tags; ++t) {
    // Each tag co-occurs with a home and two noise locations.
    pairs.push_back({loc_zipf.sample(rng), 1'000'000 + t, 50});
    pairs.push_back({loc_zipf.sample(rng), 1'000'000 + t, 5});
    pairs.push_back({loc_zipf.sample(rng), 1'000'000 + t, 3});
  }
  builder.add_pairs(1, 2, pairs);
  const core::KeyGraph kg = builder.build();
  partition::PartitionOptions opts;
  opts.num_parts = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition_graph(kg.graph, opts));
  }
  state.counters["vertices"] =
      static_cast<double>(kg.graph.num_vertices());
}
BENCHMARK(BM_PartitionKeyGraph)->Arg(2'000)->Arg(20'000)->Unit(benchmark::kMillisecond);

void BM_ManagerComputePlan(benchmark::State& state) {
  // Full plan computation (graph build + partition + tables + moves) on a
  // realistic weekly statistics snapshot.
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  sim::SimConfig cfg;
  cfg.source_mode = SourceMode::kRoundRobin;
  sim::PipelineModel model(topo, place, cfg, FieldsRouting::kHash);
  workload::TwitterLikeGenerator gen({});
  for (int i = 0; i < 200'000; ++i) model.process(gen.next());
  const auto stats = model.collect_hop_stats();
  for (auto _ : state) {
    core::Manager manager(topo, place, {});
    benchmark::DoNotOptimize(manager.compute_plan(stats));
  }
  state.counters["pairs"] = static_cast<double>(stats[0].pairs.size());
}
BENCHMARK(BM_ManagerComputePlan)->Unit(benchmark::kMillisecond);

void BM_PipelineProcess(benchmark::State& state) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  sim::SimConfig cfg;
  cfg.source_mode = SourceMode::kAlignedField0;
  sim::PipelineModel model(topo, place, cfg, FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 720, .locality = 0.8, .padding = 0, .seed = 4});
  for (auto _ : state) {
    model.process(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineProcess);

// --- lar::obs instruments --------------------------------------------------

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench_counter_total");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h =
      reg.histogram("bench_hist", {1, 2, 4, 8, 16, 32, 64, 128});
  double v = 0.0;
  for (auto _ : state) {
    v = v < 200.0 ? v + 1.0 : 0.0;
    h.observe(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsRegistryLookup(benchmark::State& state) {
  // Worst-case usage: resolving the instrument by name + labels every time
  // instead of caching the reference (what publish-time code paths do).
  obs::Registry reg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &reg.counter("bench_lookup_total", {{"op", "count"}, {"inst", "3"}}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryLookup);

/// Populates `reg` like a mid-size instrumented run: `samples` counter and
/// gauge samples spread across two families.
void populate_registry(obs::Registry& reg, std::int64_t samples) {
  for (std::int64_t i = 0; i < samples; ++i) {
    const obs::Labels labels = {{"op", "count"},
                                {"inst", std::to_string(i)}};
    reg.counter("bench_tuples_total", labels)
        .inc(static_cast<std::uint64_t>(i));
    reg.gauge("bench_depth", labels).set(static_cast<double>(i % 7));
  }
}

void BM_ObsRegistrySnapshot(benchmark::State& state) {
  // Cost of one canonical families() walk — what every timeline tick and
  // every exporter pass pays.
  obs::Registry reg;
  populate_registry(reg, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.families());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistrySnapshot)->Arg(16)->Arg(256);

void BM_ObsTimelineTick(benchmark::State& state) {
  // Steady-state timeline tick: values unchanged between ticks, so each
  // tick flattens the registry and emits an empty delta — the per-window
  // cost fig13 pays with a timeline attached.
  obs::Registry reg;
  populate_registry(reg, state.range(0));
  obs::Timeline timeline;
  double vtime = 0.0;
  for (auto _ : state) {
    timeline.tick(reg, vtime += 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTimelineTick)->Arg(16)->Arg(256);

// --- custom main: obs overhead check + BENCH json --------------------------

runtime::OperatorFactory counting_factory() {
  return [](OperatorId op, InstanceIndex) -> std::unique_ptr<runtime::Operator> {
    if (op == 0) return std::make_unique<runtime::PassThroughOperator>();
    return std::make_unique<runtime::CountingOperator>(op == 1 ? 0u : 1u);
  };
}

/// Pushes `tuples` through a small engine and returns the elapsed seconds of
/// the inject+flush hot loop, with observability attached or in the no-op
/// disabled mode.
double engine_hot_loop_seconds(bool obs_on, std::uint64_t tuples) {
  const std::uint32_t n = 2;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  obs::Registry reg;
  obs::TraceRecorder trace;
  runtime::EngineOptions opts;
  opts.fields_mode = FieldsRouting::kHash;
  if (obs_on) {
    opts.registry = &reg;
    opts.trace = &trace;
  }
  runtime::Engine engine(topo, place, counting_factory(), opts);
  engine.start();
  workload::SyntheticGenerator gen(
      {.num_values = 500, .locality = 0.8, .padding = 16, .seed = 5});
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < tuples; ++i) engine.inject(gen.next());
  engine.flush();
  const auto t1 = std::chrono::steady_clock::now();
  if (obs_on) engine.publish_metrics();
  engine.shutdown();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One deterministic instrumented engine round (inject -> reconfigure ->
/// inject -> publish) whose registry + trace feed BENCH_micro_components.json.
void write_bench_json() {
  const std::uint32_t n = 3;
  const Topology topo = make_two_stage_topology(n);
  const Placement place = Placement::round_robin(topo, n);
  obs::Registry reg;
  obs::TraceRecorder trace;
  runtime::EngineOptions opts;
  opts.fields_mode = FieldsRouting::kHash;
  opts.pair_stats_capacity = 0;  // exact stats -> deterministic plans
  opts.registry = &reg;
  opts.trace = &trace;
  runtime::Engine engine(topo, place, counting_factory(), opts);
  engine.start();
  core::Manager manager(topo, place, {});
  manager.set_metrics_registry(&reg);
  workload::SyntheticGenerator gen(
      {.num_values = 300, .locality = 0.8, .padding = 16, .seed = 6});
  for (int i = 0; i < 20'000; ++i) engine.inject(gen.next());
  engine.flush();  // quiescent: reconfigure without buffering
  (void)engine.reconfigure(manager);
  for (int i = 0; i < 20'000; ++i) engine.inject(gen.next());
  engine.flush();
  engine.publish_metrics();
  bench::JsonBenchReport report("micro_components");
  // Queue high-water marks depend on thread scheduling; everything else in
  // this quiescent round is deterministic, keeping the file byte-stable.
  report.add_panel("engine_reconfig_round", reg, &trace,
                   [](std::string_view name) {
                     return name.substr(0, 10) != "lar_queue_";
                   });
  report.write();
  engine.shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Hot-path overhead of observability: medians of interleaved repetitions.
  constexpr std::uint64_t kTuples = 100'000;
  std::vector<double> off;
  std::vector<double> on;
  engine_hot_loop_seconds(false, kTuples);  // warm-up
  for (int rep = 0; rep < 3; ++rep) {
    off.push_back(engine_hot_loop_seconds(false, kTuples));
    on.push_back(engine_hot_loop_seconds(true, kTuples));
  }
  std::sort(off.begin(), off.end());
  std::sort(on.begin(), on.end());
  const double base = off[off.size() / 2];
  const double inst = on[on.size() / 2];
  std::printf(
      "# engine hot path, %llu tuples: obs-off %.0f tuples/s, obs-on %.0f "
      "tuples/s, delta %+.2f%% (acceptance: <5%%)\n",
      static_cast<unsigned long long>(kTuples),
      static_cast<double>(kTuples) / base, static_cast<double>(kTuples) / inst,
      (inst - base) / base * 100.0);

  // The SPSC ring slot size: every lane hand-off moves one Message by value
  // (DESIGN.md §13), so growth here is a data-plane regression.  Tracked as a
  // printed report, not an assert — alternates legitimately differ per ABI.
  std::printf("# sizeof(lar::runtime::Message) = %zu bytes (SPSC ring slot); "
              "sizeof(Tuple) = %zu, sizeof(DataMsg) = %zu\n",
              sizeof(runtime::Message), sizeof(Tuple), sizeof(runtime::DataMsg));

  write_bench_json();
  return 0;
}
