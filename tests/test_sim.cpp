// Tests for the performance simulator: traffic accounting, throughput
// solving, and Manager integration.
#include <gtest/gtest.h>

#include "core/manager.hpp"
#include "sim/simulator.hpp"
#include "workload/flickr_like.hpp"
#include "workload/synthetic.hpp"

namespace lar::sim {
namespace {

SimConfig synthetic_config() {
  SimConfig cfg;
  cfg.source_mode = SourceMode::kAlignedField0;
  cfg.seed = 3;
  return cfg;
}

/// Fixed-content generator for hand-computable accounting tests.
class FixedGenerator final : public workload::TupleGenerator {
 public:
  explicit FixedGenerator(Tuple t) : tuple_(std::move(t)) {}
  Tuple next() override { return tuple_; }

 private:
  Tuple tuple_;
};

// --- traffic accounting -------------------------------------------------------

TEST(Pipeline, FullyLocalTupleTouchesNoNic) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  PipelineModel model(topo, place, synthetic_config(), FieldsRouting::kIdentity);
  // (1, 2+1): source instance 1, A_1, B_1 — all on server 1.
  FixedGenerator gen(Tuple{.fields = {1, 3}, .padding = 100});
  for (int i = 0; i < 10; ++i) model.process(gen.next());
  const TrafficStats& s = model.stats();
  EXPECT_EQ(s.tuples, 10u);
  EXPECT_EQ(s.nic_out[0] + s.nic_out[1], 0u);
  EXPECT_EQ(s.nic_in[0] + s.nic_in[1], 0u);
  EXPECT_EQ(s.edge_traffic[0].local, 10u);
  EXPECT_EQ(s.edge_traffic[1].local, 10u);
  // CPU: 10 * (0.05 + 1 + 1) on server 1, nothing on server 0.
  EXPECT_NEAR(s.cpu_units[1], 10 * 2.05, 1e-9);
  EXPECT_EQ(s.cpu_units[0], 0.0);
  EXPECT_EQ(s.instance_load[1][1], 10u);
  EXPECT_EQ(s.instance_load[1][0], 0u);
}

TEST(Pipeline, CrossServerHopAccountedOnBothNics) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  SimConfig cfg = synthetic_config();
  PipelineModel model(topo, place, cfg, FieldsRouting::kIdentity);
  // (0, 2+1): S_0 -> A_0 local; A_0 -> B_1 remote.
  FixedGenerator gen(Tuple{.fields = {0, 3}, .padding = 100});
  model.process(gen.next());
  const TrafficStats& s = model.stats();
  const std::uint32_t bytes = Tuple{.fields = {0, 3}, .padding = 100}
                                  .serialized_size();
  EXPECT_EQ(s.edge_traffic[1].remote, 1u);
  EXPECT_EQ(s.nic_out[0], bytes);
  EXPECT_EQ(s.nic_in[1], bytes);
  EXPECT_EQ(s.nic_out[1], 0u);
  // Serialization CPU charged to both endpoints.
  const double ser = cfg.per_msg_cpu + cfg.per_byte_cpu * bytes;
  EXPECT_NEAR(s.cpu_units[0], 0.05 + 1.0 + ser, 1e-9);
  EXPECT_NEAR(s.cpu_units[1], 1.0 + ser, 1e-9);
}

TEST(Pipeline, InstanceLoadsConserveTuples) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  PipelineModel model(topo, place, synthetic_config(), FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 400, .locality = 0.5, .padding = 0, .seed = 5});
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) model.process(gen.next());
  const TrafficStats& s = model.stats();
  for (OperatorId op = 0; op < 3; ++op) {
    std::uint64_t sum = 0;
    for (const auto load : s.instance_load[op]) sum += load;
    EXPECT_EQ(sum, n) << "operator " << op;
  }
  EXPECT_EQ(s.edge_traffic[0].local + s.edge_traffic[0].remote, n);
  EXPECT_EQ(s.edge_traffic[1].local + s.edge_traffic[1].remote, n);
}

TEST(Pipeline, ResetStatsZeroesCountersButKeepsPairStats) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  PipelineModel model(topo, place, synthetic_config(), FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 200, .locality = 0.5, .padding = 0, .seed = 6});
  for (int i = 0; i < 100; ++i) model.process(gen.next());
  model.reset_stats();
  EXPECT_EQ(model.stats().tuples, 0u);
  EXPECT_EQ(model.stats().edge_traffic[1].local, 0u);
  // Pair statistics survive a window boundary (they feed the next reconfig).
  const auto hops = model.collect_hop_stats();
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_FALSE(hops[0].pairs.empty());
  model.reset_pair_stats();
  EXPECT_TRUE(model.collect_hop_stats()[0].pairs.empty());
}

TEST(Pipeline, HopStatsComeFromTheStatefulHopOnly) {
  const Topology topo = make_two_stage_topology(3);
  const Placement place = Placement::round_robin(topo, 3);
  PipelineModel model(topo, place, synthetic_config(), FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 300, .locality = 1.0, .padding = 0, .seed = 7});
  for (int i = 0; i < 1000; ++i) model.process(gen.next());
  const auto hops = model.collect_hop_stats();
  ASSERT_EQ(hops.size(), 1u);  // S->A unobservable (S stateless)
  EXPECT_EQ(hops[0].in_op, 1u);
  EXPECT_EQ(hops[0].out_op, 2u);
  // With locality 1.0 every pair is diagonal: (i, n+i).
  for (const auto& pc : hops[0].pairs) {
    EXPECT_EQ(pc.out, 300 + pc.in);
  }
}

// --- locality of routing modes ---------------------------------------------------

TEST(Simulator, IdentityRoutingAchievesWorkloadLocality) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  Simulator sim(topo, place, synthetic_config(), FieldsRouting::kIdentity);
  workload::SyntheticGenerator gen(
      {.num_values = 600, .locality = 0.8, .padding = 0, .seed = 8});
  const auto report = sim.run_window(gen, 50'000);
  // locality + 1/n coincidence of the uncorrelated rest.
  EXPECT_NEAR(report.edge_locality[1], 0.8 + 0.2 / 6.0, 0.01);
  EXPECT_NEAR(report.edge_locality[0], 1.0, 1e-9);  // aligned source
}

TEST(Simulator, WorstCaseRoutingKillsLocality) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  Simulator sim(topo, place, synthetic_config(), FieldsRouting::kWorstCase);
  workload::SyntheticGenerator gen(
      {.num_values = 600, .locality = 1.0, .padding = 0, .seed = 9});
  const auto report = sim.run_window(gen, 20'000);
  EXPECT_EQ(report.edge_locality[0], 0.0);  // rotation: S->A never local
  EXPECT_EQ(report.edge_locality[1], 0.0);  // correlated pairs never local
}

TEST(Simulator, HashRoutingLocalityIsOneOverN) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  Simulator sim(topo, place, synthetic_config(), FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 600, .locality = 1.0, .padding = 0, .seed = 10});
  const auto report = sim.run_window(gen, 50'000);
  EXPECT_NEAR(report.edge_locality[1], 1.0 / 6.0, 0.03);
}

// --- throughput solver -------------------------------------------------------------

TEST(Simulator, FullLocalityIsBandwidthIndependent) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  workload::SyntheticGenerator gen(
      {.num_values = 400, .locality = 1.0, .padding = 20'000, .seed = 11});
  SimConfig fast = synthetic_config();
  SimConfig slow = synthetic_config();
  slow.nic_bandwidth = kOneGbps;
  Simulator sim_fast(topo, place, fast, FieldsRouting::kIdentity);
  Simulator sim_slow(topo, place, slow, FieldsRouting::kIdentity);
  workload::SyntheticGenerator gen2 = gen;
  const double t_fast = sim_fast.run_window(gen, 20'000).throughput;
  const double t_slow = sim_slow.run_window(gen2, 20'000).throughput;
  EXPECT_NEAR(t_fast, t_slow, t_fast * 1e-9);
}

TEST(Simulator, ThroughputMonotoneInPadding) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  double prev = 1e18;
  for (const std::uint32_t padding : {0u, 1000u, 4000u, 12'000u, 20'000u}) {
    Simulator sim(topo, place, synthetic_config(), FieldsRouting::kHash);
    workload::SyntheticGenerator gen(
        {.num_values = 400, .locality = 0.6, .padding = padding, .seed = 12});
    const double t = sim.run_window(gen, 20'000).throughput;
    EXPECT_LE(t, prev + 1.0);
    prev = t;
  }
}

TEST(Simulator, BottleneckShiftsToNicOnSlowNetwork) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  SimConfig slow = synthetic_config();
  slow.nic_bandwidth = kOneGbps;
  Simulator sim(topo, place, slow, FieldsRouting::kHash);
  workload::SyntheticGenerator gen(
      {.num_values = 600, .locality = 0.6, .padding = 12'000, .seed = 13});
  const auto report = sim.run_window(gen, 20'000);
  EXPECT_NE(report.bottleneck, Resource::kCpu);
}

TEST(Simulator, CpuBoundAtZeroPadding) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  Simulator sim(topo, place, synthetic_config(), FieldsRouting::kIdentity);
  workload::SyntheticGenerator gen(
      {.num_values = 200, .locality = 1.0, .padding = 0, .seed = 14});
  const auto report = sim.run_window(gen, 10'000);
  EXPECT_EQ(report.bottleneck, Resource::kCpu);
  // All-local chain split over 2 servers: each handles half the rate, so
  // R = 2 * capacity / (0.05 + 1 + 1).
  const double expected = 2 * 225'000.0 / 2.05;
  EXPECT_NEAR(report.throughput, expected, expected * 0.02);
}

// --- Manager integration ------------------------------------------------------------

TEST(Simulator, ReconfigureLiftsLocalityToWorkloadCeiling) {
  const Topology topo = make_two_stage_topology(4);
  const Placement place = Placement::round_robin(topo, 4);
  SimConfig cfg;
  cfg.source_mode = SourceMode::kRoundRobin;
  Simulator sim(topo, place, cfg, FieldsRouting::kTable);
  core::Manager mgr(topo, place, {});
  workload::FlickrLikeConfig wcfg;
  wcfg.num_tags = 2000;
  wcfg.num_countries = 50;
  wcfg.correlation = 0.6;
  wcfg.seed = 15;
  workload::FlickrLikeGenerator gen(wcfg);

  const auto before = sim.run_window(gen, 50'000);
  EXPECT_LT(before.edge_locality[1], 0.35);
  const auto plan = sim.reconfigure(mgr);
  EXPECT_GT(plan.keys_assigned, 0u);
  const auto after = sim.run_window(gen, 50'000);
  EXPECT_GT(after.edge_locality[1], 0.5);
  EXPECT_GT(after.throughput, before.throughput);
}

TEST(Simulator, ReconfigureImprovesLoadBalanceOnSkew) {
  const Topology topo = make_two_stage_topology(6);
  const Placement place = Placement::round_robin(topo, 6);
  SimConfig cfg;
  cfg.source_mode = SourceMode::kRoundRobin;
  Simulator sim(topo, place, cfg, FieldsRouting::kHash);
  core::Manager mgr(topo, place, {});
  workload::FlickrLikeConfig wcfg;
  wcfg.num_tags = 5000;
  wcfg.zipf_tags = 1.2;  // strong skew: hash balances poorly
  wcfg.seed = 16;
  workload::FlickrLikeGenerator gen(wcfg);

  const auto before = sim.run_window(gen, 50'000);
  sim.reconfigure(mgr);
  const auto after = sim.run_window(gen, 50'000);
  // Operator A (op id 1) receives the skewed tag keys.
  EXPECT_LT(after.op_load_balance[1], before.op_load_balance[1]);
}

TEST(Simulator, ApplyPlanInstallsTables) {
  const Topology topo = make_two_stage_topology(2);
  const Placement place = Placement::round_robin(topo, 2);
  Simulator sim(topo, place, synthetic_config(), FieldsRouting::kTable);
  core::Manager mgr(topo, place, {});
  // Offline-style: compute a plan from external stats, apply it.
  std::vector<core::PairCount> pairs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    pairs.push_back(core::PairCount{i, 100 + i, 10});
  }
  auto plan = mgr.compute_plan({core::HopStats{1, 2, pairs}});
  sim.apply_plan(plan);
  // Tuples following the learned diagonal must now be local on A->B.
  for (std::uint32_t i = 0; i < 8; ++i) {
    FixedGenerator gen(Tuple{.fields = {i, 100 + i}, .padding = 0});
    sim.model().process(gen.next());
  }
  EXPECT_EQ(sim.model().stats().edge_traffic[1].remote, 0u);
}

// run_window feeds tuples through process_batch; the reports (and the raw
// traffic counters) must be bit-identical to an unbatched twin model fed one
// tuple at a time from an identically seeded generator.
TEST(Simulator, BatchedWindowBitIdenticalToSingleTupleFeed) {
  const Topology topo = make_two_stage_topology(5);
  const Placement place = Placement::round_robin(topo, 5);
  SimConfig cfg = synthetic_config();
  cfg.source_mode = SourceMode::kRoundRobin;

  // Batched path: the Simulator's run_window.
  Simulator sim(topo, place, cfg, FieldsRouting::kHash);
  workload::SyntheticGenerator gen_batched(
      {.num_values = 500, .locality = 0.6, .padding = 8, .seed = 77});
  const auto report = sim.run_window(gen_batched, 10'001);  // not a multiple
                                                            // of the batch

  // Unbatched twin: same construction, same generator seed, process() loop.
  PipelineModel twin(topo, place, cfg, FieldsRouting::kHash);
  workload::SyntheticGenerator gen_single(
      {.num_values = 500, .locality = 0.6, .padding = 8, .seed = 77});
  for (int i = 0; i < 10'001; ++i) twin.process(gen_single.next());

  const TrafficStats& sa = sim.model().stats();
  const TrafficStats& sb = twin.stats();
  ASSERT_EQ(sa.tuples, sb.tuples);
  for (std::size_t e = 0; e < sa.edge_traffic.size(); ++e) {
    EXPECT_EQ(sa.edge_traffic[e].local, sb.edge_traffic[e].local) << e;
    EXPECT_EQ(sa.edge_traffic[e].remote, sb.edge_traffic[e].remote) << e;
    EXPECT_EQ(sa.edge_remote_bytes[e], sb.edge_remote_bytes[e]) << e;
  }
  for (std::size_t srv = 0; srv < sa.cpu_units.size(); ++srv) {
    EXPECT_EQ(sa.cpu_units[srv], sb.cpu_units[srv]) << srv;  // bit-identical
    EXPECT_EQ(sa.nic_out[srv], sb.nic_out[srv]) << srv;
    EXPECT_EQ(sa.nic_in[srv], sb.nic_in[srv]) << srv;
  }
  ASSERT_EQ(sa.instance_load.size(), sb.instance_load.size());
  for (std::size_t op = 0; op < sa.instance_load.size(); ++op) {
    EXPECT_EQ(sa.instance_load[op], sb.instance_load[op]) << op;
  }
  // Pair statistics feed reconfiguration: they must match too.
  const auto ha = sim.model().collect_hop_stats();
  const auto hb = twin.collect_hop_stats();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t h = 0; h < ha.size(); ++h) {
    ASSERT_EQ(ha[h].pairs.size(), hb[h].pairs.size()) << h;
    for (std::size_t p = 0; p < ha[h].pairs.size(); ++p) {
      EXPECT_EQ(ha[h].pairs[p].in, hb[h].pairs[p].in);
      EXPECT_EQ(ha[h].pairs[p].out, hb[h].pairs[p].out);
      EXPECT_EQ(ha[h].pairs[p].count, hb[h].pairs[p].count);
    }
  }
  EXPECT_EQ(report.window_tuples, sb.tuples);
}

// Deep stateless chains must not exhaust the C++ stack: the worklist deliver
// walks a 200-operator chain comfortably (the recursive version consumed a
// stack frame per hop).
TEST(Pipeline, DeepChainDeliversWithoutRecursion) {
  Topology topo;
  OperatorId prev = topo.add_operator(
      {.name = "src", .parallelism = 1, .is_source = true});
  constexpr int kDepth = 200;
  for (int d = 0; d < kDepth; ++d) {
    const OperatorId next =
        topo.add_operator({.name = "op" + std::to_string(d), .parallelism = 2});
    topo.connect(prev, next, GroupingType::kFields, /*key_field=*/0);
    prev = next;
  }
  const Placement place = Placement::round_robin(topo, 2);
  SimConfig cfg;
  cfg.source_mode = SourceMode::kRoundRobin;
  PipelineModel model(topo, place, cfg, FieldsRouting::kHash);
  FixedGenerator gen(Tuple{.fields = {9}, .padding = 0});
  for (int i = 0; i < 10; ++i) model.process(gen.next());
  const TrafficStats& s = model.stats();
  // Every hop saw every tuple exactly once.
  for (std::size_t e = 0; e < s.edge_traffic.size(); ++e) {
    EXPECT_EQ(s.edge_traffic[e].local + s.edge_traffic[e].remote, 10u) << e;
  }
}

}  // namespace
}  // namespace lar::sim
