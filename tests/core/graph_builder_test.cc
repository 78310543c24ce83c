#include "core/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "plan/coster.h"
#include "plan/het_plan.h"
#include "ssb/reference.h"
#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using plan::HetOpNode;
using plan::HetPlan;
using test::TestEnv;

/// Counts plan nodes of one kind.
int CountKind(const HetPlan& plan, HetOpNode::Kind kind) {
  int n = 0;
  for (const auto& node : plan.nodes) n += node.kind == kind;
  return n;
}

class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : env_(20'000) {}

  HetPlan Plan(const plan::QuerySpec& spec, const ExecPolicy& policy) {
    return plan::BuildHetPlan(spec, policy, env_.system->topology());
  }

  LoweredSpec Lower(const HetPlan& plan) {
    GraphBuilder builder(env_.system.get(), &plan);
    Status st = builder.Analyze();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return builder.spec();
  }

  TestEnv env_;
};

// --- Lowered node/edge counts agree with the HetPlan, per ExecPolicy factory.

TEST_F(GraphBuilderTest, CpuOnlyLoweringMatchesPlan) {
  const auto spec = env_.ssb->Query(3, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(4)));
  const LoweredSpec lowered = Lower(plan);

  // One build stage per join with one replica branch per socket. Each socket's
  // 2 workers split across 3 concurrent builds, so k = max(1, 2 / 3) = 1:
  // 2 instances per stage.
  ASSERT_EQ(lowered.build_stages.size(), spec.joins.size());
  EXPECT_EQ(CountKind(plan, HetOpNode::Kind::kJoinBuild),
            2 * static_cast<int>(spec.joins.size()));
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.role, plan::SpanRole::kBuild);
    EXPECT_EQ(s.options.policy, Edge::Policy::kBroadcast);
    EXPECT_TRUE(s.options.broadcast_per_unit);
    EXPECT_EQ(s.branches.size(), 2u);
    ASSERT_EQ(s.instances.size(), 2u);
    EXPECT_EQ(s.instances[0], sim::DeviceId::Cpu(0));
    EXPECT_EQ(s.instances[1], sim::DeviceId::Cpu(1));
  }

  // Fused plan: gather + probe stages; probe DOP = the fact router's fanout.
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  EXPECT_EQ(lowered.fact_stages[0].role, plan::SpanRole::kGather);
  EXPECT_EQ(lowered.fact_stages[0].instances.size(), 1u);
  EXPECT_EQ(lowered.fact_stages[1].role, plan::SpanRole::kProbe);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(), 4u);
  for (const auto& dev : lowered.fact_stages[1].instances) {
    EXPECT_TRUE(dev.is_cpu());
  }
  EXPECT_EQ(lowered.fact_stages[1].options.policy, Edge::Policy::kLoadBalance);
  EXPECT_EQ(lowered.TotalEdges(), static_cast<int>(spec.joins.size()) + 2);

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(4)));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, GpuOnlyLoweringMatchesPlan) {
  const auto spec = env_.ssb->Query(1, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  const LoweredSpec lowered = Lower(plan);

  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  const StageSpec& probe = lowered.fact_stages[1];
  EXPECT_EQ(probe.instances.size(), 2u);  // both GPUs of the test topology
  for (const auto& dev : probe.instances) EXPECT_TRUE(dev.is_gpu());
  // The device->host partials crossing stamps its latency on the union edge.
  EXPECT_GT(lowered.fact_stages[0].options.crossing_latency, 0.0);
  // Routers present: bring-up latency lifted from the plan stamps.
  EXPECT_GT(lowered.init_latency, 0.0);

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, HybridLoweringMergesBranchesOfOneExchange) {
  const auto spec = env_.ssb->Query(2, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)));
  const LoweredSpec lowered = Lower(plan);

  // The CPU and GPU branches of the DAG share the fact router: one worker
  // group, CPU instances first (the plan's branch order).
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  const StageSpec& probe = lowered.fact_stages[1];
  ASSERT_EQ(probe.instances.size(), 5u);  // 3 CPU workers + 2 GPUs
  EXPECT_TRUE(probe.instances[0].is_cpu());
  EXPECT_TRUE(probe.instances[4].is_gpu());
  ASSERT_EQ(probe.branches.size(), 2u);

  // Build stages replicate per unit: 2 sockets + 2 GPUs, one instance each
  // (socket 0 has 2 workers, socket 1 has 1, over 3 builds: k = 1).
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.branches.size(), 4u);
    EXPECT_EQ(s.instances.size(), 4u);
  }

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, ParallelBuildLowering) {
  // Q1.1 has one join: each socket's 2 workers both build its one replica.
  const auto spec = env_.ssb->Query(1, 1);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(4));
  const HetPlan plan = Plan(spec, policy);
  for (const auto& node : plan.nodes) {
    if (node.kind != HetOpNode::Kind::kJoinBuild) continue;
    ASSERT_EQ(node.placement.size(), 2u);
    EXPECT_EQ(node.dop, 2);
    EXPECT_EQ(node.placement[0], node.placement[1]);
  }

  const LoweredSpec lowered = Lower(plan);
  ASSERT_EQ(lowered.build_stages.size(), 1u);
  const StageSpec& build = lowered.build_stages[0];
  ASSERT_EQ(build.branches.size(), 2u);  // one replica branch per socket
  const auto cpu0 = sim::DeviceId::Cpu(0);
  const auto cpu1 = sim::DeviceId::Cpu(1);
  EXPECT_EQ(build.instances, (std::vector<sim::DeviceId>{cpu0, cpu0, cpu1, cpu1}));
  EXPECT_TRUE(build.options.broadcast_per_unit);

  // Four builders fill two replicas; the rows match the reference and the
  // query's tables are dropped with its namespace.
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
  EXPECT_EQ(env_.system->hts().NumTables(result.query_id), 0);

  // Same plan with k = 1 (one builder per socket): same rows, a later
  // probe watermark.
  HetPlan serial = plan;
  for (auto& node : serial.nodes) {
    if (node.placement.size() == 2 && node.placement[0] == node.placement[1]) {
      node.placement.resize(1);
      node.dop = 1;
    }
  }
  const auto one = executor.ExecutePlan(spec, serial);
  ASSERT_TRUE(one.status.ok()) << one.status.ToString();
  EXPECT_EQ(one.rows, result.rows);
  EXPECT_LT(result.build_seconds, one.build_seconds);
}

TEST_F(GraphBuilderTest, SplitPlanLowersSharedHashExchange) {
  const auto spec = env_.ssb->Query(2, 2);
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::Hybrid(2));
  policy.split_probe_stage = true;
  const HetPlan plan = Plan(spec, policy);
  const LoweredSpec lowered = Lower(plan);

  ASSERT_EQ(lowered.fact_stages.size(), 3u);
  EXPECT_EQ(lowered.fact_stages[0].role, plan::SpanRole::kGather);
  EXPECT_EQ(lowered.fact_stages[1].role, plan::SpanRole::kProbe);
  EXPECT_EQ(lowered.fact_stages[2].role, plan::SpanRole::kFilterStage);
  // Stage A and stage B are connected by the single hash exchange of the plan.
  EXPECT_EQ(lowered.fact_stages[1].options.policy, Edge::Policy::kHash);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(),
            lowered.fact_stages[2].instances.size());

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, BareCpuLoweringHasNoRouters) {
  const auto spec = env_.ssb->Query(1, 2);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kCpu));
  const HetPlan plan = Plan(spec, policy);
  const LoweredSpec lowered = Lower(plan);

  EXPECT_EQ(lowered.init_latency, 0.0);  // no routers to bring up
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.router, -1);
    EXPECT_EQ(s.options.control_cost, 0.0);
    EXPECT_EQ(s.instances.size(), 1u);
  }
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(), 1u);

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, BareGpuLoweringUsesUva) {
  const auto spec = env_.ssb->Query(1, 2);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kGpu));
  const HetPlan plan = Plan(spec, policy);
  // Bare plans now carry the UVA marker, so they validate like any other plan.
  EXPECT_TRUE(plan::ValidateHetPlan(plan).ok());
  const LoweredSpec lowered = Lower(plan);

  // UVA addressing: no mem-move on the segmenter-fed edges.
  for (const auto& s : lowered.build_stages) {
    EXPECT_TRUE(s.uva);
    EXPECT_FALSE(s.options.mem_move);
  }
  const StageSpec& probe = lowered.fact_stages.back();
  EXPECT_TRUE(probe.uva);
  EXPECT_FALSE(probe.options.mem_move);
  // Partials still cross device->host with a real move.
  EXPECT_TRUE(lowered.fact_stages[0].options.mem_move);
  EXPECT_GT(lowered.fact_stages[0].options.crossing_latency, 0.0);

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

// --- The acceptance proof: mutating the *plan* changes execution behavior,
// with zero executor changes.

TEST_F(GraphBuilderTest, MutatingRouterPolicyNodeChangesExecution) {
  const auto spec = env_.ssb->Query(1, 1);  // scalar SUM(revenue)
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(3));
  HetPlan plan = Plan(spec, policy);

  QueryExecutor executor(env_.system.get());
  const auto baseline = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  ASSERT_EQ(baseline.rows, env_.Reference(spec));

  // Flip the fact router from load-balance to broadcast. Every probe instance
  // now receives every fact block, so the scalar sum multiplies by the DOP.
  int mutated = 0;
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kLoadBalance) {
      node.policy = plan::RouterPolicy::kBroadcast;
      node.detail = "policy=broadcast (mutated)";
      ++mutated;
    }
  }
  ASSERT_EQ(mutated, 1);

  const auto dup = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(dup.status.ok()) << dup.status.ToString();
  ASSERT_EQ(dup.rows.size(), 1u);
  EXPECT_EQ(dup.rows[0][0], 3 * baseline.rows[0][0]);
}

TEST_F(GraphBuilderTest, MutatingSegmenterGranularityChangesExecution) {
  const auto spec = env_.ssb->Query(1, 1);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  HetPlan plan = Plan(spec, policy);

  QueryExecutor executor(env_.system.get());
  const auto coarse = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(coarse.status.ok());

  // Quarter the fact segmenter's block granularity: same answers, more blocks,
  // more per-block control work on the modeled timeline.
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kSegmenter && node.table == "lineorder") {
      node.block_rows /= 4;
    }
  }
  const auto fine = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(fine.status.ok());
  EXPECT_EQ(fine.rows, coarse.rows);
  EXPECT_NE(fine.modeled_seconds, coarse.modeled_seconds);
}

TEST_F(GraphBuilderTest, InvalidPlanIsRejectedBeforeExecution) {
  const auto spec = env_.ssb->Query(1, 1);
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));

  // Flip the union router's *stamped* policy — the field the lowering actually
  // executes — without touching the cosmetic detail string: rule 4 (hash
  // routers need hash-packed input) must reject the plan before anything runs.
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kUnion) {
      node.policy = plan::RouterPolicy::kHash;
    }
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(GraphBuilderTest, OutOfRangeJoinIdSurfacesAsStatus) {
  const auto spec = env_.ssb->Query(1, 1);  // one join
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kJoinBuild) node.join_id = 7;
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(GraphBuilderTest, PlanCycleSurfacesAsStatusNotHang) {
  const auto spec = env_.ssb->Query(1, 1);
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  // Point an unpack at itself: validation/lowering must error, not loop.
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].kind == HetOpNode::Kind::kUnpack) {
      plan.nodes[i].children = {static_cast<int>(i)};
      break;
    }
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());

  // Cross-stage cycle: point the fact router back at the probe span's pack, so
  // the fact chain re-discovers the same producer top forever if unguarded.
  HetPlan looped = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  int pack = -1;
  for (size_t i = 0; i < looped.nodes.size(); ++i) {
    if (looped.nodes[i].kind == HetOpNode::Kind::kPack) pack = static_cast<int>(i);
  }
  ASSERT_GE(pack, 0);
  for (auto& node : looped.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kLoadBalance) {
      node.children = {pack};
    }
  }
  const auto r2 = executor.ExecutePlan(spec, looped);
  EXPECT_FALSE(r2.status.ok());
}

TEST_F(GraphBuilderTest, AnalyzeRejectsMalformedDag) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  plan.root = 0;  // no result node
  GraphBuilder builder(env_.system.get(), &plan);
  EXPECT_FALSE(builder.Analyze().ok());
}

// The coster and the lowering cut a plan through one partition, so every
// shape the lowering rejects fails the coster with the same Status.
TEST_F(GraphBuilderTest, CosterRejectsWhatTheLoweringRejects) {
  const auto spec = env_.ssb->Query(1, 1);
  const HetPlan base = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  int fact_seg = -1, build_seg = -1, fact_router = -1, union_router = -1;
  int gather = -1;
  for (size_t i = 0; i < base.nodes.size(); ++i) {
    const HetOpNode& n = base.nodes[i];
    const int id = static_cast<int>(i);
    if (n.kind == HetOpNode::Kind::kSegmenter) {
      (n.table == spec.fact_table ? fact_seg : build_seg) = id;
    } else if (n.kind == HetOpNode::Kind::kRouter &&
               n.policy == plan::RouterPolicy::kLoadBalance) {
      fact_router = id;
    } else if (n.kind == HetOpNode::Kind::kRouter &&
               n.policy == plan::RouterPolicy::kUnion) {
      union_router = id;
    } else if (n.kind == HetOpNode::Kind::kGather) {
      gather = id;
    }
  }
  ASSERT_TRUE(fact_seg >= 0 && build_seg >= 0 && fact_router >= 0 &&
              union_router >= 0 && gather >= 0);

  HetPlan two_segmenters = base;
  two_segmenters.node(fact_router).children.push_back(build_seg);
  HetPlan segmenter_and_producers = base;
  segmenter_and_producers.node(union_router).children.push_back(fact_seg);
  HetPlan unstamped = base;
  unstamped.node(gather).placement.clear();

  plan::PlanCoster coster(spec, env_.system->catalog(), env_.system->topology());
  const std::pair<const char*, const HetPlan*> cases[] = {
      {"exchange fed by two segmenters", &two_segmenters},
      {"segmenter mixed with pipeline producers", &segmenter_and_producers},
      {"unstamped span", &unstamped}};
  for (const auto& [what, plan] : cases) {
    GraphBuilder builder(env_.system.get(), plan);
    const Status lowered = builder.Analyze();
    ASSERT_FALSE(lowered.ok()) << what;
    const auto est = coster.Cost(*plan);
    ASSERT_FALSE(est.ok()) << what << ": the coster priced it";
    EXPECT_EQ(est.status().ToString(), lowered.ToString()) << what;
  }
}

TEST_F(GraphBuilderTest, DescribeRendersStagesAndEdges) {
  const auto spec = env_.ssb->Query(3, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::Hybrid(2)));
  GraphBuilder builder(env_.system.get(), &plan);
  ASSERT_TRUE(builder.Analyze().ok());
  const std::string s = builder.spec().ToString();
  for (const char* expected :
       {"build stage:", "fact stage:", "gather", "probe", "policy=broadcast",
        "policy=load-balance", "mem-move"}) {
    EXPECT_NE(s.find(expected), std::string::npos) << "missing " << expected;
  }
}

// Two concurrent build groups on one socket, k = 4 workers each, share the
// socket's DRAM among all 2k = 8 build workers: each streams at exactly
// min(cpu_core_bw, cpu_socket_bw / 8), in the runtime and in the coster. With
// the group's own 4 workers as the divisor it would stream at cpu_core_bw.
TEST(ParallelBuildTest, DramShareAcrossConcurrentGroups) {
  constexpr int kCores = 8;
  constexpr uint64_t kDimRows = 8192;
  constexpr uint64_t kBlockRows = 256;
  System::Options opts;
  opts.topology.num_sockets = 1;
  opts.topology.cores_per_socket = kCores;
  opts.topology.num_gpus = 0;
  opts.topology.host_capacity_per_socket = 1ull << 30;
  // Pure streaming: no compute term and no fixed latencies, so a block's
  // modeled time is its bytes over the fluid share.
  sim::CostModel& cm = opts.topology.cost_model;
  cm.cpu.tuple_cost = cm.cpu.op_cost = cm.cpu.atomic_cost = 0;
  cm.cpu.near_access_cost = cm.cpu.mid_access_cost = cm.cpu.far_access_cost = 0;
  cm.ScaleFixedLatencies(0);
  opts.blocks.block_bytes = 64 << 10;
  System system(opts);
  ssb::Ssb::Options data;
  data.scale = 0.001;
  data.customer_rows = kDimRows;
  data.supplier_rows = kDimRows;
  ssb::Ssb ssb(data, &system.catalog());
  for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system.catalog().at(t).Place(system.HostNodes(), &system.memory()));
  }

  plan::QuerySpec spec;
  spec.name = "two-builds";
  spec.fact_table = "lineorder";
  spec.joins.push_back(
      {"customer", nullptr, "c_custkey", {"c_nation"}, "lo_custkey"});
  spec.joins.push_back(
      {"supplier", nullptr, "s_suppkey", {"s_nation"}, "lo_suppkey"});
  spec.aggs.push_back({plan::Col("lo_revenue"), jit::AggFunc::kSum, "revenue"});
  ExecPolicy policy = ExecPolicy::CpuOnly(kCores);
  policy.block_rows = kBlockRows;
  const HetPlan plan = plan::BuildHetPlan(spec, policy, system.topology());
  for (const auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kJoinBuild) EXPECT_EQ(node.dop, 4);
  }

  // Each of a group's 4 builders takes 32 / 4 = 8 blocks of 256 rows; a row
  // reads its 4-byte key and 4-byte payload and writes a 24-byte entry.
  const double share = std::min(cm.cpu_core_bw, cm.cpu_socket_bw / 8);
  ASSERT_LT(share, std::min(cm.cpu_core_bw, cm.cpu_socket_bw / 4));
  const double expected = 8.0 * kBlockRows * (8 + 24) / share;

  QueryExecutor executor(&system);
  const QueryResult r = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, ssb::ReferenceExecute(spec, system.catalog()));
  EXPECT_NEAR(r.build_seconds, expected, 1e-9 * expected);

  plan::PlanCoster::Options coster_opts;
  coster_opts.pack_block_rows = system.blocks().options().block_bytes / 8;
  plan::PlanCoster coster(spec, system.catalog(), system.topology(), coster_opts);
  const auto est = coster.Cost(plan);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_NEAR(est.value().build, expected, 1e-9 * expected);
}

}  // namespace
}  // namespace hetex::core
