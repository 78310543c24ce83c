#include "plan/het_plan.h"

#include <gtest/gtest.h>

#include "plan/query_spec.h"
#include "sim/topology.h"

namespace hetex::plan {
namespace {

QuerySpec JoinQuery() {
  QuerySpec q;
  q.name = "test";
  q.fact_table = "fact";
  q.fact_filter = Gt(Col("x"), Lit(5));
  q.joins.push_back({"dim", nullptr, "k", {"payload"}, "fk"});
  q.aggs.push_back({Col("x"), jit::AggFunc::kSum, "s"});
  return q;
}

class LayoutTest : public ::testing::Test {
 protected:
  sim::Topology topo_ = sim::Topology::PaperServer();
};

TEST_F(LayoutTest, CpuOnlyInterleavesSockets) {
  Layout l = ComputeLayout(ExecPolicy::CpuOnly(4), topo_);
  ASSERT_EQ(l.probe_instances.size(), 4u);
  EXPECT_EQ(l.probe_instances[0], sim::DeviceId::Cpu(0));
  EXPECT_EQ(l.probe_instances[1], sim::DeviceId::Cpu(1));
  EXPECT_EQ(l.probe_instances[2], sim::DeviceId::Cpu(0));
  EXPECT_TRUE(l.has_cpu);
  EXPECT_FALSE(l.has_gpu);
  // Build units: one per participating socket.
  EXPECT_EQ(l.build_units.size(), 2u);
}

TEST_F(LayoutTest, CpuOnlyDefaultUsesAllCores) {
  Layout l = ComputeLayout(ExecPolicy::CpuOnly(), topo_);
  EXPECT_EQ(l.probe_instances.size(), 24u);
}

TEST_F(LayoutTest, GpuOnly) {
  Layout l = ComputeLayout(ExecPolicy::GpuOnly(), topo_);
  ASSERT_EQ(l.probe_instances.size(), 2u);
  EXPECT_TRUE(l.probe_instances[0].is_gpu());
  EXPECT_FALSE(l.has_cpu);
  EXPECT_EQ(l.build_units.size(), 2u);  // one per GPU
}

TEST_F(LayoutTest, HybridCombines) {
  Layout l = ComputeLayout(ExecPolicy::Hybrid(8, {0, 1}), topo_);
  EXPECT_EQ(l.probe_instances.size(), 10u);
  EXPECT_EQ(l.build_units.size(), 4u);  // 2 sockets + 2 GPUs
}

TEST_F(LayoutTest, SingleGpuSelection) {
  Layout l = ComputeLayout(ExecPolicy::GpuOnly({1}), topo_);
  ASSERT_EQ(l.probe_instances.size(), 1u);
  EXPECT_EQ(l.probe_instances[0], sim::DeviceId::Gpu(1));
  // Gather runs on the GPU's host socket.
  EXPECT_EQ(l.gather_socket, topo_.gpu(1).socket);
}

TEST_F(LayoutTest, BareModeSingleUnitNoRouters) {
  Layout l = ComputeLayout(ExecPolicy::Bare(sim::DeviceType::kCpu), topo_);
  EXPECT_EQ(l.probe_instances.size(), 1u);
  EXPECT_FALSE(l.routers_present);
}

TEST_F(LayoutTest, ZeroCpuWorkersHybridIsGpuOnly) {
  Layout l = ComputeLayout(ExecPolicy::Hybrid(0, {0, 1}), topo_);
  EXPECT_EQ(l.probe_instances.size(), 2u);
  EXPECT_FALSE(l.has_cpu);
}

class HetPlanTest : public ::testing::Test {
 protected:
  sim::Topology topo_ = sim::Topology::PaperServer();
};

TEST_F(HetPlanTest, HybridPlanValidates) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::Hybrid(8), topo_);
  EXPECT_TRUE(ValidateHetPlan(plan).ok()) << plan.ToString();
}

TEST_F(HetPlanTest, AllPoliciesValidate) {
  for (const auto& policy :
       {ExecPolicy::CpuOnly(4), ExecPolicy::GpuOnly(), ExecPolicy::Hybrid()}) {
    HetPlan plan = BuildHetPlan(JoinQuery(), policy, topo_);
    EXPECT_TRUE(ValidateHetPlan(plan).ok()) << plan.ToString();
  }
}

TEST_F(HetPlanTest, SplitPlanContainsHashPackAndHashRouter) {
  ExecPolicy policy = ExecPolicy::Hybrid(4);
  policy.split_probe_stage = true;
  HetPlan plan = BuildHetPlan(JoinQuery(), policy, topo_);
  EXPECT_TRUE(ValidateHetPlan(plan).ok()) << plan.ToString();
  bool has_hash_pack = false, has_hash_router = false;
  for (const auto& n : plan.nodes) {
    has_hash_pack |= n.kind == HetOpNode::Kind::kHashPack;
    has_hash_router |= n.kind == HetOpNode::Kind::kRouter &&
                       n.detail.find("hash") != std::string::npos;
  }
  EXPECT_TRUE(has_hash_pack);
  EXPECT_TRUE(has_hash_router);
}

TEST_F(HetPlanTest, GpuBranchesHaveCrossingsAndMemMoves) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::GpuOnly(), topo_);
  int cpu2gpu = 0, gpu2cpu = 0, memmove = 0;
  for (const auto& n : plan.nodes) {
    cpu2gpu += n.kind == HetOpNode::Kind::kCpu2Gpu;
    gpu2cpu += n.kind == HetOpNode::Kind::kGpu2Cpu;
    memmove += n.kind == HetOpNode::Kind::kMemMove;
  }
  EXPECT_GE(cpu2gpu, 2);  // build branch + probe branch
  EXPECT_GE(gpu2cpu, 1);  // partials back to host
  EXPECT_GE(memmove, 2);
}

TEST_F(HetPlanTest, CpuOnlyPlanHasNoCrossings) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::CpuOnly(4), topo_);
  for (const auto& n : plan.nodes) {
    EXPECT_NE(n.kind, HetOpNode::Kind::kCpu2Gpu);
    EXPECT_NE(n.kind, HetOpNode::Kind::kGpu2Cpu);
  }
}

TEST_F(HetPlanTest, BarePlanHasNoRouters) {
  HetPlan plan =
      BuildHetPlan(JoinQuery(), ExecPolicy::Bare(sim::DeviceType::kCpu), topo_);
  for (const auto& n : plan.nodes) {
    EXPECT_NE(n.kind, HetOpNode::Kind::kRouter);
    EXPECT_NE(n.kind, HetOpNode::Kind::kMemMove);
  }
}

TEST_F(HetPlanTest, PrinterShowsTheRunningExampleShape) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::Hybrid(8), topo_);
  const std::string s = plan.ToString();
  for (const char* expected :
       {"segmenter", "router", "mem-move", "cpu2gpu", "gpu2cpu", "unpack",
        "filter", "hashjoin-probe", "hashjoin-build", "reduce(local)", "gather",
        "result"}) {
    EXPECT_NE(s.find(expected), std::string::npos) << "missing " << expected;
  }
}

// ---- BuildHetPlan stamps every parameter the lowering needs on the nodes.

TEST_F(HetPlanTest, StampsLoweringParameters) {
  ExecPolicy policy = ExecPolicy::Hybrid(4);
  policy.block_rows = 2048;
  policy.channel_capacity = 7;
  HetPlan plan = BuildHetPlan(JoinQuery(), policy, topo_);
  EXPECT_EQ(plan.channel_capacity, 7u);

  int routers = 0, segmenters = 0, placed_spans = 0, crossing_stamps = 0;
  for (const auto& n : plan.nodes) {
    switch (n.kind) {
      case HetOpNode::Kind::kRouter:
        ++routers;
        EXPECT_EQ(n.control_cost, topo_.cost_model().router_control_cost);
        EXPECT_EQ(n.init_latency, topo_.cost_model().router_init_latency);
        break;
      case HetOpNode::Kind::kSegmenter:
        ++segmenters;
        EXPECT_FALSE(n.table.empty());
        EXPECT_EQ(n.block_rows, 2048u);
        EXPECT_EQ(n.per_block_cost, topo_.cost_model().segmenter_block_cost);
        break;
      case HetOpNode::Kind::kJoinBuild:
        EXPECT_EQ(n.join_id, 0);
        // One unit per build chain: each socket's 2 workers build its replica
        // (k = 2 workers / 1 join), each GPU builds its own with one kernel.
        ASSERT_EQ(n.placement.size(), n.placement.at(0).is_cpu() ? 2u : 1u);
        EXPECT_EQ(static_cast<int>(n.placement.size()), n.dop);
        for (const auto& dev : n.placement) EXPECT_EQ(dev, n.placement[0]);
        break;
      case HetOpNode::Kind::kJoinProbe:
      case HetOpNode::Kind::kReduceLocal:
      case HetOpNode::Kind::kPack:
        EXPECT_EQ(static_cast<int>(n.placement.size()), n.dop);
        ++placed_spans;
        break;
      case HetOpNode::Kind::kGpu2Cpu:
        crossing_stamps += n.crossing_latency > 0.0;
        break;
      default:
        break;
    }
  }
  EXPECT_GE(routers, 3);      // broadcast + fact + union
  EXPECT_EQ(segmenters, 2);   // dim + fact
  EXPECT_GT(placed_spans, 0);
  EXPECT_EQ(crossing_stamps, 1);  // the async device->host partials queue
}

TEST_F(HetPlanTest, StampsRouterPolicies) {
  ExecPolicy policy = ExecPolicy::Hybrid(4);
  policy.split_probe_stage = true;
  HetPlan plan = BuildHetPlan(JoinQuery(), policy, topo_);
  int broadcast = 0, lb = 0, hash = 0, un = 0;
  for (const auto& n : plan.nodes) {
    if (n.kind != HetOpNode::Kind::kRouter) continue;
    broadcast += n.policy == RouterPolicy::kBroadcast;
    lb += n.policy == RouterPolicy::kLoadBalance;
    hash += n.policy == RouterPolicy::kHash;
    un += n.policy == RouterPolicy::kUnion;
  }
  EXPECT_EQ(broadcast, 1);
  EXPECT_EQ(lb, 1);
  EXPECT_EQ(hash, 1);  // one shared hash exchange, not one per branch
  EXPECT_EQ(un, 1);
}

TEST_F(HetPlanTest, GatherPlacementStampedOnHostSocket) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::GpuOnly({1}), topo_);
  for (const auto& n : plan.nodes) {
    if (n.kind == HetOpNode::Kind::kGather) {
      ASSERT_EQ(n.placement.size(), 1u);
      EXPECT_EQ(n.placement[0], sim::DeviceId::Cpu(topo_.gpu(1).socket));
    }
  }
}

TEST_F(HetPlanTest, BarePlansValidateViaUvaMarkers) {
  for (auto type : {sim::DeviceType::kCpu, sim::DeviceType::kGpu}) {
    HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::Bare(type), topo_);
    EXPECT_TRUE(ValidateHetPlan(plan).ok()) << plan.ToString();
  }
}

// ---- Validator catches broken plans (the §3.3 converter rules).

TEST_F(HetPlanTest, ValidatorRejectsDeviceJumpWithoutCrossing) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  plan.nodes.push_back({HetOpNode::Kind::kFilter, "", sim::DeviceType::kGpu,
                        1, {0}});
  plan.root = 1;
  EXPECT_FALSE(ValidateHetPlan(plan).ok());
}

TEST_F(HetPlanTest, ValidatorRejectsRelationalOverPackedInput) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  // Filter directly over blocks: missing unpack.
  plan.nodes.push_back({HetOpNode::Kind::kFilter, "", sim::DeviceType::kCpu,
                        1, {0}});
  plan.root = 1;
  EXPECT_FALSE(ValidateHetPlan(plan).ok());
}

TEST_F(HetPlanTest, ValidatorRejectsCpu2GpuWithoutMemMove) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  plan.nodes.push_back({HetOpNode::Kind::kCpu2Gpu, "", sim::DeviceType::kGpu,
                        1, {0}});
  plan.nodes.push_back({HetOpNode::Kind::kUnpack, "", sim::DeviceType::kGpu,
                        1, {1}});
  plan.root = 2;
  EXPECT_FALSE(ValidateHetPlan(plan).ok());
}

TEST_F(HetPlanTest, ValidatorNamesTheFailingNode) {
  // A hand-mutated plan whose un-marked crossing breaks rule 3 must report
  // *which* node failed, not just which rule (the status reaches
  // QueryResult::status, where "cpu2gpu without mem-move" alone is useless
  // in a 40-node plan).
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::Bare(sim::DeviceType::kGpu),
                              topo_);
  int broken_node = -1;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].kind == HetOpNode::Kind::kCpu2Gpu) {
      // Strip the UVA marker: the crossing now needs a mem-move below.
      plan.nodes[i].uva = false;
      plan.nodes[i].detail = "zero-copy launch";
      broken_node = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(broken_node, 0);
  const Status st = ValidateHetPlan(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("node " + std::to_string(broken_node)),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("rule 3"), std::string::npos) << st.ToString();
}

TEST_F(HetPlanTest, ValidatorRejectsChildlessCrossing) {
  HetPlan plan = BuildHetPlan(JoinQuery(), ExecPolicy::GpuOnly(), topo_);
  for (auto& n : plan.nodes) {
    if (n.kind == HetOpNode::Kind::kCpu2Gpu) {
      n.children.clear();
      break;
    }
  }
  EXPECT_FALSE(ValidateHetPlan(plan).ok());
}

TEST_F(HetPlanTest, ValidatorRejectsHashRouterWithoutHashPack) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  plan.nodes.push_back({HetOpNode::Kind::kRouter, "policy=hash",
                        sim::DeviceType::kCpu, 1, {0}});
  plan.root = 1;
  EXPECT_FALSE(ValidateHetPlan(plan).ok());
}

TEST(GroupKeys, CombinePacksInOrder) {
  const auto key = CombineGroupKeys({Lit(3), Lit(5)});
  const int64_t v = key->Eval([](const std::string&) { return 0; });
  EXPECT_EQ(v, (3ll << kGroupKeyBits) + 5);
}

TEST(GroupKeys, ThreeKeysFit) {
  const auto key = CombineGroupKeys({Lit(1997), Lit(249), Lit(999)});
  const int64_t v = key->Eval([](const std::string&) { return 0; });
  EXPECT_EQ(v >> (2 * kGroupKeyBits), 1997);
  EXPECT_EQ((v >> kGroupKeyBits) & ((1 << kGroupKeyBits) - 1), 249);
  EXPECT_EQ(v & ((1 << kGroupKeyBits) - 1), 999);
}

}  // namespace
}  // namespace hetex::plan
