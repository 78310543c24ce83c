#include "plan/coster.h"

#include <gtest/gtest.h>

#include <memory>

#include "plan/enumerator.h"
#include "plan/optimizer.h"
#include "test_util.h"

namespace hetex {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// Environment with dimension-size overrides (the skewed-cardinality regimes:
/// tiny cache-resident build sides vs build sides rivaling the fact table).
struct SkewEnv {
  SkewEnv(uint64_t lineorder_rows, uint64_t customer_rows, uint64_t part_rows)
      : SkewEnv(MiniServer(), [&] {
          ssb::Ssb::Options ssb_opts;
          ssb_opts.lineorder_rows = lineorder_rows;
          ssb_opts.scale = 0.002;
          ssb_opts.customer_rows = customer_rows;
          ssb_opts.part_rows = part_rows;
          return ssb_opts;
        }()) {}

  SkewEnv(const core::System::Options& opts, const ssb::Ssb::Options& ssb_opts) {
    system = std::make_unique<core::System>(opts);
    ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
    for (const char* name :
         {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system->catalog().at(name).Place(system->HostNodes(),
                                                      &system->memory()));
    }
  }

  static core::System::Options MiniServer() {
    core::System::Options opts;
    opts.topology.num_sockets = 2;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = 2;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
    return opts;
  }

  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

double Measure(core::System* system, const plan::QuerySpec& spec,
               const plan::HetPlan& plan) {
  core::QueryExecutor executor(system);
  const core::QueryResult r = executor.ExecutePlan(spec, plan);
  EXPECT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
  return r.status.ok() ? r.modeled_seconds : -1.0;
}

double EstimateFor(core::System* system, const plan::QuerySpec& spec,
                   const plan::HetPlan& plan) {
  plan::PlanCoster::Options opts;
  opts.pack_block_rows = system->blocks().options().block_bytes / 8;
  plan::PlanCoster coster(spec, system->catalog(), system->topology(), opts);
  auto cost = coster.Cost(plan);
  EXPECT_TRUE(cost.ok()) << cost.status().ToString();
  return cost.ok() ? cost.value().total : -1.0;
}

TEST(CardinalityTest, SampledSelectivitiesMatchKnownSsbFractions) {
  TestEnv env(20'000);
  // Q1.1: date filter d_year = 1993 selects one of seven years; the fact
  // filter (discount/quantity ranges) survives a known ~8% of lineorder.
  const auto spec = env.ssb->Query(1, 1);
  const auto cards =
      plan::EstimateCardinalities(spec, env.system->catalog());
  EXPECT_EQ(cards.fact_rows, env.system->catalog().at("lineorder").rows());
  EXPECT_GT(cards.fact_selectivity, 0.02);
  EXPECT_LT(cards.fact_selectivity, 0.25);
  ASSERT_EQ(cards.join_selectivities.size(), 1u);
  EXPECT_NEAR(cards.join_selectivities[0], 1.0 / 7, 0.05);
  EXPECT_LT(cards.output_rows, cards.fact_rows);
}

TEST(CardinalityTest, BuildSidesReflectFilteredRows) {
  TestEnv env(5'000);
  // Q3.1 filters customer and supplier to one region of five.
  const auto spec = env.ssb->Query(3, 1);
  const auto cards =
      plan::EstimateCardinalities(spec, env.system->catalog());
  ASSERT_EQ(cards.build_rows.size(), 3u);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_LT(cards.build_rows[j], cards.build_input_rows[j]);
    EXPECT_NEAR(cards.join_selectivities[j], 1.0 / 5, 0.12) << "join " << j;
  }
}

TEST(PlanCosterTest, BreakdownShapesMatchPlanShapes) {
  TestEnv env(10'000);
  const auto spec = env.ssb->Query(2, 1);
  plan::PlanCoster coster(spec, env.system->catalog(), env.system->topology());

  ExecPolicy routed = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  const auto with_routers = coster.Cost(
      plan::BuildHetPlan(spec, routed, env.system->topology()));
  ASSERT_TRUE(with_routers.ok());
  EXPECT_GT(with_routers.value().init, 0.0);
  EXPECT_GT(with_routers.value().build, 0.0);
  EXPECT_GT(with_routers.value().probe, 0.0);
  EXPECT_GT(with_routers.value().total, with_routers.value().init);

  const auto bare = coster.Cost(plan::BuildHetPlan(
      spec, ExecPolicy::Bare(sim::DeviceType::kCpu), env.system->topology()));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().init, 0.0);  // no routers to bring up
  EXPECT_GT(bare.value().total, 0.0);
}

TEST(PlanCosterTest, BareGpuEstimateIncludesGatherCrossing) {
  // A bare GPU plan feeds its gather straight from gpu2cpu, with no router in
  // between. The lowering charges that crossing on the gather edge, and the
  // estimate must charge it too.
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 2);
  const plan::HetPlan crossed = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kGpu)),
      env.system->topology());
  plan::HetPlan uncrossed = crossed;
  double crossing = 0;
  for (auto& node : uncrossed.nodes) {
    if (node.kind == plan::HetOpNode::Kind::kGpu2Cpu) {
      crossing += node.crossing_latency;
      node.crossing_latency = 0;
    }
  }
  ASSERT_GT(crossing, 0.0);
  plan::PlanCoster coster(spec, env.system->catalog(), env.system->topology());
  const auto with = coster.Cost(crossed);
  const auto without = coster.Cost(uncrossed);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_NEAR(with.value().probe - without.value().probe, crossing,
              1e-9 * crossing);
}

TEST(PlanCosterTest, LinkBacklogRaisesGpuPlanEstimates) {
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 1);
  const plan::HetPlan gpu_plan = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::GpuOnly()), env.system->topology());
  const plan::HetPlan cpu_plan = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::CpuOnly(3)), env.system->topology());

  plan::PlanCoster::Options idle;
  idle.pack_block_rows = env.system->blocks().options().block_bytes / 8;
  plan::PlanCoster::Options loaded = idle;
  // Other in-flight queries queued half a virtual second on every PCIe link.
  loaded.link_backlog.assign(env.system->topology().num_pcie_links(), 0.5);

  plan::PlanCoster idle_coster(spec, env.system->catalog(),
                               env.system->topology(), idle);
  plan::PlanCoster loaded_coster(spec, env.system->catalog(),
                                 env.system->topology(), loaded);

  // GPU plans DMA the fact table over the loaded links: the backlog shows up
  // as queueing delay in the estimate.
  const auto gpu_idle = idle_coster.Cost(gpu_plan);
  const auto gpu_loaded = loaded_coster.Cost(gpu_plan);
  ASSERT_TRUE(gpu_idle.ok() && gpu_loaded.ok());
  EXPECT_GT(gpu_loaded.value().total, gpu_idle.value().total);
  EXPECT_GE(gpu_loaded.value().total, gpu_idle.value().total + 0.4);

  // CPU-only plans never touch the links: immune to the load signal — which
  // is exactly what lets the optimizer steer new arrivals off congested links.
  const auto cpu_idle = idle_coster.Cost(cpu_plan);
  const auto cpu_loaded = loaded_coster.Cost(cpu_plan);
  ASSERT_TRUE(cpu_idle.ok() && cpu_loaded.ok());
  EXPECT_DOUBLE_EQ(cpu_loaded.value().total, cpu_idle.value().total);
}

TEST(PlanCosterTest, SharedLinkOccupancyBoundsPipelinedStages) {
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 1);
  // A split hybrid plan: stage-A input DMA (GPU branch of the filter stage)
  // and stage-B wire DMA (GPU probe consumers) land on the same PCIe links.
  ExecPolicy split = TestEnv::Tune(ExecPolicy::Hybrid(2));
  split.split_probe_stage = true;
  const plan::HetPlan plan =
      plan::BuildHetPlan(spec, split, env.system->topology());

  plan::PlanCoster::Options opts;
  opts.pack_block_rows = env.system->blocks().options().block_bytes / 8;
  plan::PlanCoster coster(spec, env.system->catalog(), env.system->topology(),
                          opts);
  const auto est = coster.Cost(plan);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  // The estimate must at least cover the serialized per-link DMA occupancy it
  // itself derived (the transfer diagnostic is one instance's share).
  EXPECT_GE(est.value().probe, est.value().transfer);
  EXPECT_GT(est.value().total, 0.0);
}

TEST(PlanCosterTest, LinkBacklogRaisesUvaPlanEstimates) {
  // Bare-GPU (UVA) kernels now charge their streamed bytes on the PCIe link,
  // so the scheduler's backlog signal steers UVA plans exactly like DMA ones.
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 1);
  const plan::HetPlan uva_plan = plan::BuildHetPlan(
      spec, ExecPolicy::Bare(sim::DeviceType::kGpu), env.system->topology());

  plan::PlanCoster::Options idle;
  idle.pack_block_rows = env.system->blocks().options().block_bytes / 8;
  plan::PlanCoster::Options loaded = idle;
  loaded.link_backlog.assign(env.system->topology().num_pcie_links(), 0.5);

  plan::PlanCoster idle_coster(spec, env.system->catalog(),
                               env.system->topology(), idle);
  plan::PlanCoster loaded_coster(spec, env.system->catalog(),
                                 env.system->topology(), loaded);
  const auto uva_idle = idle_coster.Cost(uva_plan);
  const auto uva_loaded = loaded_coster.Cost(uva_plan);
  ASSERT_TRUE(uva_idle.ok() && uva_loaded.ok());
  EXPECT_GT(uva_loaded.value().total, uva_idle.value().total);
  EXPECT_GE(uva_loaded.value().total, uva_idle.value().total + 0.4);
}

TEST(PlanCosterTest, SocketBacklogRaisesCpuPlanEstimates) {
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 1);
  const plan::HetPlan cpu_plan = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::CpuOnly(3)), env.system->topology());
  const plan::HetPlan gpu_plan = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::GpuOnly()), env.system->topology());

  plan::PlanCoster::Options idle;
  idle.pack_block_rows = env.system->blocks().options().block_bytes / 8;
  plan::PlanCoster::Options loaded = idle;
  // Other sessions run 20 workers per socket: CPU fluid shares collapse from
  // the per-core cap to 45/22 GB/s; GPU plans are immune to the signal.
  loaded.socket_backlog_workers.assign(env.system->topology().num_sockets(), 20);

  plan::PlanCoster idle_coster(spec, env.system->catalog(),
                               env.system->topology(), idle);
  plan::PlanCoster loaded_coster(spec, env.system->catalog(),
                                 env.system->topology(), loaded);
  const auto cpu_idle = idle_coster.Cost(cpu_plan);
  const auto cpu_loaded = loaded_coster.Cost(cpu_plan);
  ASSERT_TRUE(cpu_idle.ok() && cpu_loaded.ok());
  EXPECT_GT(cpu_loaded.value().total, cpu_idle.value().total);

  const auto gpu_idle = idle_coster.Cost(gpu_plan);
  const auto gpu_loaded = loaded_coster.Cost(gpu_plan);
  ASSERT_TRUE(gpu_idle.ok() && gpu_loaded.ok());
  EXPECT_DOUBLE_EQ(gpu_loaded.value().total, gpu_idle.value().total);
}

// --------------------------------------------------------------------------
// Coster accuracy under load: with 2 and 4 sessions in flight (simulated as
// real link occupancy + registered DRAM workers), the estimated ordering of
// candidate plans still agrees with the measured ordering — UVA and DRAM
// contention are charged the same way in the estimate and the runtime.
// --------------------------------------------------------------------------

class CosterUnderLoadTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr uint64_t kPhantomSession = 999'999'999ull;

  /// Per-level load shape for `in_flight` total sessions: each phantom
  /// session contributes link occupancy and socket workers.
  static double BacklogSeconds(int in_flight) { return 0.02 * (in_flight - 1); }
  static int BacklogWorkers(int in_flight) { return 6 * (in_flight - 1); }

  /// Measured virtual time of `plan` for a session joining a server whose
  /// links and sockets carry the level's in-flight load.
  static double MeasureUnderLoad(core::System* system,
                                 const plan::QuerySpec& spec,
                                 const plan::HetPlan& plan, int in_flight) {
    sim::Topology& topo = system->topology();
    const sim::VTime h = system->VirtualHorizon();
    for (int l = 0; l < topo.num_pcie_links(); ++l) {
      topo.pcie_link(l).ReserveDuration(BacklogSeconds(in_flight), 0.0, h);
    }
    std::vector<uint64_t> tokens;
    for (int s = 0; s < topo.num_sockets(); ++s) {
      tokens.push_back(topo.socket_dram(s).Register(kPhantomSession, h,
                                                    BacklogWorkers(in_flight)));
    }
    core::QueryExecutor executor(system);
    const core::QueryResult r = executor.ExecutePlan(
        spec, plan, core::QuerySession{system->NextQueryId(), h});
    for (int s = 0; s < topo.num_sockets(); ++s) {
      topo.socket_dram(s).Release(tokens[s]);
    }
    EXPECT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
    return r.status.ok() ? r.modeled_seconds : -1.0;
  }

  static double EstimateUnderLoad(core::System* system,
                                  const plan::QuerySpec& spec,
                                  const plan::HetPlan& plan, int in_flight) {
    plan::PlanCoster::Options opts;
    opts.pack_block_rows = system->blocks().options().block_bytes / 8;
    opts.link_backlog.assign(system->topology().num_pcie_links(),
                             BacklogSeconds(in_flight));
    opts.socket_backlog_workers.assign(system->topology().num_sockets(),
                                       BacklogWorkers(in_flight));
    plan::PlanCoster coster(spec, system->catalog(), system->topology(), opts);
    const auto cost = coster.Cost(plan);
    EXPECT_TRUE(cost.ok()) << cost.status().ToString();
    return cost.ok() ? cost.value().total : -1.0;
  }
};

TEST_P(CosterUnderLoadTest, EstimatedOrderingMatchesMeasuredOrdering) {
  const int in_flight = GetParam();
  TestEnv env(60'000);
  const auto spec = env.ssb->Query(1, 1);
  const sim::Topology& topo = env.system->topology();

  ExecPolicy cpu_pol = TestEnv::Tune(ExecPolicy::CpuOnly(3));
  cpu_pol.load_balance = false;
  ExecPolicy gpu_pol = TestEnv::Tune(ExecPolicy::GpuOnly());
  gpu_pol.load_balance = false;
  const plan::HetPlan cpu_plan = plan::BuildHetPlan(spec, cpu_pol, topo);
  const plan::HetPlan gpu_plan = plan::BuildHetPlan(spec, gpu_pol, topo);
  const plan::HetPlan uva_plan =
      plan::BuildHetPlan(spec, ExecPolicy::Bare(sim::DeviceType::kGpu), topo);

  // The matrix: the DMA-heavy GPU plan and the UVA plan each ordered against
  // the link-immune CPU plan, estimated vs measured under the same load.
  const struct {
    const char* name;
    const plan::HetPlan* a;
    const plan::HetPlan* b;
  } kPairs[] = {{"cpu-vs-gpu", &cpu_plan, &gpu_plan},
                {"cpu-vs-uva", &cpu_plan, &uva_plan}};
  for (const auto& pair : kPairs) {
    const double est_a =
        EstimateUnderLoad(env.system.get(), spec, *pair.a, in_flight);
    const double est_b =
        EstimateUnderLoad(env.system.get(), spec, *pair.b, in_flight);
    const double meas_a =
        MeasureUnderLoad(env.system.get(), spec, *pair.a, in_flight);
    const double meas_b =
        MeasureUnderLoad(env.system.get(), spec, *pair.b, in_flight);
    ASSERT_GT(est_a, 0);
    ASSERT_GT(meas_a, 0);
    EXPECT_EQ(est_a < est_b, meas_a < meas_b)
        << pair.name << " at " << in_flight << " in flight: est " << est_a
        << " vs " << est_b << ", measured " << meas_a << " vs " << meas_b;
  }

  // At 2+ sessions of backlog the link-bound plans lose to the CPU plan in
  // both the estimate and the measurement — the steering the scheduler's
  // OptimizeAt(load signal) relies on, now covering UVA plans too.
  const double est_cpu =
      EstimateUnderLoad(env.system.get(), spec, cpu_plan, in_flight);
  const double est_uva =
      EstimateUnderLoad(env.system.get(), spec, uva_plan, in_flight);
  const double meas_cpu =
      MeasureUnderLoad(env.system.get(), spec, cpu_plan, in_flight);
  const double meas_uva =
      MeasureUnderLoad(env.system.get(), spec, uva_plan, in_flight);
  EXPECT_LT(est_cpu, est_uva);
  EXPECT_LT(meas_cpu, meas_uva);
}

INSTANTIATE_TEST_SUITE_P(InFlight, CosterUnderLoadTest, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return "sessions" + std::to_string(info.param);
                         });

TEST(PlanCosterTest, RejectsMalformedPlans) {
  TestEnv env(5'000);
  const auto spec = env.ssb->Query(1, 1);
  plan::PlanCoster coster(spec, env.system->catalog(), env.system->topology());
  plan::HetPlan broken = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)), env.system->topology());
  broken.root = -1;
  EXPECT_FALSE(coster.Cost(broken).ok());
}

/// Estimate-quality core: the coster must order fused vs split the same way
/// the measured virtual time does, under deterministic (round-robin) routing.
void CheckFusedVsSplitOrdering(core::System* system, const plan::QuerySpec& spec) {
  ExecPolicy fused = TestEnv::Tune(ExecPolicy::Hybrid(3));
  fused.load_balance = false;
  ExecPolicy split = fused;
  split.split_probe_stage = true;

  const plan::HetPlan fused_plan =
      plan::BuildHetPlan(spec, fused, system->topology());
  const plan::HetPlan split_plan =
      plan::BuildHetPlan(spec, split, system->topology());

  const double est_fused = EstimateFor(system, spec, fused_plan);
  const double est_split = EstimateFor(system, spec, split_plan);
  const double meas_fused = Measure(system, spec, fused_plan);
  const double meas_split = Measure(system, spec, split_plan);
  ASSERT_GT(est_fused, 0);
  ASSERT_GT(meas_fused, 0);
  EXPECT_EQ(est_fused < est_split, meas_fused < meas_split)
      << spec.name << ": est " << est_fused << " vs " << est_split
      << ", measured " << meas_fused << " vs " << meas_split;
}

TEST(PlanCosterTest, FusedVsSplitOrderingSmallBuildSides) {
  // Default test dimensions: cache-resident build sides.
  TestEnv env(20'000);
  CheckFusedVsSplitOrdering(env.system.get(), env.ssb->Query(3, 1));
  CheckFusedVsSplitOrdering(env.system.get(), env.ssb->Query(1, 1));
}

TEST(PlanCosterTest, FusedVsSplitOrderingLargeBuildSides) {
  // Skewed SSB cardinalities: dimension tables rivaling the fact table, so
  // hash tables leave the near class and the build phase dominates.
  SkewEnv env(/*lineorder_rows=*/8'000, /*customer_rows=*/30'000,
              /*part_rows=*/30'000);
  CheckFusedVsSplitOrdering(env.system.get(), env.ssb->Query(3, 1));
  CheckFusedVsSplitOrdering(env.system.get(), env.ssb->Query(2, 1));
}

TEST(PlanOptimizerTest, ExecuteOptimizedMatchesReference) {
  TestEnv env(10'000);
  core::QueryExecutor executor(env.system.get());
  const auto spec = env.ssb->Query(3, 2);
  plan::OptimizeResult explain;
  const auto result = executor.ExecuteOptimized(
      spec, TestEnv::Tune(ExecPolicy::Hybrid(3)), &explain);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env.Reference(spec));
  EXPECT_FALSE(explain.ranked.empty());
  EXPECT_FALSE(explain.ToString().empty());
}

TEST(PlanOptimizerTest, EnumeratorRespectsBaseConstraints) {
  TestEnv env(5'000);
  const auto spec = env.ssb->Query(1, 2);

  // CPU-only base: no candidate may place work on a GPU.
  const auto cpu_cands = plan::EnumeratePlans(
      spec, TestEnv::Tune(ExecPolicy::CpuOnly(3)), env.system->topology());
  ASSERT_FALSE(cpu_cands.empty());
  for (const auto& cand : cpu_cands) {
    for (const auto& node : cand.plan.nodes) {
      EXPECT_NE(node.device, sim::DeviceType::kGpu) << cand.label;
    }
  }

  // Bare base: the shape is pinned, no search.
  const auto bare = plan::EnumeratePlans(
      spec, ExecPolicy::Bare(sim::DeviceType::kCpu), env.system->topology());
  EXPECT_EQ(bare.size(), 1u);

  // Hybrid base: fused and split shapes, multiple placements.
  const auto het_cands = plan::EnumeratePlans(
      spec, TestEnv::Tune(ExecPolicy::Hybrid(3)), env.system->topology());
  EXPECT_GT(het_cands.size(), 6u);
  bool has_split = false;
  for (const auto& cand : het_cands) has_split |= cand.policy.split_probe_stage;
  EXPECT_TRUE(has_split);
}

// --------------------------------------------------------------------------
// Acceptance criterion: on the full 13-query SSB matrix the optimizer's
// picked plan is never worse than 1.2x the measured-best candidate.
// --------------------------------------------------------------------------

/// Measures every ranked candidate of `spec` under `base` and checks the
/// optimizer's pick against the measured best.
void ExpectPickedWithin1_2xOfMeasuredBest(core::System* system,
                                          const plan::QuerySpec& spec,
                                          const ExecPolicy& base) {
  core::QueryExecutor executor(system);
  plan::OptimizeResult opt;
  ASSERT_TRUE(executor.Optimize(spec, base, &opt).ok());
  ASSERT_FALSE(opt.ranked.empty());

  double best_measured = -1;
  double picked_measured = -1;
  for (size_t i = 0; i < opt.ranked.size(); ++i) {
    const double t = Measure(system, spec, opt.ranked[i].candidate.plan);
    ASSERT_GT(t, 0) << opt.ranked[i].candidate.label;
    if (i == 0) picked_measured = t;
    if (best_measured < 0 || t < best_measured) best_measured = t;
  }
  EXPECT_LE(picked_measured, 1.2 * best_measured)
      << spec.name << ": picked " << opt.best().label << " at "
      << picked_measured << "s vs measured best " << best_measured << "s\n"
      << opt.ToString();
}

class OptimizerAccuracyTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  static TestEnv* env() {
    static TestEnv* instance = new TestEnv(20'000);
    return instance;
  }
};

TEST_P(OptimizerAccuracyTest, PickedPlanWithin1_2xOfMeasuredBest) {
  const auto [flight, idx] = GetParam();
  ExpectPickedWithin1_2xOfMeasuredBest(env()->system.get(),
                                       env()->ssb->Query(flight, idx),
                                       TestEnv::Tune(ExecPolicy::Hybrid(3)));
}

// The same bound where the build phase dominates: the stream benchmark's
// scaling (SF1000 at 1:2000 — fixed latencies and 512-row blocks scaled
// down, dimension tables kept large next to the fact table) on the paper's
// 2x12-core + 2-GPU server, shrunk 20x to keep tier-1 fast. Builds take
// ~80% of each query's modeled time; each socket's idle cores build its
// replica, and GPU replicas wait on full-column PCIe broadcasts.
class BuildDominatedAccuracyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  static SkewEnv* env() {
    static SkewEnv* instance = [] {
      core::System::Options opts;
      opts.topology.gpu_capacity = 48ull << 20;
      opts.topology.cost_model.ScaleFixedLatencies(0.5 / 1000);
      opts.blocks.block_bytes = 16 << 10;
      // A split candidate's 12 filter instances per socket each hold one
      // 16 KB block per wire column for each of the 26 consumers' buckets
      // until their input ends; the arena must cover that hold.
      opts.blocks.host_arena_blocks = 2560;
      opts.blocks.gpu_arena_blocks = 384;
      ssb::Ssb::Options data;
      data.lineorder_rows = 30'000;
      data.scale = 0.01;
      data.customer_rows = 30'000;
      data.supplier_rows = 7'500;
      data.part_rows = 20'000;
      return new SkewEnv(opts, data);
    }();
    return instance;
  }
};

TEST_P(BuildDominatedAccuracyTest, PickedPlanWithin1_2xOfMeasuredBest) {
  const auto [flight, idx] = GetParam();
  ExecPolicy base;
  base.block_rows = 512;
  ExpectPickedWithin1_2xOfMeasuredBest(env()->system.get(),
                                       env()->ssb->Query(flight, idx), base);
}

INSTANTIATE_TEST_SUITE_P(JoinFlights, BuildDominatedAccuracyTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{3, 1},
                                           std::pair{4, 1}),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param.first) +
                                  std::to_string(info.param.second);
                         });

std::vector<std::pair<int, int>> AllSsbQueries() {
  std::vector<std::pair<int, int>> qs;
  for (int f = 1; f <= 4; ++f) {
    for (int i = 1; i <= ssb::Ssb::FlightSize(f); ++i) qs.push_back({f, i});
  }
  return qs;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, OptimizerAccuracyTest,
                         ::testing::ValuesIn(AllSsbQueries()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param.first) +
                                  std::to_string(info.param.second);
                         });

}  // namespace
}  // namespace hetex
