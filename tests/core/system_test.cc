#include "core/system.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

constexpr sim::VTime kEver = std::numeric_limits<sim::VTime>::infinity();

int OpenDramWorkers(System* system) {
  int n = 0;
  for (int s = 0; s < system->topology().num_sockets(); ++s) {
    n += system->topology().socket_dram(s).workers_overlapping(kEver);
  }
  return n;
}

TEST(SystemHistoryTest, SoloQueryLeavesNoHistory) {
  TestEnv env(20'000);
  System* system = env.system.get();
  const auto spec = env.ssb->Query(2, 1);
  const ExecPolicy hybrid = TestEnv::Tune(ExecPolicy::Hybrid());

  // Held from outside, the query's links, streams and DRAM phases stay.
  system->HoldHistoryAtHorizon();
  QueryResult held = env.Run(spec, hybrid);
  ASSERT_TRUE(held.status.ok()) << held.status.ToString();
  EXPECT_GT(system->MaxTimelineSegments(), 0u);
  const sim::VTime horizon = system->VirtualHorizon();
  EXPECT_GT(horizon, 0.0);

  // The last hold out drops them all; the horizon does not move.
  system->ReleaseHistory();
  EXPECT_EQ(system->MaxTimelineSegments(), 0u);
  EXPECT_EQ(system->VirtualHorizon(), horizon);

  // A plain solo query is its own only holder.
  QueryResult solo = env.Run(spec, hybrid);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();
  EXPECT_EQ(solo.rows, held.rows);
  EXPECT_EQ(system->MaxTimelineSegments(), 0u);
  EXPECT_GT(system->VirtualHorizon(), horizon);
}

TEST(SystemHistoryTest, SessionBelowTheWatermarkIsRefused) {
  TestEnv env(20'000);
  System* system = env.system.get();
  QueryExecutor executor(system);
  const auto spec = env.ssb->Query(2, 1);
  const plan::HetPlan plan = plan::BuildHetPlan(
      spec, TestEnv::Tune(ExecPolicy::Hybrid()), system->topology());
  ASSERT_TRUE(executor.ExecutePlan(spec, plan).status.ok());
  // The solo query was the only holder: its release raised the watermark to
  // the horizon.
  const sim::VTime watermark = system->VirtualHorizon();
  ASSERT_GT(watermark, 0.0);

  QueryResult refused = executor.ExecutePlan(
      spec, plan, QuerySession{system->NextQueryId(), watermark / 2});
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status.ToString().find("watermark"), std::string::npos)
      << refused.status.ToString();
  // Nothing is left behind: no open DRAM phase, no hash table, no
  // reservation.
  EXPECT_EQ(OpenDramWorkers(system), 0);
  EXPECT_EQ(system->hts().TotalHtBytes(), 0u);
  EXPECT_EQ(system->MaxTimelineSegments(), 0u);
  EXPECT_EQ(system->VirtualHorizon(), watermark);
  EXPECT_FALSE(system->HoldHistory(watermark / 2).ok());

  // A session anchored exactly at the watermark runs, and its release drops
  // its history: the refused holds were never counted.
  QueryResult at = executor.ExecutePlan(
      spec, plan, QuerySession{system->NextQueryId(), watermark});
  ASSERT_TRUE(at.status.ok()) << at.status.ToString();
  EXPECT_EQ(at.rows, env.Reference(spec));
  EXPECT_EQ(system->MaxTimelineSegments(), 0u);
}

// Solo queries on several threads: each reads the horizon and holds it in one
// step, so none is refused while others drop the history under it.
TEST(SystemHistoryTest, ConcurrentSoloQueriesDropHistoryAndNeverRefuse) {
  TestEnv env(20'000);
  System* system = env.system.get();
  const std::vector<plan::QuerySpec> specs = {
      env.ssb->Query(1, 1), env.ssb->Query(2, 1), env.ssb->Query(3, 1)};
  const std::vector<ExecPolicy> policies = {
      TestEnv::Tune(ExecPolicy::CpuOnly()), TestEnv::Tune(ExecPolicy::GpuOnly()),
      TestEnv::Tune(ExecPolicy::Hybrid())};
  std::vector<std::vector<std::vector<int64_t>>> reference;
  for (const auto& spec : specs) reference.push_back(env.Reference(spec));

  constexpr int kThreads = 4;
  constexpr int kRuns = 3;
  std::vector<std::vector<QueryResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryExecutor executor(system);
      for (int i = 0; i < kRuns; ++i) {
        const size_t q = static_cast<size_t>(t + i) % specs.size();
        results[t].push_back(executor.Execute(specs[q], policies[q]));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRuns; ++i) {
      const QueryResult& r = results[t][i];
      ASSERT_TRUE(r.status.ok()) << "thread " << t << " run " << i << ": "
                                 << r.status.ToString();
      EXPECT_EQ(r.rows, reference[static_cast<size_t>(t + i) % specs.size()]);
    }
  }
  EXPECT_EQ(system->MaxTimelineSegments(), 0u);
  EXPECT_EQ(OpenDramWorkers(system), 0);
}

}  // namespace
}  // namespace hetex::core
