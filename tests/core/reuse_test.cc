// Serving-layer cross-query reuse: single-flight shared hash-table builds
// (dedup, virtual-time attach gating, fault failover), the result cache
// (LRU bounds, mutation-epoch invalidation) and the default-off pin — with
// both knobs off, nothing reuse-related is observable.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/ht_registry.h"
#include "core/result_cache.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "test_util.h"

namespace hetex {
namespace {

using core::HtRegistry;
using core::ResultCache;
using core::ResultLease;
using core::SharedBuildLease;

memory::MemoryManager* Cpu0Memory(test::TestEnv& env) {
  return &env.system->memory().manager(
      env.system->topology().LocalMemNode(sim::DeviceId::Cpu(0)));
}

// ---------------------------------------------------------------------------
// HtRegistry shared-build promotion (registry level, TSan-clean)
// ---------------------------------------------------------------------------

TEST(ReuseTest, SingleFlightDedupUnderRace) {
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;unit-test";
  constexpr int kThreads = 8;
  constexpr double kBuildDone = 3.5;

  std::atomic<int> builds{0};
  std::atomic<int> attaches{0};
  std::atomic<int> bad_ready_at{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t query = 100 + static_cast<uint64_t>(t);
      const SharedBuildLease lease =
          registry.AcquireShared(key, query, /*control=*/nullptr);
      if (lease.role == SharedBuildLease::Role::kBuild) {
        builds.fetch_add(1);
        jit::JoinHashTable* ht = registry.Create(
            query, /*join_id=*/0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
            /*capacity=*/64, /*payload_width=*/1);
        ASSERT_NE(ht, nullptr);
        registry.PublishShared(key, query, /*join_id=*/0, kBuildDone);
      } else {
        ASSERT_EQ(lease.role, SharedBuildLease::Role::kAttach);
        attaches.fetch_add(1);
        // Virtual-time gate: every attacher observes the build's completion
        // epoch, regardless of when it won the race to the registry.
        if (lease.ready_at != kBuildDone) bad_ready_at.fetch_add(1);
        EXPECT_GT(registry.AttachShared(key, query, /*join_id=*/7), 0);
        EXPECT_NE(registry.Get(query, 7, sim::DeviceId::Cpu(0)), nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "single-flight must dedup to exactly one build";
  EXPECT_EQ(attaches.load(), kThreads - 1);
  EXPECT_EQ(bad_ready_at.load(), 0);
  const HtRegistry::SharedStats stats = registry.shared_stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.attaches, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(ReuseTest, FailedBuildPromotesExactlyOneWaiter) {
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;failover-test";

  const SharedBuildLease first =
      registry.AcquireShared(key, /*query=*/1, nullptr);
  ASSERT_EQ(first.role, SharedBuildLease::Role::kBuild);

  constexpr int kWaiters = 4;
  std::atomic<int> builds{0};
  std::atomic<int> attaches{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      const uint64_t query = 10 + static_cast<uint64_t>(t);
      const SharedBuildLease lease = registry.AcquireShared(key, query, nullptr);
      if (lease.role == SharedBuildLease::Role::kBuild) {
        builds.fetch_add(1);
        registry.Create(query, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env), 64, 1);
        registry.PublishShared(key, query, 0, /*ready_at=*/1.0);
      } else {
        ASSERT_EQ(lease.role, SharedBuildLease::Role::kAttach);
        attaches.fetch_add(1);
      }
    });
  }
  // The original builder faults out: exactly one waiter is promoted to
  // builder, the rest attach to the failover build — nobody is poisoned.
  registry.FailShared(key);
  for (auto& t : waiters) t.join();

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(attaches.load(), kWaiters - 1);
  const HtRegistry::SharedStats stats = registry.shared_stats();
  EXPECT_EQ(stats.builds, 2u);  // original claim + failover promotion
  EXPECT_EQ(stats.failovers, 1u);
}

TEST(ReuseTest, SelfConflictFallsBackToPrivateBuild) {
  HtRegistry registry;
  const std::string key = "dim@0;self-test";
  const SharedBuildLease first = registry.AcquireShared(key, 5, nullptr);
  ASSERT_EQ(first.role, SharedBuildLease::Role::kBuild);
  // The same query acquiring the same in-flight key again must not deadlock
  // waiting on itself — it builds that join privately.
  const SharedBuildLease second = registry.AcquireShared(key, 5, nullptr);
  EXPECT_EQ(second.role, SharedBuildLease::Role::kPrivate);
  registry.FailShared(key);  // release the claim so the entry is not wedged
}

TEST(ReuseTest, CancelledWaiterBailsOut) {
  HtRegistry registry;
  const std::string key = "dim@0;cancel-test";
  ASSERT_EQ(registry.AcquireShared(key, 1, nullptr).role,
            SharedBuildLease::Role::kBuild);
  core::QueryControl control;
  control.cancelled.store(true);
  const SharedBuildLease lease = registry.AcquireShared(key, 2, &control);
  EXPECT_EQ(lease.role, SharedBuildLease::Role::kCancelled);
  registry.FailShared(key);
}

TEST(ReuseTest, DeadlineExpiredWaiterBailsOut) {
  // A query whose deadline already fired must not keep holding its admission
  // slot blocked on another query's in-flight build.
  HtRegistry registry;
  const std::string key = "dim@0;deadline-test";
  ASSERT_EQ(registry.AcquireShared(key, 1, nullptr).role,
            SharedBuildLease::Role::kBuild);
  core::QueryControl control;
  control.deadline = 0.5;
  control.deadline_hit.store(true);
  const SharedBuildLease lease = registry.AcquireShared(key, 2, &control);
  EXPECT_EQ(lease.role, SharedBuildLease::Role::kCancelled);
  registry.FailShared(key);
}

TEST(ReuseTest, StaleGenerationEvictedOnNewEpochAcquire) {
  // Content keys embed the table's mutation epoch, so entries from older
  // epochs can never be acquired again: claiming a new-generation key must
  // retire them, or mutation churn grows the registry without bound.
  test::TestEnv env(4'000);
  HtRegistry registry;
  ASSERT_EQ(registry.AcquireShared("dim@0;gc-test", 1, nullptr, "dim", 0).role,
            SharedBuildLease::Role::kBuild);
  registry.Create(1, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env), 64, 1);
  registry.PublishShared("dim@0;gc-test", 1, 0, /*ready_at=*/1.0);
  EXPECT_EQ(registry.NumSharedEntries(), 1);

  ASSERT_EQ(registry.AcquireShared("dim@1;gc-test", 2, nullptr, "dim", 1).role,
            SharedBuildLease::Role::kBuild);
  EXPECT_EQ(registry.NumSharedEntries(), 1) << "stale dim@0 entry must retire";

  // Other tables' generations are untouched by dim's sweep.
  ASSERT_EQ(
      registry.AcquireShared("other@0;gc-test", 3, nullptr, "other", 0).role,
      SharedBuildLease::Role::kBuild);
  EXPECT_EQ(registry.NumSharedEntries(), 2);
  registry.FailShared("dim@1;gc-test");
  registry.FailShared("other@0;gc-test");
}

// ---------------------------------------------------------------------------
// ResultCache (unit level)
// ---------------------------------------------------------------------------

/// Blocks until `n` acquires missed the cache. A miss is counted under the
/// cache lock before the caller waits, so every counted attacher is waiting.
void AwaitMisses(const ResultCache& cache, uint64_t n) {
  while (cache.stats().misses < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(ReuseTest, ResultCacheLruEvictsWithinByteBudget) {
  ResultCache cache(/*max_bytes=*/4096);
  const std::vector<std::vector<int64_t>> small = {{1, 2, 3}, {4, 5, 6}};
  cache.Insert("a", small);
  const ResultLease hit = cache.Acquire("a", /*query=*/1, /*epoch=*/0, nullptr);
  ASSERT_EQ(hit.role, ResultLease::Role::kHit);
  EXPECT_EQ(hit.rows, small);

  // Fill far past the budget: the cache must stay within max_bytes and evict
  // oldest-first. "a" was touched by the acquire above, so it outlives the
  // first inserts that follow it.
  for (int i = 0; i < 64; ++i) {
    cache.Insert("fill" + std::to_string(i), small);
    EXPECT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // An entry larger than the whole cache is never admitted.
  std::vector<std::vector<int64_t>> huge(1);
  huge[0].assign(4096, 7);
  const int entries_before = cache.entries();
  cache.Insert("huge", huge);
  EXPECT_EQ(cache.entries(), entries_before);
  EXPECT_EQ(cache.Acquire("huge", 1, 0, nullptr).role,
            ResultLease::Role::kProduce);
  cache.Fail("huge", 1);
}

TEST(ReuseTest, ResultCacheMissThenHitCounts) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Acquire("k", 1, 0, nullptr).role,
            ResultLease::Role::kProduce);
  cache.Publish("k", 1, {{42}}, /*ready_at=*/1.0);
  const ResultLease hit = cache.Acquire("k", 2, 0, nullptr);
  EXPECT_EQ(hit.role, ResultLease::Role::kHit);
  EXPECT_EQ(hit.rows, (std::vector<std::vector<int64_t>>{{42}}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ReuseTest, ResultCacheSingleFlightUnderRace) {
  ResultCache cache(1 << 20);
  constexpr int kThreads = 8;
  constexpr double kReadyAt = 3.5;
  const std::vector<std::vector<int64_t>> rows = {{7, 8}};

  std::atomic<int> produced{0};
  std::atomic<int> attached{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t query = 100 + static_cast<uint64_t>(t);
      ResultLease lease = cache.Acquire("k", query, /*epoch=*/1.0, nullptr);
      if (lease.role == ResultLease::Role::kProduce) {
        produced.fetch_add(1);
        // Publish once every other thread is waiting on the lease.
        AwaitMisses(cache, kThreads);
        cache.Publish("k", query, rows, kReadyAt);
        return;
      }
      ASSERT_EQ(lease.role, ResultLease::Role::kAttach);
      attached.fetch_add(1);
      EXPECT_EQ(lease.rows, rows);
      EXPECT_EQ(lease.ready_at, kReadyAt);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(produced.load(), 1);
  EXPECT_EQ(attached.load(), kThreads - 1);
  EXPECT_EQ(cache.stats().attaches, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ReuseTest, ResultCacheEpochRuleAndFailover) {
  ResultCache cache(1 << 20);
  ASSERT_EQ(cache.Acquire("k", 1, /*epoch=*/2.0, nullptr).role,
            ResultLease::Role::kProduce);
  // The producer's retry keeps its lease.
  EXPECT_EQ(cache.Acquire("k", 1, 2.5, nullptr).role,
            ResultLease::Role::kProduce);
  // A caller from before the producer started does not wait for it.
  EXPECT_EQ(cache.Acquire("k", 2, 1.0, nullptr).role,
            ResultLease::Role::kExecute);
  // A cancelled caller bails out of the wait.
  core::QueryControl cancelled;
  cancelled.cancelled.store(true);
  EXPECT_EQ(cache.Acquire("k", 3, 3.0, &cancelled).role,
            ResultLease::Role::kCancelled);

  // A later caller waits; the producer's failure sends it off to execute.
  ResultLease waited;
  std::thread waiter([&] { waited = cache.Acquire("k", 4, 3.0, nullptr); });
  AwaitMisses(cache, 5);
  cache.Fail("k", 1);
  waiter.join();
  EXPECT_EQ(waited.role, ResultLease::Role::kExecute);
  EXPECT_TRUE(waited.rows.empty());
  EXPECT_EQ(cache.stats().attaches, 0u);
  EXPECT_EQ(cache.entries(), 0);
  // The lease is gone: the next miss produces.
  EXPECT_EQ(cache.Acquire("k", 5, 4.0, nullptr).role,
            ResultLease::Role::kProduce);
  cache.Fail("k", 5);
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

core::ReuseOptions CacheOnly() {
  core::ReuseOptions reuse;
  reuse.result_cache = true;
  return reuse;
}

core::ReuseOptions SharedOnly() {
  core::ReuseOptions reuse;
  reuse.shared_builds = true;
  return reuse;
}

TEST(ReuseTest, ResultCacheHitThenInvalidationOnTableMutation) {
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(1, 1);
  const auto reference = env.Reference(spec);
  core::QueryScheduler scheduler(env.system.get());

  core::QueryResult miss = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.rows, reference);

  core::QueryResult hit = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.rows, reference);
  EXPECT_LT(hit.modeled_seconds, miss.modeled_seconds);

  // A table mutation changes the key every later submission computes: the
  // stale entry is unreachable and the query re-executes (and re-caches).
  env.system->catalog().at("lineorder").NoteMutation();
  core::QueryResult fresh = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.rows, reference);
}

TEST(ReuseTest, SharedBuildsConcurrentSameJoinQueriesParity) {
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);  // joins date+supplier+part
  const auto reference = env.Reference(spec);
  const int n_joins = static_cast<int>(spec.joins.size());
  ASSERT_GT(n_joins, 0);

  constexpr int kQueries = 4;
  core::QueryScheduler scheduler(env.system.get(),
                                 {.max_concurrent = kQueries});
  std::vector<core::QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) handles.push_back(scheduler.Submit(spec));
  int builds = 0, attaches = 0;
  for (auto& h : handles) {
    core::QueryResult r = scheduler.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    builds += r.shared_builds;
    attaches += r.shared_attaches;
  }
  // Single-flight across the whole run: each distinct dimension build happens
  // once, every other (query, join) attaches — whether it raced the build or
  // arrived after it published.
  EXPECT_EQ(builds, n_joins);
  EXPECT_EQ(attaches, (kQueries - 1) * n_joins);
  EXPECT_EQ(env.system->hts().NumSharedEntries(), n_joins);
  for (auto& h : handles) (void)h;  // namespaces dropped on completion
}

TEST(ReuseTest, ParallelBuildPublishesOneReplicaPerUnit) {
  // Q1.1 has one join, so CpuOnly(4) builds each socket's replica with k = 2
  // instances. The content key lists each unit once: a later k = 2 query and
  // a k = 1 query over the same sockets both attach to that replica set.
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec spec = env.ssb->Query(1, 1);
  const auto reference = env.Reference(spec);
  core::QueryExecutor executor(env.system.get());

  const core::QueryResult built =
      executor.Execute(spec, test::TestEnv::Tune(plan::ExecPolicy::CpuOnly(4)));
  ASSERT_TRUE(built.status.ok()) << built.status.ToString();
  EXPECT_EQ(built.rows, reference);
  EXPECT_EQ(built.shared_builds, 1);
  EXPECT_EQ(env.system->hts().NumSharedEntries(), 1);

  for (int workers : {4, 2}) {
    const core::QueryResult attached = executor.Execute(
        spec, test::TestEnv::Tune(plan::ExecPolicy::CpuOnly(workers)));
    ASSERT_TRUE(attached.status.ok()) << attached.status.ToString();
    EXPECT_EQ(attached.rows, reference) << workers << " workers";
    EXPECT_EQ(attached.shared_attaches, 1) << workers << " workers";
    EXPECT_EQ(attached.shared_builds, 0) << workers << " workers";
  }
  EXPECT_EQ(env.system->hts().NumSharedEntries(), 1);
  EXPECT_EQ(env.system->hts().shared_stats().attaches, 2u);
}

TEST(ReuseTest, OppositeBuildOrderQueriesDoNotDeadlock) {
  // Two multi-join queries listing the same dimension joins in opposite
  // orders acquire overlapping content-key sets. The graph builder must claim
  // them along a canonical (sorted) order: plan-order acquisition lets each
  // query hold a build role the other is blocked on — a cross-query deadlock
  // with no escape short of cancellation. Regression = this test hangs.
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec fwd = env.ssb->Query(2, 1);
  ASSERT_GE(fwd.joins.size(), 2u);
  plan::QuerySpec rev = fwd;
  rev.name += "-rev";
  std::reverse(rev.joins.begin(), rev.joins.end());
  const auto ref_fwd = env.Reference(fwd);
  const auto ref_rev = env.Reference(rev);

  for (int it = 0; it < 4; ++it) {
    core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
    core::QueryHandle ha = scheduler.Submit(fwd);
    core::QueryHandle hb = scheduler.Submit(rev);
    core::QueryResult ra = scheduler.Wait(ha);
    core::QueryResult rb = scheduler.Wait(hb);
    ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
    ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
    EXPECT_EQ(ra.rows, ref_fwd);
    EXPECT_EQ(rb.rows, ref_rev);
    // Re-arm the race: bumping every dimension's epoch forces the next
    // iteration to rebuild (attaching to iteration N's entries is instant and
    // would never contend).
    for (const auto& j : fwd.joins) {
      env.system->catalog().at(j.build_table).NoteMutation();
    }
  }
  // Stale generations retired as each iteration claimed its new-epoch keys:
  // the registry holds at most the live generation (per distinct unit set),
  // not one generation per mutation.
  EXPECT_LE(env.system->hts().NumSharedEntries(),
            2 * static_cast<int>(fwd.joins.size()));
}

TEST(ReuseTest, MutationWhileQueuedNeverServesStaleEpoch) {
  // The cache key is computed at dequeue time (and re-validated at insert),
  // never snapshotted at submit: after a mutation lands, no query — queued,
  // in flight, or future — can publish or hit pre-mutation state under the
  // post-mutation epoch, so the first post-mutation miss re-executes and
  // every later submission hits its result.
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(1, 1);
  const auto reference = env.Reference(spec);
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});

  core::QueryHandle ha = scheduler.Submit(spec);
  core::QueryHandle hb = scheduler.Submit(spec);  // queued behind ha
  env.system->catalog().at("lineorder").NoteMutation();
  core::QueryResult ra = scheduler.Wait(ha);
  core::QueryResult rb = scheduler.Wait(hb);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_FALSE(ra.cache_hit);
  EXPECT_EQ(ra.rows, reference);
  EXPECT_EQ(rb.rows, reference);

  core::QueryResult rc = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(rc.status.ok()) << rc.status.ToString();
  EXPECT_TRUE(rc.cache_hit) << "post-mutation result was not re-cached";
  EXPECT_EQ(rc.rows, reference);
}

// ---------------------------------------------------------------------------
// Single-flight results: a query whose answer an identical running query is
// already computing waits for it instead of executing. Each test gates the
// producer deterministically: it is pinned to the GPUs, whose staging arenas
// the test holds, so it blocks on its first mem-move until the gate opens —
// by then every other submission has acquired (and is waiting on) its lease.
// ---------------------------------------------------------------------------

/// Holds every staging block of the GPU arenas until Open().
class GpuStagingGate {
 public:
  explicit GpuStagingGate(core::System* system) {
    const sim::Topology& topo = system->topology();
    for (int g = 0; g < topo.num_gpus(); ++g) {
      const sim::MemNodeId node = topo.LocalMemNode(sim::DeviceId::Gpu(g));
      system->blocks().ReclaimNode(node, /*steal_prefetch=*/true);
      memory::BlockManager& arena = system->blocks().manager(node);
      while (memory::Block* block = arena.Acquire()) {
        held_.emplace_back(&arena, block);
      }
    }
  }
  ~GpuStagingGate() { Open(); }

  void Open() {
    for (auto& [arena, block] : held_) arena->Release(block);
    held_.clear();
  }

 private:
  std::vector<std::pair<memory::BlockManager*, memory::Block*>> held_;
};

core::SubmitOptions Pinned(plan::ExecPolicy policy) {
  core::SubmitOptions opts;
  opts.policy = test::TestEnv::Tune(std::move(policy));
  return opts;
}

/// Submits a gated GPU producer, waits until it holds the lease, then submits
/// `attachers` more copies of `spec` under `attacher_opts` and waits until each
/// is blocked on the lease. Returns the handles, producer first.
std::vector<core::QueryHandle> SubmitBehindGatedProducer(
    core::QueryScheduler* scheduler, const ResultCache& cache,
    const plan::QuerySpec& spec, int attachers,
    const core::SubmitOptions& attacher_opts) {
  std::vector<core::QueryHandle> handles;
  handles.push_back(
      scheduler->Submit(spec, Pinned(plan::ExecPolicy::GpuOnly())));
  AwaitMisses(cache, 1);
  for (int i = 0; i < attachers; ++i) {
    handles.push_back(scheduler->Submit(spec, attacher_opts));
  }
  AwaitMisses(cache, 1 + static_cast<uint64_t>(attachers));
  return handles;
}

TEST(ReuseTest, SingleFlightIdenticalQueriesExecuteOnce) {
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  const auto reference = env.Reference(spec);
  const ResultCache& cache = *env.system->result_cache();
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 4});

  GpuStagingGate gate(env.system.get());
  const std::vector<core::QueryHandle> handles =
      SubmitBehindGatedProducer(&scheduler, cache, spec, 3, {});
  gate.Open();

  const core::QueryResult producer = scheduler.Wait(handles[0]);
  ASSERT_TRUE(producer.status.ok()) << producer.status.ToString();
  EXPECT_EQ(producer.rows, reference);
  EXPECT_FALSE(producer.cache_hit);
  EXPECT_FALSE(producer.result_attached);
  const sim::VTime ready_at = producer.session_epoch + producer.modeled_seconds;
  uint64_t row_bytes = 0;
  for (const auto& row : reference) row_bytes += row.size() * sizeof(int64_t);
  const sim::CostModel& cm = env.system->cost_model();

  for (size_t i = 1; i < handles.size(); ++i) {
    const core::QueryResult r = scheduler.Wait(handles[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    EXPECT_TRUE(r.result_attached);
    EXPECT_FALSE(r.cache_hit);
    // One arrival: every session starts at the producer's epoch, so each
    // attacher waits out the producer's whole execution.
    EXPECT_EQ(r.session_epoch, producer.session_epoch);
    EXPECT_EQ(r.modeled_seconds,
              std::max(0.0, ready_at - r.session_epoch) +
                  cm.result_cache_lookup_latency +
                  static_cast<double>(row_bytes) / cm.cpu_core_bw);
  }
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.attaches, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ReuseTest, CancelledProducerFailsEveryAttacherOver) {
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  const auto reference = env.Reference(spec);
  const ResultCache& cache = *env.system->result_cache();
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 4});

  GpuStagingGate gate(env.system.get());
  const std::vector<core::QueryHandle> handles = SubmitBehindGatedProducer(
      &scheduler, cache, spec, 3, Pinned(plan::ExecPolicy::CpuOnly()));
  ASSERT_TRUE(scheduler.Cancel(handles[0]).ok());
  gate.Open();

  const core::QueryResult producer = scheduler.Wait(handles[0]);
  EXPECT_EQ(producer.status.code(), StatusCode::kCancelled);
  for (size_t i = 1; i < handles.size(); ++i) {
    const core::QueryResult r = scheduler.Wait(handles[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    EXPECT_FALSE(r.result_attached) << "served a cancelled producer's result";
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(cache.stats().attaches, 0u);
}

TEST(ReuseTest, MutationUnderProducerFailsAttachersOver) {
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  const auto reference = env.Reference(spec);
  const ResultCache& cache = *env.system->result_cache();
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 4});

  GpuStagingGate gate(env.system.get());
  const std::vector<core::QueryHandle> handles =
      SubmitBehindGatedProducer(&scheduler, cache, spec, 3, {});
  // The producer's rows were computed under the old key; publishing them would
  // answer the attachers from a table version that no longer exists.
  env.system->catalog().at("lineorder").NoteMutation();
  gate.Open();

  for (const core::QueryHandle& h : handles) {
    const core::QueryResult r = scheduler.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    EXPECT_FALSE(r.result_attached) << "served pre-mutation rows";
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(cache.stats().attaches, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u) << "a pre-mutation key was cached";
}

TEST(ReuseTest, OversizeProducerStillAnswersAttachers) {
  core::ReuseOptions reuse = CacheOnly();
  reuse.result_cache_bytes = 1;  // no result fits
  test::TestEnv env(8'000, 2, 2, reuse);
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  const auto reference = env.Reference(spec);
  const ResultCache& cache = *env.system->result_cache();
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 4});

  GpuStagingGate gate(env.system.get());
  const std::vector<core::QueryHandle> handles =
      SubmitBehindGatedProducer(&scheduler, cache, spec, 3, {});
  gate.Open();

  for (size_t i = 0; i < handles.size(); ++i) {
    const core::QueryResult r = scheduler.Wait(handles[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    EXPECT_EQ(r.result_attached, i > 0);
  }
  EXPECT_EQ(cache.stats().attaches, 3u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.entries(), 0);
}

TEST(ReuseTest, DefaultOffIsInert) {
  // The PR-7 pin: with both knobs off (the default), no result cache exists,
  // no shared entry is ever created, and results carry no reuse accounting.
  core::ReuseOptions off;
  EXPECT_FALSE(off.shared_builds);
  EXPECT_FALSE(off.result_cache);

  test::TestEnv env(8'000, 2, 2, off);
  EXPECT_EQ(env.system->result_cache(), nullptr);
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  core::QueryScheduler scheduler(env.system.get());
  for (int i = 0; i < 2; ++i) {
    core::QueryResult r = scheduler.Wait(scheduler.Submit(spec));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.cache_hit);
    EXPECT_FALSE(r.result_attached);
    EXPECT_EQ(r.shared_builds, 0);
    EXPECT_EQ(r.shared_attaches, 0);
  }
  EXPECT_EQ(env.system->hts().NumSharedEntries(), 0);
}

// ---------------------------------------------------------------------------
// Chaos: shared builds under fault injection (picked up by the CI chaos
// filter via the "Chaos" name). A faulted shared build must fail over to a
// waiter without poisoning the attachers: every query ends OK or with a
// named fault, and OK rows stay bit-identical to the reference.
// ---------------------------------------------------------------------------

TEST(ReuseChaosTest, FaultedSharedBuildsFailOverCleanly) {
  sim::FaultOptions faults;
  faults.enabled = true;
  faults.seed = 0xC0FFEE;
  faults.dma_fault_rate = 0.05;
  faults.kernel_fault_rate = 0.05;
  faults.staging_fault_rate = 0.01;
  core::ReuseOptions reuse;
  reuse.shared_builds = true;
  reuse.result_cache = true;
  test::TestEnv env(6'000, 2, 2, reuse, faults);
  core::System& system = *env.system;
  ssb::Ssb& ssb = *env.ssb;

  const std::vector<plan::QuerySpec> pool = {ssb.Query(2, 1), ssb.Query(3, 1),
                                             ssb.Query(2, 1), ssb.Query(2, 1)};
  std::vector<std::vector<std::vector<int64_t>>> reference;
  for (const auto& spec : pool) {
    reference.push_back(ssb::ReferenceExecute(spec, system.catalog()));
  }

  const int iters = test::FuzzIters(3);
  for (int it = 0; it < iters; ++it) {
    core::QueryScheduler scheduler(&system, {.max_concurrent = 4});
    std::vector<core::QueryHandle> handles;
    for (const auto& spec : pool) handles.push_back(scheduler.Submit(spec));
    for (size_t i = 0; i < handles.size(); ++i) {
      core::QueryResult r = scheduler.Wait(handles[i]);
      if (r.status.ok()) {
        EXPECT_EQ(r.rows, reference[i]) << pool[i].name << " iter " << it;
      } else {
        const StatusCode code = r.status.code();
        EXPECT_TRUE(code == StatusCode::kUnavailable ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeviceLost ||
                    code == StatusCode::kInternal)
            << "unnamed failure: " << r.status.ToString();
      }
    }
  }
}

TEST(ReuseChaosTest, FaultedResultProducerFailsAttachersOver) {
  // Every GPU kernel launch faults and nothing retries: the GPU-pinned
  // producer fails, and its CPU-pinned attachers — identical queries, one
  // key — must execute themselves instead of taking a failed result.
  sim::FaultOptions faults;
  faults.enabled = true;
  faults.kernel_fault_rate = 1.0;
  test::TestEnv env(8'000, 2, 2, CacheOnly(), faults);
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  const auto reference = env.Reference(spec);
  const ResultCache& cache = *env.system->result_cache();
  core::QueryScheduler scheduler(env.system.get(),
                                 {.max_concurrent = 4, .max_retries = 0});

  GpuStagingGate gate(env.system.get());
  const std::vector<core::QueryHandle> handles = SubmitBehindGatedProducer(
      &scheduler, cache, spec, 3, Pinned(plan::ExecPolicy::CpuOnly()));
  gate.Open();

  const core::QueryResult producer = scheduler.Wait(handles[0]);
  EXPECT_EQ(producer.status.code(), StatusCode::kUnavailable)
      << producer.status.ToString();
  for (size_t i = 1; i < handles.size(); ++i) {
    const core::QueryResult r = scheduler.Wait(handles[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    EXPECT_FALSE(r.result_attached) << "served a failed producer's result";
  }
  EXPECT_EQ(cache.stats().attaches, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

}  // namespace
}  // namespace hetex
