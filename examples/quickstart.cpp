// Quickstart: build a simulated heterogeneous server, load a single-column
// table, and run `SELECT SUM(a) FROM t WHERE a % ...` — actually a plain sum —
// under CPU-only, GPU-only and hybrid HetExchange policies.
//
// This is the paper's bandwidth-bound microbenchmark (§6.4, Fig. 7 top) in ~60
// lines of API use.
//
// Benchmarking tip — warm the tier-2 kernel cache first: with
// HETEX_KERNEL_DIR=<dir> set, pipelines tier up to JIT-compiled native
// kernels, but the *first* run of each span shape pays an out-of-process
// compile (~100ms each; the vectorizer serves meanwhile, so results are
// unaffected — only timings). Run the binary once to populate the directory,
// then measure: every later run (and every server restart) installs the
// kernels from disk with zero compiler invocations.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/executor.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "plan/het_plan.h"
#include "plan/query_spec.h"
#include "storage/table.h"

using namespace hetex;  // NOLINT — example brevity

int main() {
  // The paper's evaluation server: 2x12 cores, 2 GPUs (see sim::Topology).
  core::System::Options options;
  options.blocks.host_arena_blocks = 512;
  // Arm the fault plane with every rate at zero: byte-identical to a build
  // without it, until the device-loss demo below scripts a failure.
  options.faults.enabled = true;
  core::System system(options);
  std::printf("%s\n", system.topology().ToString().c_str());

  // A 32M-row int32 column, evenly distributed over the two sockets.
  constexpr uint64_t kRows = 32'000'000;
  storage::Table* table = system.catalog().CreateTable("t");
  storage::Column* a = table->AddColumn("a", storage::ColType::kInt32);
  for (uint64_t i = 0; i < kRows; ++i) a->Append(static_cast<int64_t>(i % 1000));
  HETEX_CHECK_OK(table->Place(system.HostNodes(), &system.memory()));

  // SELECT SUM(a) FROM t
  plan::QuerySpec query;
  query.name = "quickstart-sum";
  query.fact_table = "t";
  query.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});

  core::QueryExecutor executor(&system);
  for (const auto& [label, policy] :
       {std::pair{"cpu-only (24 workers)", plan::ExecPolicy::CpuOnly()},
        std::pair{"gpu-only (2 GPUs)    ", plan::ExecPolicy::GpuOnly()},
        std::pair{"hybrid (24 + 2)      ", plan::ExecPolicy::Hybrid()}}) {
    core::QueryResult result = executor.Execute(query, policy);
    const double gbps = static_cast<double>(kRows * 4) / result.modeled_seconds / 1e9;
    std::printf("%s  sum=%lld  modeled %7.2f ms (%6.1f GB/s)  wall %7.1f ms\n",
                label, static_cast<long long>(result.rows[0][0]),
                result.modeled_seconds * 1e3, gbps, result.wall_seconds * 1e3);
  }

  // Default path: no policy — the cost-based optimizer enumerates candidate
  // plans, prices them with the virtual-time model and runs the cheapest.
  core::QueryResult best = executor.Execute(query);
  std::printf("optimized (default)    sum=%lld  modeled %7.2f ms\n",
              static_cast<long long>(best.rows[0][0]),
              best.modeled_seconds * 1e3);

  // The heterogeneity-aware plan the hybrid policy runs (Fig. 2b analogue):
  plan::HetPlan plan = plan::BuildHetPlan(query, plan::ExecPolicy::Hybrid(),
                                          system.topology());
  HETEX_CHECK_OK(plan::ValidateHetPlan(plan));
  std::printf("\nHybrid heterogeneity-aware plan:\n%s", plan.ToString().c_str());

  // --- Concurrent serving: Submit/Wait through the query scheduler. ---
  //
  // A mixed 8-query workload (scalar sums, min/max, filtered and grouped
  // aggregates) pushed through the same System at rising admission caps. Each
  // query runs on its own session-scoped virtual timeline while PCIe links,
  // DMA engines and GPU streams charge contention across everything in
  // flight; p50 latency (admission queue wait included) falls as the server
  // takes more queries at once.
  std::vector<plan::QuerySpec> mix;
  for (int i = 0; i < 8; ++i) {
    plan::QuerySpec q;
    q.name = "mix-" + std::to_string(i);
    q.fact_table = "t";
    switch (i % 4) {
      case 0:
        q.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});
        break;
      case 1:
        q.fact_filter = plan::Lt(plan::Col("a"), plan::Lit(250 * (1 + i)));
        q.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});
        break;
      case 2:
        q.aggs.push_back({plan::Col("a"), jit::AggFunc::kMin, "min_a"});
        q.aggs.push_back({plan::Col("a"), jit::AggFunc::kMax, "max_a"});
        break;
      default:
        q.group_by.push_back(plan::Col("a"));
        q.aggs.push_back({plan::Col("a"), jit::AggFunc::kCount, "cnt"});
        q.expected_groups = 2048;
        break;
    }
    mix.push_back(std::move(q));
  }

  std::printf("\nconcurrent scheduler, mixed 8-query workload:\n");
  std::printf("%12s %10s %14s %14s %16s\n", "concurrency", "qps", "p50 lat (ms)",
              "max lat (ms)", "mean wait (ms)");
  for (int cap : {1, 2, 4, 8}) {
    core::QueryScheduler scheduler(&system, {.max_concurrent = cap});
    std::vector<core::QueryHandle> handles;
    for (const auto& q : mix) handles.push_back(scheduler.Submit(q));
    std::vector<double> lat;
    double base = 1e300, last = 0, wait = 0;
    for (auto& h : handles) {
      core::QueryResult r = scheduler.Wait(h);
      HETEX_CHECK_OK(r.status);
      base = std::min(base, r.session_epoch - r.queue_wait);
      last = std::max(last, r.session_epoch + r.modeled_seconds);
      lat.push_back(r.queue_wait + r.modeled_seconds);
      wait += r.queue_wait;
    }
    std::sort(lat.begin(), lat.end());
    std::printf("%12d %10.1f %14.2f %14.2f %16.2f\n", cap,
                static_cast<double>(mix.size()) / (last - base),
                lat[lat.size() / 2] * 1e3, lat.back() * 1e3,
                wait / static_cast<double>(mix.size()) * 1e3);
  }

  // --- Degraded mode: lose both GPUs mid-flight, watch the re-plan. ---
  //
  // A loss window on the absolute virtual timeline, opening just after this
  // workload's epoch: the optimizer (which checks device health at planning
  // time) still picks its usual hybrid plan, the first GPU kernel launch
  // inside the window fails with kDeviceLost, and the scheduler re-plans the
  // query on the surviving device set — CPU-only here. The answer stays
  // bit-identical; the recovery is reported on the QueryResult, not an error.
  const sim::VTime lost_at = system.VirtualHorizon() + 1e-4;
  system.fault().LoseGpu(0, lost_at);
  system.fault().LoseGpu(1, lost_at);
  {
    core::QueryScheduler scheduler(&system);
    core::QueryHandle h = scheduler.Submit(query);
    core::QueryResult r = scheduler.Wait(h);
    HETEX_CHECK_OK(r.status);
    std::printf("\nboth GPUs lost mid-flight:\n"
                "  sum=%lld (bit-identical)  modeled %7.2f ms\n"
                "  retries=%d  replanned=%s  degraded=%s  first fault: %s\n",
                static_cast<long long>(r.rows[0][0]), r.modeled_seconds * 1e3,
                r.retries, r.replanned ? "yes" : "no",
                r.degraded ? "yes" : "no",
                r.fault.ok() ? "none" : r.fault.ToString().c_str());
  }
  system.fault().RestoreGpu(0);
  system.fault().RestoreGpu(1);

  // --- Cross-query reuse: shared hash-table builds + result cache. ---
  //
  // A serving-layer System with the reuse knobs on (off by default; also
  // reachable via HETEX_SHARED_BUILDS=1 / HETEX_RESULT_CACHE_MB=N). Four
  // concurrent queries joining the same dimension table trigger exactly one
  // hash-table build — the rest attach to the shared read-only replicas
  // (single-flight dedup in HtRegistry). Repeat submissions of an identical
  // query are answered from the result cache (keyed by canonical spec +
  // table mutation epochs) at lookup cost instead of execution cost.
  core::System::Options serve_options;
  serve_options.blocks.host_arena_blocks = 512;
  serve_options.reuse.shared_builds = true;
  serve_options.reuse.result_cache = true;
  core::System serve(serve_options);

  storage::Table* fact = serve.catalog().CreateTable("f");
  storage::Column* fk = fact->AddColumn("k", storage::ColType::kInt32);
  storage::Column* fv = fact->AddColumn("v", storage::ColType::kInt32);
  constexpr uint64_t kFactRows = 2'000'000;
  for (uint64_t i = 0; i < kFactRows; ++i) {
    fk->Append(static_cast<int64_t>(i % 10'000));
    fv->Append(static_cast<int64_t>(i % 100));
  }
  storage::Table* dim = serve.catalog().CreateTable("d");
  storage::Column* dk = dim->AddColumn("k", storage::ColType::kInt32);
  storage::Column* da = dim->AddColumn("attr", storage::ColType::kInt32);
  for (uint64_t i = 0; i < 10'000; ++i) {
    dk->Append(static_cast<int64_t>(i));
    da->Append(static_cast<int64_t>(i % 1000));
  }
  HETEX_CHECK_OK(fact->Place(serve.HostNodes(), &serve.memory()));
  HETEX_CHECK_OK(dim->Place(serve.HostNodes(), &serve.memory()));

  // SELECT SUM(v) FROM f JOIN d ON f.k = d.k WHERE d.attr < 200
  plan::QuerySpec join_query;
  join_query.name = "quickstart-join";
  join_query.fact_table = "f";
  join_query.joins.push_back({.build_table = "d",
                              .build_filter = plan::Lt(plan::Col("attr"),
                                                       plan::Lit(200)),
                              .build_key = "k",
                              .payload = {},
                              .probe_key = "k"});
  join_query.aggs.push_back({plan::Col("v"), jit::AggFunc::kSum, "sum_v"});

  {
    core::QueryScheduler scheduler(&serve, {.max_concurrent = 4});
    std::vector<core::QueryHandle> handles;
    for (int i = 0; i < 4; ++i) handles.push_back(scheduler.Submit(join_query));
    int executed = 0, result_attached = 0, built = 0, attached = 0;
    double miss_modeled = 0;
    for (auto& h : handles) {
      core::QueryResult r = scheduler.Wait(h);
      HETEX_CHECK_OK(r.status);
      built += r.shared_builds;
      attached += r.shared_attaches;
      if (r.result_attached) {
        ++result_attached;
      } else {
        ++executed;
        miss_modeled = r.modeled_seconds;
      }
    }
    // Single-flight: a duplicate that starts while the first copy runs waits
    // for its result; one that executes anyway shares its hash-table build.
    std::printf("\ncross-query reuse, 4 concurrent identical joins:\n"
                "  executed=%d result attaches=%d  shared hash-table "
                "builds=%d attaches=%d\n",
                executed, result_attached, built, attached);

    // Same query again: served from the result cache at lookup cost.
    core::QueryResult hit = scheduler.Wait(scheduler.Submit(join_query));
    HETEX_CHECK_OK(hit.status);
    const core::ResultCache::Stats cs = serve.result_cache()->stats();
    std::printf("  repeat submission: cache_hit=%s  modeled %.4f ms "
                "(vs %.2f ms executed)\n"
                "  result cache counters: hits=%llu misses=%llu\n",
                hit.cache_hit ? "yes" : "no", hit.modeled_seconds * 1e3,
                miss_modeled * 1e3,
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses));

    // Mutating a referenced table invalidates: the next submission misses.
    dim->NoteMutation();
    core::QueryResult after = scheduler.Wait(scheduler.Submit(join_query));
    HETEX_CHECK_OK(after.status);
    std::printf("  after dimension-table mutation: cache_hit=%s (recomputed)\n",
                after.cache_hit ? "yes" : "no");
  }

  // --- Scale-up: a 4-GPU NVLink fabric past the paper's server. ---
  //
  // Topology::ScaleOutOptions(4) builds four GPUs with a fully-connected
  // NVLink-class peer mesh (one BandwidthServer per link) plus the modeled
  // inter-socket link. The table is partitioned across all four device
  // memories; running the sum on 1, 2 and 4 of the GPUs shows the scale-up —
  // a single GPU pulls the other partitions over the peer links (without a
  // mesh those moves would stage through host memory over two PCIe hops),
  // while all four read locally.
  core::System::Options fabric_options;
  fabric_options.topology = sim::Topology::ScaleOutOptions(4);
  core::System fabric(fabric_options);
  std::printf("\n%s", fabric.topology().Describe().c_str());

  constexpr uint64_t kFabricRows = 64'000'000;
  storage::Table* ft = fabric.catalog().CreateTable("t4");
  storage::Column* fa = ft->AddColumn("a", storage::ColType::kInt32);
  for (uint64_t i = 0; i < kFabricRows; ++i) {
    fa->Append(static_cast<int64_t>(i % 1000));
  }
  HETEX_CHECK_OK(ft->Place(fabric.GpuNodes(), &fabric.memory()));

  plan::QuerySpec fabric_query;
  fabric_query.name = "scaleup-sum";
  fabric_query.fact_table = "t4";
  fabric_query.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});

  core::QueryExecutor fabric_executor(&fabric);
  std::printf("sum over 256 MB partitioned across 4 GPU memories:\n");
  for (const auto& [label, gpus] :
       {std::pair{"1 GPU (3/4 over NVLink)", std::vector<int>{0}},
        std::pair{"2 GPUs                 ", std::vector<int>{0, 1}},
        std::pair{"4 GPUs (all local)     ", std::vector<int>{0, 1, 2, 3}}}) {
    core::QueryResult r =
        fabric_executor.Execute(fabric_query, plan::ExecPolicy::GpuOnly(gpus));
    HETEX_CHECK_OK(r.status);
    std::printf("  %s  sum=%lld  modeled %7.2f ms\n", label,
                static_cast<long long>(r.rows[0][0]), r.modeled_seconds * 1e3);
  }
  return 0;
}
