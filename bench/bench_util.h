#ifndef HETEX_BENCH_BENCH_UTIL_H_
#define HETEX_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "baselines/dbms_c.h"
#include "baselines/dbms_g.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/system.h"
#include "ssb/ssb.h"

namespace hetex::bench {

/// \brief Shared benchmark environment: the simulated paper server plus an SSB
/// database at a chosen scale.
///
/// The paper's SF100 ("fits in aggregate GPU memory") and SF1000 ("must stream
/// over PCIe") regimes are reproduced by scaling the dataset and the modeled GPU
/// capacity together (ROADMAP.md, "Scaled miniatures").
/// Dimension-row overrides for SsbBenchEnv (0 = scale-derived).
struct DimSizes {
  uint64_t customer = 0;
  uint64_t supplier = 0;
  uint64_t part = 0;
};

class SsbBenchEnv {
 public:
  /// \param paper_sf the paper scale factor this environment reproduces; the
  ///        dataset is scaled to `scale`, and all *per-query* fixed costs
  ///        (router init, baseline startup) are scaled by scale/paper_sf so the
  ///        fixed-cost-to-work ratio matches the paper's regime (ROADMAP.md,
  ///        "Scaled miniatures").
  SsbBenchEnv(double scale, double paper_sf, uint64_t gpu_capacity_bytes,
              DimSizes dims = {}, uint64_t host_arena_blocks = 768)
      : latency_scale_(scale / paper_sf) {
    core::System::Options options;
    options.topology.gpu_capacity = gpu_capacity_bytes;
    // Self-similar miniature: fixed latencies and the block granularity shrink
    // by the same factor as the data.
    options.topology.cost_model.ScaleFixedLatencies(latency_scale_);
    block_rows_ = std::max<uint64_t>(
        512, static_cast<uint64_t>(128.0 * 1024 * latency_scale_));
    options.blocks.block_bytes = std::max<uint64_t>(block_rows_ * 8, 16 << 10);
    options.blocks.host_arena_blocks = host_arena_blocks;
    options.blocks.gpu_arena_blocks = 384;
    system = std::make_unique<core::System>(options);

    ssb::Ssb::Options ssb_options;
    ssb_options.scale = scale;
    ssb_options.customer_rows = dims.customer;
    ssb_options.supplier_rows = dims.supplier;
    ssb_options.part_rows = dims.part;
    ssb = std::make_unique<ssb::Ssb>(ssb_options, &system->catalog());
    PlaceAllOnHost();
  }

  void PlaceAllOnHost() {
    for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(
          system->catalog().at(t).Place(system->HostNodes(), &system->memory()));
    }
    fact_on_gpu_ = false;
  }

  /// Fig. 4 regime: the fact table is randomly partitioned across the GPUs'
  /// device memories (dimensions stay host-resident; they are broadcast at build
  /// time and are a small fraction of the working set).
  void PlaceFactOnGpus() {
    HETEX_CHECK_OK(system->catalog().at("lineorder").Place(system->GpuNodes(),
                                                           &system->memory()));
    fact_on_gpu_ = true;
  }

  bool fact_on_gpu() const { return fact_on_gpu_; }

  core::QueryResult RunProteus(const plan::QuerySpec& spec,
                               plan::ExecPolicy policy) {
    policy.block_rows = block_rows_;
    core::QueryExecutor executor(system.get());
    return executor.Execute(spec, policy);
  }

  /// Operator cardinalities are evaluated once per query and shared between the
  /// DBMS C and DBMS G emulations (and across repetitions).
  const baselines::OpStats& StatsFor(const plan::QuerySpec& spec) {
    auto it = stats_cache_.find(spec.name);
    if (it == stats_cache_.end()) {
      it = stats_cache_
               .emplace(spec.name,
                        baselines::EvaluateWithStats(spec, system->catalog()))
               .first;
    }
    return it->second;
  }

  core::QueryResult RunDbmsC(const plan::QuerySpec& spec) {
    baselines::DbmsCOptions options;
    options.startup_seconds *= latency_scale_;
    baselines::DbmsC engine(system.get(), options);
    return engine.Execute(spec, &StatsFor(spec));
  }

  core::QueryResult RunDbmsG(const plan::QuerySpec& spec, bool data_on_gpu) {
    baselines::DbmsGOptions options;
    options.data_on_gpu = data_on_gpu;
    options.startup_seconds *= latency_scale_;
    baselines::DbmsG engine(system.get(), options);
    return engine.Execute(spec, &StatsFor(spec));
  }

  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;

  double latency_scale() const { return latency_scale_; }
  uint64_t block_rows() const { return block_rows_; }

 private:
  double latency_scale_;
  uint64_t block_rows_ = 128 * 1024;
  std::map<std::string, baselines::OpStats> stats_cache_;
  bool fact_on_gpu_ = false;
};

/// BENCH_scaleup.json — the artifact bench_fig7_scaleup prints on stdout (CI
/// tees it from the Release job's `--check` run). One JSON object:
///
///   {
///     "lineorder_rows": <uint>,      // fact rows per sweep point
///     "gpu_sweep": [                 // one entry per fabric size (1, 2, 4
///       {                            // GPUs; fact partitioned across GPUs)
///         "num_gpus": <int>,
///         "queries": <int>,          // queries pushed through the scheduler
///         "makespan_modeled_s": <s>, // virtual-time makespan of the batch
///         "qps_modeled": <qps>,      // queries / makespan_modeled_s
///         "p99_latency_s": <s>,      // per-query modeled latency p99
///         "wall_s": <s>              // host wall clock (diagnostic only)
///       }, ...
///     ],
///     "peer_leg": {                  // all tables in gpu0's memory, query
///       "query": "Qf.i",             // pinned to gpu1: NVLink mesh vs the
///       "peer_modeled_s": <s>,       // same fabric without it (host-staged)
///       "staged_modeled_s": <s>,
///       "speedup": <x>,              // staged / peer, > 1 when peer wins
///       "peer_est_s": <s>,           // coster estimates of the same routes
///       "staged_est_s": <s>,
///       "coster_ordering_ok": <bool> // estimated ordering == measured
///     },
///     "baseline": {                  // 1-GPU single-socket no-fabric system
///       "queries": <int>,            // all 13 SSB queries, optimizer-picked
///       "parity_ok": <bool>,         // picked-plan rows == reference rows
///       "coster_max_ratio": <x>      // picked / measured-best, gated <= 1.2
///     }
///   }
///
/// `--check` gates (exit nonzero + "CHECK FAILED:" on stderr): qps_modeled
/// strictly rises 1 -> 2 -> 4 GPUs, the peer leg beats host staging with the
/// coster agreeing on the ordering, and the baseline stays at parity with
/// coster_max_ratio <= 1.2 — the PR 8 solo regime is bit-identical.

/// BENCH_soak.json — the artifact bench_soak_bench prints on stdout (CI tees
/// it from the Release job's `--check` run). One JSON object:
///
///   {
///     "lineorder_rows": <uint>,       // fact rows in the served SSB mix
///     "max_concurrent": <int>,        // scheduler admission width
///     "timeline_cycles": <int>,       // timed cycles per timeline level
///     "mean_solo_latency_s": <s>,     // pre-soak pool mean (rate calibration)
///     "offered_qps": <qps>,           // Poisson arrival rate, all levels
///     "levels": [                     // one entry per in-flight-session
///       {                             // level: 64, 128, 256
///         "sessions": <int>,          // sessions pushed through the scheduler
///         "ok": <int>,                // sessions that completed OK
///         "achieved_qps": <qps>,      // ok / virtual-time makespan
///         "p99_latency_s": <s>,       // queue wait + modeled latency p99
///         "dram_segments": <uint>,    // live System max socket-timeline size
///         "solo_closed_form": <bool>, // horizon-anchored block == closed form
///         "wall_s": <s>               // host wall clock (diagnostic only)
///       }, ...
///     ],
///     "timeline": [                   // bare IntervalTimeline sweep at
///       {                             // constant boundary density
///         "cap": <uint>,              // Bound() cap: 4096, 16384, 65536
///         "segments": <uint>,         // boundaries held after the timed loop
///         "ns_per_cycle": <ns>        // one closed Add + its span walk
///       }, ...
///     ],
///     "ns_ratio": <x>,                // ns_per_cycle(65536) / ns_per_cycle(4096)
///     "solo_max_rel_dev": <x>,        // post- vs pre-soak solo latency dev
///     "solo_parity_ok": <bool>        // solo_max_rel_dev <= 1e-4
///   }
///
/// `--check` gates (exit nonzero + "CHECK FAILED:" on stderr): every session
/// completes, the live DRAM timelines stay under their 4096-segment cap, every
/// level's horizon-anchored block equals the solo closed form bit for bit,
/// solo_parity_ok, every timeline level holds exactly its cap (so the sweep
/// measures timeline size, not the cap), and ns_ratio <= 3 — a reservation's
/// cost grows at most logarithmically as the timeline grows 16x.

/// Registers a 1-iteration manual-time benchmark whose reported time is the
/// *modeled* latency on the simulated paper server.
template <typename Fn>
void RegisterModeled(const std::string& name, Fn fn) {
  benchmark::RegisterBenchmark(name.c_str(), [fn](benchmark::State& state) {
    for (auto _ : state) {
      core::QueryResult result = fn();
      if (!result.status.ok()) {
        state.SkipWithError(result.status.ToString().c_str());
        return;
      }
      state.SetIterationTime(result.modeled_seconds);
      state.counters["wall_ms"] = result.wall_seconds * 1e3;
      state.counters["rows"] = static_cast<double>(result.rows.size());
    }
  })->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

/// Builds the two microbenchmark tables of §6.4: `micro` (one int32 column of
/// `rows`, the SUM input) and `micro_build` (the 7.7 MB-modeled build side whose
/// key domain the micro fact keys hit uniformly).
inline void MakeMicroTables(core::System* system, uint64_t rows,
                            uint64_t build_rows, bool keep_staging = false) {
  Rng rng(7);
  storage::Table* fact = system->catalog().CreateTable("micro");
  storage::Column* a = fact->AddColumn("a", storage::ColType::kInt32);
  storage::Column* key = fact->AddColumn("k", storage::ColType::kInt32);
  for (uint64_t i = 0; i < rows; ++i) {
    a->Append(static_cast<int64_t>(i & 0xFFFF));
    key->Append(static_cast<int64_t>(rng.Uniform(build_rows) + 1));
  }
  HETEX_CHECK_OK(fact->Place(system->HostNodes(), &system->memory()));
  if (!keep_staging) fact->DropStaging();

  storage::Table* build = system->catalog().CreateTable("micro_build");
  storage::Column* bk = build->AddColumn("bk", storage::ColType::kInt64);
  for (uint64_t i = 0; i < build_rows; ++i) {
    bk->Append(static_cast<int64_t>(i + 1));
  }
  HETEX_CHECK_OK(build->Place({system->HostNodes()[0]}, &system->memory()));
}

/// SELECT SUM(a) FROM micro — the bandwidth-bound microbenchmark.
inline plan::QuerySpec MicroSumQuery() {
  plan::QuerySpec q;
  q.name = "micro-sum";
  q.fact_table = "micro";
  q.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});
  q.expected_groups = 1;
  return q;
}

/// SELECT COUNT(*) FROM micro JOIN micro_build ON k = bk — the random-access-
/// bound microbenchmark (non-partitioned 1:N join).
inline plan::QuerySpec MicroJoinQuery() {
  plan::QuerySpec q;
  q.name = "micro-join";
  q.fact_table = "micro";
  q.joins.push_back({"micro_build", nullptr, "bk", {}, "k"});
  q.aggs.push_back({nullptr, jit::AggFunc::kCount, "cnt"});
  q.expected_groups = 1;
  return q;
}

}  // namespace hetex::bench

#endif  // HETEX_BENCH_BENCH_UTIL_H_
