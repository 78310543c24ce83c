#ifndef HETEX_PLAN_STAGES_H_
#define HETEX_PLAN_STAGES_H_

#include <array>
#include <map>
#include <ranges>
#include <vector>

#include "common/status.h"
#include "plan/het_plan.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hetex::plan {

/// Relational role of a pipeline span: kJoinBuild → build, kGather → gather,
/// kHashPack without probes → filter stage (split plans' stage A), otherwise
/// probe.
enum class SpanRole {
  kBuild,        ///< feeds a join hash table (pipeline breaker into state)
  kFilterStage,  ///< stage A of a split plan: filter + hash-pack emit
  kProbe,        ///< fused filter/probe/local-aggregate stage
  kGather,       ///< global merge of partials, writes the result sink
};

const char* SpanRoleName(SpanRole role);

/// \brief One device-type branch of a stage: a maximal run of compute
/// operators between exchange boundaries (routers, segmenters, pack tops).
struct SpanBranch {
  std::vector<int> nodes;                ///< plan node ids, consumer→producer
  std::vector<sim::DeviceId> instances;  ///< placement stamped on the span
  bool gpu_entry = false;  ///< a kCpu2Gpu sits on the consumer-side decoration
  bool uva = false;        ///< that crossing addresses producer memory over UVA
};

/// \brief One pipeline stage: the branches one exchange feeds, merged into a
/// single worker group that runs branch 0's program.
struct PlanStage {
  SpanRole role = SpanRole::kProbe;
  int join_id = -1;   ///< kBuild: join whose hash table the stage fills
  int n_buckets = 1;  ///< kFilterStage: hash-pack fanout
  std::vector<SpanBranch> branches;
  std::vector<sim::DeviceId> instances;  ///< every branch's placement, in order

  // The exchange feeding the stage.
  int router = -1;     ///< kRouter node (-1: bare direct feed)
  int segmenter = -1;  ///< kSegmenter node when the stage reads a table
  std::vector<int> producer_tops;  ///< top nodes of the producer stage's spans
  /// Some crossing of the exchange addresses producer memory over UVA, so no
  /// consumer restores locality with a mem-move.
  bool uva = false;
  double crossing_latency = 0;  ///< max gpu2cpu task-spawn latency crossed
};

/// \brief A plan cut into its pipeline stages.
struct StagePartition {
  /// Build networks grouped by their feeding exchange, in discovery order.
  std::vector<PlanStage> build_stages;
  /// Fact chain consumer-first: gather, probe, then (split plans) the filter
  /// stage; the last one is segmenter-fed.
  std::vector<PlanStage> fact_stages;
};

/// Cuts `plan` into the pipeline stages its HetExchange operators delimit
/// (§3, §4.1). This is the one model of a plan's stages: GraphBuilder lowers
/// these stages and PlanCoster prices them. Fails with a named Status on DAG
/// shapes that cannot run: cycles, dangling decoration, spans without a
/// placement stamp, exchanges fed by several routers or segmenters, or a
/// segmenter mixed with pipeline producers.
Result<StagePartition> PartitionSpans(const HetPlan& plan);

/// CPU workers per socket over `stages` (a range of PlanStage pointers) — the
/// one count behind CPU DRAM contention. Every build stage runs at once, so
/// the build phase's count over all of them is both the width of its interval
/// on each socket's sim::DramServer timeline and each build worker's
/// fluid-share divisor. The fact phase registers its count over all fact
/// stages, but each fact stage divides by its own count alone. GraphBuilder
/// and PlanCoster both take the counts from here.
template <std::ranges::input_range StagePtrs>
std::map<int, int> CpuWorkersPerSocket(const StagePtrs& stages) {
  std::map<int, int> workers;
  for (const PlanStage* stage : stages) {
    for (const sim::DeviceId& dev : stage->instances) {
      if (dev.is_cpu()) workers[dev.index] += 1;
    }
  }
  return workers;
}

/// One stage's own CPU workers per socket.
inline std::map<int, int> CpuWorkersPerSocket(const PlanStage& stage) {
  return CpuWorkersPerSocket(std::array{&stage});
}

/// Rows per block a segmenter-fed stage scans: the segmenter's stamped
/// granularity, capped at `staging_rows` (the system's block_bytes / 8) when
/// the stage has a GPU instance or `table` has a GPU-resident chunk. Such a
/// block must fit one staging arena block when a mem-move copies it to device
/// memory or a device-resident chunk crosses to another unit, and one GPU emit
/// bucket (block_bytes / 8-byte slots) when the stage packs output. Plans
/// stamped coarser are clamped, never crashed at transfer time.
uint64_t ScanBlockRows(const PlanStage& stage, const HetOpNode& segmenter,
                       const storage::Table* table, const sim::Topology& topo,
                       uint64_t staging_rows);

}  // namespace hetex::plan

#endif  // HETEX_PLAN_STAGES_H_
