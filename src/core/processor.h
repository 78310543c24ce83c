#ifndef HETEX_CORE_PROCESSOR_H_
#define HETEX_CORE_PROCESSOR_H_

#include <memory>
#include <vector>

#include "core/compiler.h"
#include "core/program_cache.h"
#include "core/runtime.h"

namespace hetex::core {

/// \brief Everything a worker group needs to run one compiled stage.
///
/// One StageConfig is shared by all instances of a group; the instances share the
/// program their device kind finalized once through the program cache and bind
/// their own state (the paper's per-device pipeline template + per-instance state
/// creation, §4.2).
struct StageConfig {
  plan::SpanRole role = plan::SpanRole::kProbe;
  CompiledPipeline pipeline;

  /// Owning query session: namespaces this stage's hash tables in the shared
  /// HtRegistry so concurrent queries never collide on (join id, unit).
  uint64_t query_id = 0;

  /// Per-device program cache (required): the group's N instances finalize
  /// each distinct span program exactly once.
  ProgramCache* programs = nullptr;

  HtRegistry* hts = nullptr;
  Edge* out = nullptr;          ///< downstream edge (null for gather)
  ResultSink* result = nullptr; ///< gather only

  // Emit configuration.
  uint64_t block_bytes = 1ull << 20;
  int n_buckets = 1;            ///< hash-pack buckets (>1 only for kFilterStage)

  // Bare-GPU (UVA) mode: kernels may read host-resident blocks over PCIe;
  // their streamed bytes reserve occupancy on the GPU's link BandwidthServer.
  bool allow_uva = false;
};

/// Creates the block processor for one instance of a stage.
std::unique_ptr<BlockProcessor> MakeVmProcessor(const StageConfig* config);

}  // namespace hetex::core

#endif  // HETEX_CORE_PROCESSOR_H_
