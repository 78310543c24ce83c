#ifndef HETEX_JIT_DEVICE_PROVIDER_H_
#define HETEX_JIT_DEVICE_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "jit/exec_ctx.h"
#include "jit/interpreter.h"
#include "jit/program.h"
#include "memory/block_manager.h"
#include "memory/memory_manager.h"
#include "sim/fault.h"
#include "sim/gpu_device.h"
#include "sim/topology.h"

namespace hetex::jit {

class KernelCache;

/// \brief One pipeline execution request: a block of rows to push through a
/// compiled program, together with the pipeline's bound state.
struct ExecRequest {
  const ColumnBinding* cols = nullptr;
  int n_cols = 0;
  uint64_t rows = 0;
  EmitTarget* emit = nullptr;
  EmitTarget** emit_targets = nullptr;  ///< hash-pack buckets (optional)
  int n_emit_targets = 0;
  void** ht_slots = nullptr;
  int64_t* instance_accs = nullptr;            ///< CPU: instance-persistent accumulators
  std::atomic<int64_t>* shared_accs = nullptr; ///< GPU: device-resident accumulators
  sim::VTime earliest = 0;                     ///< input availability (virtual time)
};

/// Result of executing one block through a pipeline.
struct ExecResult {
  Status status;           ///< runtime failure (e.g. division by zero)
  sim::VTime end = 0;      ///< modeled completion time
  sim::CostStats stats;    ///< work performed
};

/// \brief Standalone program verification used by ConvertToMachineCode:
/// kEnd-termination, jump targets in range and label-patched, register operands
/// (including windows) within n_regs, hash-table slots and accumulator indices
/// bound, and rejection of programs whose divisor register can hold a zero
/// constant.
Status ValidateProgram(const PipelineProgram& program);

/// \brief Device provider: the device-independent utility interface of the
/// paper's Table 1.
///
/// Every operator's produce()/consume() is written once against this interface;
/// the device-crossing operators decide which provider each pipeline is
/// instantiated with, and that choice alone specializes the generated pipeline to
/// a CPU worker or a GPU kernel (paper §4.1, Fig. 3).
///
/// Table 1 mapping:
///  - allocStateVar/freeStateVar        -> AllocStateVar / FreeStateVar
///  - load/storeStateVar                -> pipeline state slots bound via ExecRequest
///  - get/releaseBuffer, malloc/free    -> GetBuffer / ReleaseBuffer (block arena)
///  - #threadsInWorker, threadIdInWorker-> WorkerThreads() and the grid-stride
///                                         bounds installed into each ExecCtx
///  - workerScopedAtomic<T, Op>         -> atomic accumulation / HT CAS enabled
///                                         (GPU) or elided (CPU single thread)
///  - convertToMachineCode/loadMachineCode -> ConvertToMachineCode (finalize +
///                                         validate; our VM "machine code")
class DeviceProvider {
 public:
  virtual ~DeviceProvider() = default;

  virtual sim::DeviceType type() const = 0;
  virtual sim::DeviceId device() const = 0;
  virtual sim::MemNodeId mem_node() const = 0;

  /// Number of concurrent worker threads inside one pipeline execution: 1 for a
  /// CPU worker, the kernel grid size for a GPU. The CPU provider's answer lets
  /// codegen elide neighborhood reductions and worker-scoped atomics (Fig. 3).
  virtual int WorkerThreads() const = 0;

  /// Allocates pipeline state (hash tables, accumulators) on the local node.
  virtual void* AllocStateVar(uint64_t bytes) = 0;
  virtual void FreeStateVar(void* ptr) = 0;

  /// Acquires/releases a staging block from the local block arena.
  virtual memory::Block* GetBuffer() = 0;
  virtual void ReleaseBuffer(memory::Block* block) = 0;

  /// \brief Finalizes ("compiles") a generated program for this device — the
  /// tiering point of the JIT layer.
  ///
  /// Validates the code (ValidateProgram), then attempts to lower it to the
  /// vectorized batch tier; program shapes the vectorizer cannot prove fall
  /// back to the row interpreter (tracked and logged, never silent). When a
  /// kernel cache is attached (tier 2 enabled), the program is additionally
  /// handed to the C++ codegen backend: the compiled kernel hot-swaps in once
  /// ready, with the tier chosen here serving until then. Mirrors IR
  /// verification + backend lowering.
  virtual Status ConvertToMachineCode(PipelineProgram* program);

  /// Executes one block through a finalized program, advancing virtual time.
  /// Dispatches to the tier ConvertToMachineCode installed on the program.
  virtual ExecResult Execute(const PipelineProgram& program, ExecRequest& req) = 0;

  /// The memory manager backing AllocStateVar.
  virtual memory::MemoryManager& memory_manager() = 0;

  /// Tier selection override (kForceInterpreter pins tier 0, kForceVectorized
  /// caps at tier 1 — used by the differential parity suites and benchmarks).
  void set_tier_policy(TierPolicy policy) { tier_policy_ = policy; }
  TierPolicy tier_policy() const { return tier_policy_; }

  /// Attaches the tier-2 kernel cache (null = codegen disabled). Owned by the
  /// System; shared by all providers so kernels dedup across devices — the
  /// generated source is device-independent (atomicity is a runtime argument).
  void set_kernel_cache(KernelCache* cache) { kernel_cache_ = cache; }
  KernelCache* kernel_cache() const { return kernel_cache_; }

  /// Absolute virtual arrival time of the query session this provider executes
  /// for. All ExecRequest/ExecResult times stay session-local; the epoch anchors
  /// reservations on shared resources (the GPU kernel stream) so concurrent
  /// sessions contend on one absolute timeline.
  void set_session_epoch(sim::VTime epoch) { session_epoch_ = epoch; }
  sim::VTime session_epoch() const { return session_epoch_; }

  /// Query id of the owning session. Identifies this provider's query in the
  /// cross-session resource registries (a CPU worker's DRAM fluid share
  /// divides by its own group's worker count plus every *other* session's
  /// registered workers on the socket — never double-counting itself).
  void set_session_id(uint64_t id) { session_id_ = id; }
  uint64_t session_id() const { return session_id_; }

  /// Attaches the System's fault plane. GpuProvider::Execute consults it for
  /// scripted device loss and transient kernel-launch failures; null or
  /// disabled = no checks (byte-identical fault-free behavior).
  void set_fault_injector(sim::FaultInjector* fault) { fault_ = fault; }
  sim::FaultInjector* fault_injector() const { return fault_; }

 private:
  TierPolicy tier_policy_ = TierPolicy::kAuto;
  KernelCache* kernel_cache_ = nullptr;
  sim::VTime session_epoch_ = 0.0;
  uint64_t session_id_ = 0;
  sim::FaultInjector* fault_ = nullptr;
};

/// CPU provider: single-threaded worker pinned to one socket; streaming bandwidth
/// comes from the socket's fluid share.
class CpuProvider : public DeviceProvider {
 public:
  CpuProvider(int socket, sim::Topology* topo, memory::MemoryRegistry* mem,
              memory::BlockRegistry* blocks)
      : socket_(socket),
        topo_(topo),
        mem_(mem),
        blocks_(blocks),
        node_(topo->socket(socket).mem) {}

  sim::DeviceType type() const override { return sim::DeviceType::kCpu; }
  sim::DeviceId device() const override { return sim::DeviceId::Cpu(socket_); }
  sim::MemNodeId mem_node() const override { return node_; }
  int WorkerThreads() const override { return 1; }

  void* AllocStateVar(uint64_t bytes) override;
  void FreeStateVar(void* ptr) override;
  memory::Block* GetBuffer() override;
  void ReleaseBuffer(memory::Block* block) override;
  ExecResult Execute(const PipelineProgram& program, ExecRequest& req) override;
  memory::MemoryManager& memory_manager() override { return mem_->manager(node_); }

  int socket() const { return socket_; }

  /// Number of workers configured on this socket for the running query: the
  /// deterministic fluid-share divisor (all workers are concurrently active in
  /// virtual time during the streaming phase).
  void set_socket_concurrency(int n) { socket_concurrency_ = n < 1 ? 1 : n; }
  int socket_concurrency() const { return socket_concurrency_; }

 private:
  int socket_;
  int socket_concurrency_ = 1;
  sim::Topology* topo_;
  memory::MemoryRegistry* mem_;
  memory::BlockRegistry* blocks_;
  sim::MemNodeId node_;
};

/// GPU provider: pipelines execute as kernels over a logical thread grid with
/// device atomics; state and buffers live in the GPU's device memory.
class GpuProvider : public DeviceProvider {
 public:
  GpuProvider(sim::GpuDevice* gpu, sim::Topology* topo, memory::MemoryRegistry* mem,
              memory::BlockRegistry* blocks)
      : gpu_(gpu),
        topo_(topo),
        mem_(mem),
        blocks_(blocks),
        node_(gpu->mem_node()) {}

  sim::DeviceType type() const override { return sim::DeviceType::kGpu; }
  sim::DeviceId device() const override { return sim::DeviceId::Gpu(gpu_->id()); }
  sim::MemNodeId mem_node() const override { return node_; }
  int WorkerThreads() const override { return gpu_->default_grid(); }

  void* AllocStateVar(uint64_t bytes) override;
  void FreeStateVar(void* ptr) override;
  memory::Block* GetBuffer() override;
  void ReleaseBuffer(memory::Block* block) override;
  ExecResult Execute(const PipelineProgram& program, ExecRequest& req) override;
  memory::MemoryManager& memory_manager() override { return mem_->manager(node_); }

  sim::GpuDevice* gpu() const { return gpu_; }

  /// UVA/zero-copy mode: kernels read host-resident blocks in place over the
  /// GPU's PCIe link, and their streamed bytes reserve real occupancy on that
  /// link's BandwidthServer (epoch-anchored, first-fit, exactly like DMA) —
  /// concurrent sessions' transfers queue behind the kernel and vice versa.
  void set_uva(bool uva) { uva_ = uva; }
  bool uva() const { return uva_; }

 private:
  sim::GpuDevice* gpu_;
  sim::Topology* topo_;
  memory::MemoryRegistry* mem_;
  memory::BlockRegistry* blocks_;
  sim::MemNodeId node_;
  bool uva_ = false;
};

}  // namespace hetex::jit

#endif  // HETEX_JIT_DEVICE_PROVIDER_H_
