#ifndef HETEX_CORE_RUNTIME_H_
#define HETEX_CORE_RUNTIME_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "core/ht_registry.h"
#include "core/query_control.h"
#include "core/system.h"
#include "jit/device_provider.h"
#include "jit/hash_table.h"
#include "sim/dma_engine.h"

namespace hetex::core {

/// \brief The unit of inter-pipeline communication: block handles for each column
/// of a batch of tuples, plus virtual-time metadata.
///
/// This is pure control plane — routing a DataMsg never touches tuple data
/// (paper §3.1). The mem-move machinery attaches DMA tickets when it schedules
/// transfers; the consumer waits on them before reading.
struct DataMsg {
  std::vector<memory::BlockHandle> cols;
  uint64_t rows = 0;
  sim::VTime ready_at = 0;
  uint64_t tag = 0;  ///< routing tag (hash bucket / broadcast target id)
  std::vector<sim::TransferTicket> tickets;
  std::vector<memory::Block*> release_after_wait;  ///< DMA sources to free

  /// Mem-move failure marker: when an edge's data-flow half could not deliver
  /// this message (injected DMA fault, staging exhaustion, cancellation), it
  /// releases the payload and forwards the message with `error` set and empty
  /// `cols`; the consumer lifts the error into its instance and drains.
  Status error = Status::OK();

  /// Latest virtual time at which every column block (and transfer) is ready.
  sim::VTime ReadyAt() const {
    sim::VTime t = ready_at;
    for (const auto& ticket : tickets) t = sim::MaxT(t, ticket.ready_at());
    return t;
  }
};

using Channel = MpmcQueue<DataMsg>;

class WorkerGroup;

/// \brief One pipeline instance: a worker thread (CPU) or a host control thread
/// driving kernels on one GPU, with its own provider, virtual clock and input
/// channel.
class WorkerInstance {
 public:
  /// `epoch` is the absolute virtual arrival time of the owning query session:
  /// the instance's clock stays session-local, and the epoch anchors the
  /// provider's reservations on shared resources (GPU streams). `query_id`
  /// identifies the session in the cross-session resource registries (DRAM
  /// fluid shares exclude the query's own registration from the divisor).
  WorkerInstance(int id, sim::DeviceId device, System* system,
                 size_t channel_capacity, sim::VTime epoch = 0.0,
                 uint64_t query_id = 0);

  int id() const { return id_; }
  sim::DeviceId device() const { return device_; }
  sim::MemNodeId node() const { return provider_->mem_node(); }
  jit::DeviceProvider& provider() { return *provider_; }
  System& system() { return *system_; }
  Channel& channel() { return channel_; }

  sim::VTime clock() const { return clock_; }
  void set_clock(sim::VTime t) {
    clock_ = t;
    clock_shared_.store(t, std::memory_order_relaxed);
  }
  void AdvanceTo(sim::VTime t) {
    if (t > clock_) set_clock(t);
  }

  sim::CostStats& stats() { return stats_; }

  /// First runtime error of this instance (e.g. a division-by-zero surfaced by
  /// the JIT tiers). Set by the instance's own worker thread; read by the
  /// orchestrator after Join() and lifted into QueryResult::status.
  const Status& error() const { return error_; }
  void NoteError(Status st) {
    if (error_.ok() && !st.ok()) error_ = std::move(st);
  }

  /// Estimated virtual time at which this instance would finish everything
  /// already queued for it — the router's load-balancing signal (virtual-time
  /// equivalent of the paper's queue-backpressure balancing). `cost_prior` is
  /// the router's bandwidth-based per-block estimate, used until the observed
  /// per-block EMA warms up.
  double EstimatedBacklog(double cost_prior) const {
    const double ema = ema_block_cost_.load(std::memory_order_relaxed);
    const double per_block = ema > 0 ? ema : cost_prior;
    return clock_shared_.load(std::memory_order_relaxed) +
           pending_.load(std::memory_order_relaxed) * per_block;
  }
  void NoteEnqueued() { pending_.fetch_add(1, std::memory_order_relaxed); }
  void NoteDequeued() { pending_.fetch_sub(1, std::memory_order_relaxed); }
  void NoteBlockCost(double cost) {
    const double prev = ema_block_cost_.load(std::memory_order_relaxed);
    ema_block_cost_.store(prev == 0 ? cost : 0.75 * prev + 0.25 * cost,
                          std::memory_order_relaxed);
  }

 private:
  int id_;
  sim::DeviceId device_;
  System* system_;
  std::unique_ptr<jit::DeviceProvider> provider_;
  Channel channel_;
  sim::VTime clock_ = 0;
  std::atomic<double> clock_shared_{0};
  std::atomic<int> pending_{0};
  std::atomic<double> ema_block_cost_{0};
  sim::CostStats stats_;
  Status error_;
};

/// \brief Router + mem-move runtime between producer pipelines and a set of
/// consumer instances.
///
/// The routing decision moves only the block handle; when a chosen consumer
/// cannot access a block's memory node, the mem-move half of the edge acquires a
/// staging block on the consumer-local node and schedules an asynchronous DMA,
/// attaching the ticket to the message (paper §3.2). Broadcast duplicates data
/// flow here: one reference-shared copy of the handles per replica (per
/// consumer, or per device unit when the unit's consumers share one replica),
/// each moved to its target's node on its own; the router half only routes the
/// resulting (block, target-id) pairs.
class Edge {
 public:
  enum class Policy {
    kRoundRobin,   ///< strict rotation (deterministic)
    kLoadBalance,  ///< least virtual-time backlog (default; GPU-local blocks
                   ///< prefer their local GPU)
    kHash,         ///< consumer = tag % consumers (requires hash-packed blocks)
    kBroadcast,    ///< every replica receives every message (see Options)
  };

  struct Options {
    Policy policy = Policy::kLoadBalance;
    bool mem_move = true;            ///< insert the mem-move data-flow half
    double control_cost = 100e-9;    ///< router control-plane cost per message
    sim::VTime crossing_latency = 0; ///< e.g. gpu2cpu task-spawn latency
    /// Absolute arrival time of the owning query session: DMA reservations on
    /// the shared PCIe links are anchored at `epoch + session-local time`, so
    /// concurrent queries charge each other link contention.
    sim::VTime epoch = 0;
    /// Owning query's cancellation/deadline state; a cancelled query's edges
    /// drop (and release) further messages instead of moving them. Null =
    /// uncontrolled session.
    const QueryControl* control = nullptr;
    /// kBroadcast: the consumers on one device unit (HtRegistry::UnitOf)
    /// share one replica — the k instances of a parallel hash-join build —
    /// so each message reaches one of them, rotated by message sequence,
    /// instead of every consumer.
    bool broadcast_per_unit = false;
  };

  Edge(System* system, Options options, std::vector<WorkerInstance*> consumers);

  /// Registers a producer; the edge closes consumer channels once every producer
  /// called CloseProducer().
  void AddProducer() { producers_.fetch_add(1, std::memory_order_relaxed); }
  void CloseProducer();

  /// Routes one message. `producer_node` identifies the pushing pipeline's
  /// memory node (block-manager batching is keyed by it).
  void Push(DataMsg msg, sim::MemNodeId producer_node);

  int num_consumers() const { return static_cast<int>(consumers_.size()); }
  WorkerInstance* consumer(int i) { return consumers_.at(i); }

 private:
  void DeliverTo(WorkerInstance* target, DataMsg msg, sim::MemNodeId producer_node);
  /// Copies `msg`'s blocks to `target_node`, attaching tickets. Returns the
  /// rewritten message.
  DataMsg MoveToNode(DataMsg msg, sim::MemNodeId target_node,
                     sim::MemNodeId producer_node);

  System* system_;
  Options options_;
  std::vector<WorkerInstance*> consumers_;
  /// kBroadcast targets: one group per replica (a single consumer, or a
  /// unit's consumers with broadcast_per_unit), in first-consumer order.
  std::vector<std::vector<WorkerInstance*>> replicas_;
  std::atomic<int> producers_{0};
  std::atomic<uint64_t> rr_next_{0};
};

/// Releases every block of a message from `holder_node`'s perspective (skipping
/// foreign, table-resident blocks).
void ReleaseMsgBlocks(System* system, DataMsg& msg, sim::MemNodeId holder_node);

/// \brief Per-instance pipeline execution logic, provided by the compiler.
class BlockProcessor {
 public:
  virtual ~BlockProcessor() = default;
  virtual void Init(WorkerInstance& inst) = 0;
  virtual void ProcessMsg(WorkerInstance& inst, DataMsg& msg) = 0;
  /// Input exhausted: flush partials / finalize state.
  virtual void Finish(WorkerInstance& inst) = 0;
};

using ProcessorFactory =
    std::function<std::unique_ptr<BlockProcessor>(WorkerInstance&)>;

/// \brief A group of identically-programmed pipeline instances (one per device in
/// `devices`), each consuming from its own channel.
class WorkerGroup {
 public:
  WorkerGroup(System* system, std::vector<sim::DeviceId> devices,
              ProcessorFactory factory, Edge* out, size_t channel_capacity,
              sim::VTime initial_clock, sim::VTime epoch = 0.0,
              uint64_t query_id = 0, const QueryControl* control = nullptr);

  /// `socket_workers` (plan::CpuWorkersPerSocket of the stages this group
  /// streams alongside) is the CPU fluid-share divisor; a socket it does not
  /// list divides by 1.
  void Start(const std::map<int, int>& socket_workers);
  void Join();

  int size() const { return static_cast<int>(instances_.size()); }
  WorkerInstance& instance(int i) { return *instances_.at(i); }
  std::vector<WorkerInstance*> instance_ptrs();

  /// Max instance clock after Join(): the group's completion in virtual time.
  sim::VTime max_end() const { return max_end_; }
  sim::CostStats total_stats() const;

 private:
  void RunInstance(WorkerInstance& inst);

  System* system_;
  ProcessorFactory factory_;
  Edge* out_;
  const QueryControl* control_ = nullptr;
  sim::VTime initial_clock_;
  std::vector<std::unique_ptr<WorkerInstance>> instances_;
  std::vector<std::thread> threads_;
  sim::VTime max_end_ = 0;
};

/// \brief The segmenter: a single lightweight thread that splits a placed table's
/// chunks into block-sized handles and feeds them to a router edge (paper Fig. 2,
/// pipeline 6). No data is copied — handles point into table memory.
class SourceDriver {
 public:
  SourceDriver(System* system, const storage::Table* table,
               std::vector<int> col_indices, uint64_t block_rows, Edge* out,
               sim::VTime initial_clock, double per_block_cost = 20e-9);
  ~SourceDriver();

  void Start();
  void Join();

  /// Owning query's cancellation/deadline state: a segmenter stops producing
  /// as soon as the query is no longer live (downstream drains normally).
  void set_control(const QueryControl* control) { control_ = control; }

 private:
  void Run();

  System* system_;
  const QueryControl* control_ = nullptr;
  const storage::Table* table_;
  std::vector<int> col_indices_;
  uint64_t block_rows_;
  Edge* out_;
  sim::VTime clock_;
  double per_block_cost_;
  std::deque<memory::Block> foreign_blocks_;
  std::thread thread_;
  bool started_ = false;
};

/// Collects final result rows with a virtual-time watermark.
class ResultSink {
 public:
  void AddRow(std::vector<int64_t> row, sim::VTime t) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(row));
    done_at_ = sim::MaxT(done_at_, t);
  }

  std::vector<std::vector<int64_t>> TakeRows() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(rows_);
  }
  sim::VTime done_at() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_at_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<int64_t>> rows_;
  sim::VTime done_at_ = 0;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_RUNTIME_H_
