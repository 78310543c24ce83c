#include "core/runtime.h"

#include <gtest/gtest.h>

#include <map>

#include "core/system.h"

namespace hetex::core {
namespace {

System::Options SmallSystem() {
  System::Options o;
  o.topology.cores_per_socket = 2;
  o.topology.gpu_sim_threads = 2;
  o.blocks.block_bytes = 4096;
  o.blocks.host_arena_blocks = 64;
  o.blocks.gpu_arena_blocks = 32;
  return o;
}

/// Processor that records the messages an instance consumed.
class RecordingProcessor : public BlockProcessor {
 public:
  struct Log {
    std::mutex mu;
    std::map<int, std::vector<DataMsg>> by_instance;  // copies (handles only)
  };

  explicit RecordingProcessor(Log* log) : log_(log) {}
  void Init(WorkerInstance&) override {}
  void ProcessMsg(WorkerInstance& inst, DataMsg& msg) override {
    inst.AdvanceTo(sim::MaxT(inst.clock(), msg.ReadyAt()) + 1e-6);
    std::lock_guard<std::mutex> lock(log_->mu);
    DataMsg copy;
    copy.rows = msg.rows;
    copy.tag = msg.tag;
    copy.ready_at = msg.ReadyAt();
    // Note the data nodes (blocks themselves are released by the runtime).
    for (auto& h : msg.cols) {
      memory::BlockHandle stub;
      stub.rows = h.rows;
      stub.bytes = h.bytes;
      stub.ready_at = h.node();  // smuggle the node id for assertions
      copy.cols.push_back(stub);
    }
    log_->by_instance[inst.id()].push_back(std::move(copy));
  }
  void Finish(WorkerInstance&) override {}

 private:
  Log* log_;
};

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : system_(SmallSystem()) {}

  /// Sends `n` single-column host blocks through an edge into `group`.
  void Drive(Edge& edge, WorkerGroup& group, int n) {
    group.Start({});
    edge.AddProducer();
    const sim::MemNodeId host = system_.topology().socket(0).mem;
    for (int i = 0; i < n; ++i) {
      memory::Block* block = system_.blocks().Acquire(host, host);
      DataMsg msg;
      msg.rows = 10;
      msg.tag = static_cast<uint64_t>(i);
      memory::BlockHandle h;
      h.block = block;
      h.rows = 10;
      h.bytes = 40;
      msg.cols.push_back(h);
      edge.Push(std::move(msg), host);
    }
    edge.CloseProducer();
    group.Join();
  }

  System system_;
  RecordingProcessor::Log log_;

  ProcessorFactory Recorder() {
    return [this](WorkerInstance&) {
      return std::make_unique<RecordingProcessor>(&log_);
    };
  }
};

TEST_F(RuntimeTest, RoundRobinDistributesEvenly) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, 0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 10);
  EXPECT_EQ(log_.by_instance[0].size(), 5u);
  EXPECT_EQ(log_.by_instance[1].size(), 5u);
}

TEST_F(RuntimeTest, HashPolicyRoutesByTag) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, 0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kHash;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 9);
  for (const auto& msg : log_.by_instance[0]) EXPECT_EQ(msg.tag % 2, 0u);
  for (const auto& msg : log_.by_instance[1]) EXPECT_EQ(msg.tag % 2, 1u);
}

TEST_F(RuntimeTest, BroadcastReachesEveryConsumer) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0), sim::DeviceId::Cpu(1)},
                    Recorder(), nullptr, 8, 0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kBroadcast;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 4);
  EXPECT_EQ(log_.by_instance[0].size(), 4u);
  EXPECT_EQ(log_.by_instance[1].size(), 4u);
  // Broadcast tags are target ids (the mem-move contract, §3.2).
  EXPECT_EQ(log_.by_instance[0][0].tag, 0u);
  EXPECT_EQ(log_.by_instance[1][0].tag, 1u);
  // All blocks returned to the arena (refcounted multicast).
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(system_.topology().socket(0).mem).in_use(),
            0u);
}

TEST_F(RuntimeTest, MemMoveCopiesToGpuAndAttachesTicket) {
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(0)}, Recorder(), nullptr, 8,
                    0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kRoundRobin;
  opts.mem_move = true;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 3);
  ASSERT_EQ(log_.by_instance[0].size(), 3u);
  const sim::MemNodeId gpu_node = system_.topology().gpu(0).mem;
  for (const auto& msg : log_.by_instance[0]) {
    // stub.ready_at smuggles the node id.
    EXPECT_EQ(static_cast<sim::MemNodeId>(msg.cols[0].ready_at), gpu_node);
    EXPECT_GT(msg.ready_at, 0.0);  // DMA took virtual time
  }
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(gpu_node).in_use(), 0u);
}

TEST_F(RuntimeTest, HostConsumersGetZeroCopyHandles) {
  WorkerGroup group(&system_, {sim::DeviceId::Cpu(1)}, Recorder(), nullptr, 8,
                    0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  Drive(edge, group, 2);
  // Socket-0 blocks consumed by socket-1 worker without a move (coherent host).
  const sim::MemNodeId src = system_.topology().socket(0).mem;
  for (const auto& msg : log_.by_instance[0]) {
    EXPECT_EQ(static_cast<sim::MemNodeId>(msg.cols[0].ready_at), src);
  }
}

TEST_F(RuntimeTest, LoadBalanceKeepsGpuResidentBlocksLocal) {
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(0), sim::DeviceId::Gpu(1)},
                    Recorder(), nullptr, 8, 0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kLoadBalance;
  Edge edge(&system_, opts, group.instance_ptrs());

  group.Start({});
  edge.AddProducer();
  // Blocks already resident on gpu1 must route to gpu1, never gpu0.
  const sim::MemNodeId gpu1 = system_.topology().gpu(1).mem;
  for (int i = 0; i < 6; ++i) {
    memory::Block* block = system_.blocks().Acquire(gpu1, gpu1);
    DataMsg msg;
    msg.rows = 1;
    memory::BlockHandle h;
    h.block = block;
    h.rows = 1;
    h.bytes = 8;
    msg.cols.push_back(h);
    edge.Push(std::move(msg), system_.topology().socket(0).mem);
  }
  edge.CloseProducer();
  group.Join();
  EXPECT_EQ(log_.by_instance[0].size(), 0u);
  EXPECT_EQ(log_.by_instance[1].size(), 6u);
  system_.blocks().FlushReleases();
}

TEST_F(RuntimeTest, MemMoveGpuToGpuStagesThroughHost) {
  // No peer access on this server: gpu0-resident blocks consumed by gpu1 hop
  // through the source GPU's host socket (two DMA legs, §3.2).
  WorkerGroup group(&system_, {sim::DeviceId::Gpu(1)}, Recorder(), nullptr, 8,
                    0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kRoundRobin;
  opts.mem_move = true;
  Edge edge(&system_, opts, group.instance_ptrs());

  group.Start({});
  edge.AddProducer();
  const sim::MemNodeId gpu0 = system_.topology().gpu(0).mem;
  memory::Block* block = system_.blocks().Acquire(gpu0, gpu0);
  DataMsg msg;
  msg.rows = 4;
  memory::BlockHandle h;
  h.block = block;
  h.rows = 4;
  h.bytes = 16;
  msg.cols.push_back(h);
  edge.Push(std::move(msg), system_.topology().socket(0).mem);
  edge.CloseProducer();
  group.Join();

  ASSERT_EQ(log_.by_instance[0].size(), 1u);
  EXPECT_EQ(static_cast<sim::MemNodeId>(log_.by_instance[0][0].cols[0].ready_at),
            system_.topology().gpu(1).mem);
  // Two legs in virtual time: strictly more than one link's transfer.
  const auto& cm = system_.topology().cost_model();
  EXPECT_GT(log_.by_instance[0][0].ready_at, 2 * cm.dma_latency);
  system_.blocks().FlushReleases();
  EXPECT_EQ(system_.blocks().manager(gpu0).in_use(), 0u);
  EXPECT_EQ(system_.blocks().manager(system_.topology().gpu(1).mem).in_use(), 0u);
}

TEST_F(RuntimeTest, ReleaseMsgBlocksSkipsForeignBlocks) {
  memory::Block foreign;  // table-resident: owner == nullptr
  foreign.node = system_.topology().socket(0).mem;
  DataMsg msg;
  memory::BlockHandle h;
  h.block = &foreign;
  msg.cols.push_back(h);
  ReleaseMsgBlocks(&system_, msg, system_.topology().socket(0).mem);  // no crash
  EXPECT_TRUE(msg.cols.empty());
}

TEST_F(RuntimeTest, SourceDriverSlicesChunksIntoBlocks) {
  storage::Table* t = system_.catalog().CreateTable("src");
  storage::Column* c = t->AddColumn("c", storage::ColType::kInt32);
  for (int i = 0; i < 1000; ++i) c->Append(i);
  ASSERT_TRUE(t->Place(system_.HostNodes(), &system_.memory()).ok());

  WorkerGroup group(&system_, {sim::DeviceId::Cpu(0)}, Recorder(), nullptr, 8,
                    0.0);
  Edge::Options opts;
  opts.policy = Edge::Policy::kRoundRobin;
  Edge edge(&system_, opts, group.instance_ptrs());
  group.Start({});
  SourceDriver source(&system_, t, {0}, /*block_rows=*/128, &edge, 0.0);
  source.Start();
  source.Join();
  group.Join();

  // 2 chunks of 500 rows -> per chunk: 3x128 + 1x116.
  uint64_t total = 0;
  for (const auto& msg : log_.by_instance[0]) total += msg.rows;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(log_.by_instance[0].size(), 8u);
}

TEST_F(RuntimeTest, InstanceClockMonotone) {
  WorkerInstance inst(0, sim::DeviceId::Cpu(0), &system_, 4);
  inst.set_clock(1.0);
  inst.AdvanceTo(0.5);  // no-op backwards
  EXPECT_DOUBLE_EQ(inst.clock(), 1.0);
  inst.AdvanceTo(2.0);
  EXPECT_DOUBLE_EQ(inst.clock(), 2.0);
}

TEST_F(RuntimeTest, BacklogUsesPriorUntilEmaWarm) {
  WorkerInstance inst(0, sim::DeviceId::Cpu(0), &system_, 4);
  inst.set_clock(1.0);
  inst.NoteEnqueued();
  inst.NoteEnqueued();
  EXPECT_DOUBLE_EQ(inst.EstimatedBacklog(0.25), 1.5);
  inst.NoteBlockCost(0.1);  // observed cost replaces the prior
  EXPECT_DOUBLE_EQ(inst.EstimatedBacklog(0.25), 1.2);
}

TEST_F(RuntimeTest, HtRegistryKeyedByQueryJoinAndUnit) {
  HtRegistry hts;
  auto& mm = system_.memory().manager(0);
  jit::JoinHashTable* a = hts.Create(7, 0, sim::DeviceId::Cpu(0), &mm, 16, 0);
  jit::JoinHashTable* b = hts.Create(7, 0, sim::DeviceId::Gpu(0), &mm, 16, 0);
  jit::JoinHashTable* c = hts.Create(7, 1, sim::DeviceId::Cpu(0), &mm, 16, 0);
  // Same (join, unit) under a different query id: a disjoint namespace, not a
  // duplicate-table crash — the concurrent-queries collision case.
  jit::JoinHashTable* d = hts.Create(8, 0, sim::DeviceId::Cpu(0), &mm, 16, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(hts.Get(7, 0, sim::DeviceId::Cpu(0)), a);
  EXPECT_EQ(hts.Get(7, 1, sim::DeviceId::Cpu(0)), c);
  EXPECT_EQ(hts.Get(8, 0, sim::DeviceId::Cpu(0)), d);
  hts.NoteBuildDone(7, 0.5);
  hts.NoteBuildDone(7, 0.3);
  hts.NoteBuildDone(8, 0.9);
  EXPECT_DOUBLE_EQ(hts.build_done(7), 0.5);   // per-query watermark
  EXPECT_DOUBLE_EQ(hts.build_done(8), 0.9);
  EXPECT_EQ(hts.NumTables(7), 3);
  hts.DropQuery(7);
  EXPECT_EQ(hts.NumTables(7), 0);
  EXPECT_DOUBLE_EQ(hts.build_done(7), 0.0);
  EXPECT_EQ(hts.Get(8, 0, sim::DeviceId::Cpu(0)), d);  // other queries intact
}

}  // namespace
}  // namespace hetex::core
