#include "core/runtime.h"

#include <algorithm>

#include "common/logging.h"

namespace hetex::core {

WorkerInstance::WorkerInstance(int id, sim::DeviceId device, System* system,
                               size_t channel_capacity, sim::VTime epoch,
                               uint64_t query_id)
    : id_(id),
      device_(device),
      system_(system),
      provider_(system->MakeProvider(device)),
      channel_(channel_capacity) {
  provider_->set_session_epoch(epoch);
  provider_->set_session_id(query_id);
}

Edge::Edge(System* system, Options options, std::vector<WorkerInstance*> consumers)
    : system_(system), options_(options), consumers_(std::move(consumers)) {
  HETEX_CHECK(!consumers_.empty()) << "edge with no consumers";
  if (options_.policy != Policy::kBroadcast) return;
  std::map<int, size_t> unit_replica;
  for (WorkerInstance* c : consumers_) {
    if (options_.broadcast_per_unit) {
      const auto [it, fresh] = unit_replica.emplace(
          HtRegistry::UnitOf(c->device()), replicas_.size());
      if (!fresh) {
        replicas_[it->second].push_back(c);
        continue;
      }
    }
    replicas_.push_back({c});
  }
}

void Edge::CloseProducer() {
  if (producers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (WorkerInstance* c : consumers_) c->channel().Close();
  }
}

namespace {

/// Does `dev` need a mem-move to consume a block on `node`? (kRemotePcie counts:
/// the whole point of mem-move is avoiding PCIe-latency element accesses.)
bool NeedsMove(const sim::Topology& topo, sim::DeviceId dev, sim::MemNodeId node) {
  return topo.CanAccess(dev, node) != sim::MemAccess::kLocal;
}

bool MsgNeedsMove(const sim::Topology& topo, sim::DeviceId dev, const DataMsg& msg) {
  for (const auto& h : msg.cols) {
    if (NeedsMove(topo, dev, h.node())) return true;
  }
  return false;
}

void AddRefMsgBlocks(DataMsg& msg) {
  for (auto& h : msg.cols) {
    if (h.block->owner != nullptr) memory::BlockManager::AddRef(h.block);
  }
}

}  // namespace

void ReleaseMsgBlocks(System* system, DataMsg& msg, sim::MemNodeId holder_node) {
  for (auto& h : msg.cols) {
    if (h.block != nullptr && h.block->owner != nullptr) {
      system->blocks().Release(h.block, holder_node);
    }
  }
  msg.cols.clear();
}

DataMsg Edge::MoveToNode(DataMsg msg, sim::MemNodeId target_node,
                         sim::MemNodeId producer_node) {
  const sim::Topology& topo = system_->topology();
  DataMsg out;
  out.rows = msg.rows;
  out.ready_at = msg.ready_at;
  out.tag = msg.tag;

  // First mem-move failure (staging acquisition, injected DMA fault,
  // cancellation). Once set, remaining columns are skipped and the whole
  // message degrades to an error marker on the failure path below.
  Status fail = Status::OK();

  // One hop: a fresh block on `dst_node` and an async DMA of `src` into it
  // over `link`. Sets `fail` (and returns an invalid handle) on failure.
  auto copy_over_link = [&](const memory::BlockHandle& src,
                            sim::MemNodeId dst_node, int link,
                            sim::VTime earliest, sim::TransferTicket* ticket) {
    memory::BlockHandle moved;
    Status acquire_error = Status::OK();
    memory::Block* dst = system_->blocks().Acquire(
        dst_node, producer_node, &acquire_error,
        options_.control != nullptr ? &options_.control->cancelled : nullptr);
    if (dst == nullptr) {
      fail = std::move(acquire_error);
      return moved;
    }
    HETEX_CHECK(dst->capacity >= src.bytes) << "staging block too small";
    if (sim::FaultInjector& inj = system_->fault(); inj.enabled()) {
      // Fault check precedes the DMA reservation: a failed transfer strands
      // nothing on the shared link timeline.
      Status st = inj.OnDmaTransfer(link);
      if (!st.ok()) {
        system_->blocks().Release(dst, producer_node);
        fail = std::move(st);
        return moved;
      }
    }
    *ticket = system_->dma().Transfer(src.data(), dst->data, src.bytes, link,
                                      earliest, !src.block->pinned,
                                      options_.epoch);
    moved.block = dst;
    moved.bytes = src.bytes;
    moved.rows = src.rows;
    moved.ready_at = ticket->ready_at();
    return moved;
  };

  const sim::DeviceId target_dev = topo.mem_node(target_node).owner;
  for (auto& h : msg.cols) {
    if (!fail.ok()) break;
    if (!NeedsMove(topo, target_dev, h.node())) {
      // Already addressable: forward the handle, no transfer (paper §3.2).
      if (h.block->owner != nullptr) memory::BlockManager::AddRef(h.block);
      out.cols.push_back(h);
      continue;
    }
    // Walk the route hop by hop. An intermediate hop lands in a staging block
    // the next hop reads; the consumer releases it once the transfers are done.
    memory::BlockHandle cur = h;
    sim::TransferTicket ticket;
    sim::VTime earliest = msg.ready_at;
    for (const sim::Hop& hop : topo.Route(h.node(), target_node)) {
      const bool staged = cur.block != h.block;
      if (staged) ticket.Wait();  // functional ordering: this hop reads it
      memory::BlockHandle moved =
          copy_over_link(cur, hop.node, hop.link, earliest, &ticket);
      if (!fail.ok()) {
        if (staged) system_->blocks().Release(cur.block, producer_node);
        break;
      }
      if (staged) out.release_after_wait.push_back(cur.block);
      cur = moved;
      earliest = ticket.ready_at();
    }
    if (!fail.ok()) break;
    out.cols.push_back(cur);
    out.tickets.push_back(ticket);
    if (h.block->owner != nullptr) {
      // The DMA still reads the source: hand a reference to the consumer to
      // release once the transfer completed.
      memory::BlockManager::AddRef(h.block);
      out.release_after_wait.push_back(h.block);
    }
  }
  if (!fail.ok()) {
    // Undo the partial move: wait out any already-scheduled DMAs (their
    // functional memcpys must not scribble into blocks we hand back to the
    // arena), then release everything staged so far plus the original payload.
    // The consumer receives an empty message carrying only the error.
    for (const auto& ticket : out.tickets) ticket.Wait();
    for (memory::Block* b : out.release_after_wait) {
      if (b->owner != nullptr) system_->blocks().Release(b, producer_node);
    }
    out.release_after_wait.clear();
    out.tickets.clear();
    ReleaseMsgBlocks(system_, out, producer_node);
    ReleaseMsgBlocks(system_, msg, producer_node);
    out.error = std::move(fail);
    return out;
  }
  // The producer's own references are no longer needed: the consumer-held
  // references above (moved handles / post-DMA releases) keep everything alive.
  ReleaseMsgBlocks(system_, msg, producer_node);
  return out;
}

void Edge::DeliverTo(WorkerInstance* target, DataMsg msg,
                     sim::MemNodeId producer_node) {
  const sim::Topology& topo = system_->topology();
  if (options_.mem_move && msg.error.ok() &&
      MsgNeedsMove(topo, target->device(), msg)) {
    msg = MoveToNode(std::move(msg), target->node(), producer_node);
  } else if (!options_.mem_move) {
    // UVA-style edge (bare GPU mode): the consumer must at least be able to
    // address the data; it pays PCIe bandwidth while executing.
    for (const auto& h : msg.cols) {
      HETEX_CHECK(topo.CanAccess(target->device(), h.node()) !=
                  sim::MemAccess::kNone)
          << "consumer " << target->device().ToString()
          << " cannot address block on node " << h.node();
    }
  }
  // Cross-socket column reads: a CPU consumer pulling blocks out of another
  // socket's DRAM crosses the inter-socket link (when the topology models
  // one, the route names it). Charged once per delivered block on the shared
  // epoch-anchored timeline, so concurrent sessions queue behind each other
  // on the QPI/UPI hop too.
  if (msg.error.ok() && target->device().is_cpu()) {
    const sim::MemNodeId here = target->node();
    int link = -1;
    uint64_t cross_bytes = 0;
    for (const auto& h : msg.cols) {
      for (const sim::Hop& hop : topo.Route(h.node(), here)) {
        link = hop.link;
        cross_bytes += h.bytes;
      }
    }
    if (cross_bytes > 0) {
      const auto window = system_->topology().link(link).server.Reserve(
          cross_bytes, msg.ready_at, options_.epoch);
      msg.ready_at = sim::MaxT(msg.ready_at, window.end);
    }
  }
  target->NoteEnqueued();
  const bool pushed = target->channel().Push(std::move(msg));
  HETEX_CHECK(pushed) << "push to closed consumer channel";
}

void Edge::Push(DataMsg msg, sim::MemNodeId producer_node) {
  if (options_.control != nullptr && msg.error.ok() &&
      options_.control->cancelled.load(std::memory_order_relaxed)) {
    // Cancelled query: stop moving data, just drop the payload. (Error-marked
    // messages still flow — the terminal status is stamped by the scheduler,
    // but consumers must observe the fault to stop cleanly.) Messages at this
    // point carry no tickets yet; mem-move attaches them after routing.
    ReleaseMsgBlocks(system_, msg, producer_node);
    return;
  }
  msg.ready_at += options_.control_cost + options_.crossing_latency;
  const sim::Topology& topo = system_->topology();

  if (options_.policy == Policy::kBroadcast) {
    // Mem-move owns broadcast (data-flow duplication); the router then routes by
    // target id — from its perspective this is just a hash policy (§3.1). A
    // replica shared by several instances takes each message on one of them,
    // rotated by the edge's message sequence (segmenter-fed edges have a
    // single producer, so the rotation is deterministic).
    const uint64_t seq = rr_next_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      DataMsg copy;
      copy.rows = msg.rows;
      copy.ready_at = msg.ready_at;
      copy.tag = i;  // target id produced by the mem-move
      copy.cols = msg.cols;
      AddRefMsgBlocks(copy);
      const auto& replica = replicas_[i];
      DeliverTo(replica[seq % replica.size()], std::move(copy), producer_node);
    }
    ReleaseMsgBlocks(system_, msg, producer_node);
    return;
  }

  WorkerInstance* target = nullptr;
  switch (options_.policy) {
    case Policy::kRoundRobin: {
      target = consumers_[rr_next_.fetch_add(1, std::memory_order_relaxed) %
                          consumers_.size()];
      break;
    }
    case Policy::kHash: {
      target = consumers_[msg.tag % consumers_.size()];
      break;
    }
    case Policy::kLoadBalance: {
      // GPU-resident blocks go to their local GPU (avoids absurd device->host->
      // device round trips); everything else goes to the least-backlogged
      // consumer in virtual time.
      const sim::MemNodeId node = msg.cols.empty() ? -1 : msg.cols[0].node();
      const bool gpu_resident = node >= 0 && topo.mem_node(node).is_gpu;
      uint64_t msg_bytes = 0;
      for (const auto& h : msg.cols) msg_bytes += h.bytes;
      const sim::CostModel& cm = topo.cost_model();
      double best = 0;
      for (WorkerInstance* c : consumers_) {
        if (gpu_resident && c->node() != node) continue;
        // Bandwidth-based prior: a GPU consumer of non-local data is PCIe-bound;
        // a CPU worker streams at (at best) one core's share of its socket.
        double prior_rate = cm.cpu_core_bw;
        if (c->device().is_gpu()) {
          prior_rate = (node >= 0 && c->node() == node) ? cm.gpu_mem_bw : cm.pcie_bw;
        }
        const double backlog =
            c->EstimatedBacklog(static_cast<double>(msg_bytes) / prior_rate);
        if (target == nullptr || backlog < best) {
          target = c;
          best = backlog;
        }
      }
      if (target == nullptr) target = consumers_[0];
      break;
    }
    case Policy::kBroadcast:
      break;  // handled above
  }
  DeliverTo(target, std::move(msg), producer_node);
}

WorkerGroup::WorkerGroup(System* system, std::vector<sim::DeviceId> devices,
                         ProcessorFactory factory, Edge* out,
                         size_t channel_capacity, sim::VTime initial_clock,
                         sim::VTime epoch, uint64_t query_id,
                         const QueryControl* control)
    : system_(system),
      factory_(std::move(factory)),
      out_(out),
      control_(control),
      initial_clock_(initial_clock) {
  int id = 0;
  for (const auto& dev : devices) {
    instances_.push_back(std::make_unique<WorkerInstance>(
        id++, dev, system, channel_capacity, epoch, query_id));
  }
}

std::vector<WorkerInstance*> WorkerGroup::instance_ptrs() {
  std::vector<WorkerInstance*> out;
  out.reserve(instances_.size());
  for (auto& inst : instances_) out.push_back(inst.get());
  return out;
}

void WorkerGroup::Start(const std::map<int, int>& socket_workers) {
  for (auto& inst : instances_) {
    inst->set_clock(initial_clock_);
    if (inst->device().is_cpu()) {
      const auto it = socket_workers.find(inst->device().index);
      static_cast<jit::CpuProvider&>(inst->provider())
          .set_socket_concurrency(it != socket_workers.end() ? it->second : 1);
    }
    if (out_ != nullptr) out_->AddProducer();
  }
  for (auto& inst : instances_) {
    threads_.emplace_back([this, raw = inst.get()] { RunInstance(*raw); });
  }
}

void WorkerGroup::RunInstance(WorkerInstance& inst) {
  auto processor = factory_(inst);
  processor->Init(inst);
  while (auto msg = inst.channel().Pop()) {
    inst.NoteDequeued();
    for (const auto& ticket : msg->tickets) ticket.Wait();
    for (memory::Block* b : msg->release_after_wait) {
      if (b->owner != nullptr) system_->blocks().Release(b, inst.node());
    }
    msg->release_after_wait.clear();
    // A mem-move failure marker, a cancellation or an expired deadline all put
    // the instance into error-drain mode: ProcessMsg becomes a no-op, the
    // channel keeps draining (so producers never block on backpressure), and
    // Finish's error path runs the usual cleanup.
    if (!msg->error.ok()) inst.NoteError(std::move(msg->error));
    if (control_ != nullptr && inst.error().ok()) {
      inst.NoteError(control_->CheckLive(inst.clock()));
    }
    const sim::VTime before = inst.clock();
    processor->ProcessMsg(inst, *msg);
    inst.NoteBlockCost(inst.clock() - before);
    ReleaseMsgBlocks(system_, *msg, inst.node());
  }
  processor->Finish(inst);
  if (out_ != nullptr) out_->CloseProducer();
}

void WorkerGroup::Join() {
  for (auto& t : threads_) t.join();
  threads_.clear();
  for (auto& inst : instances_) max_end_ = sim::MaxT(max_end_, inst->clock());
}

sim::CostStats WorkerGroup::total_stats() const {
  sim::CostStats total;
  for (const auto& inst : instances_) total.Add(inst->stats());
  return total;
}

SourceDriver::SourceDriver(System* system, const storage::Table* table,
                           std::vector<int> col_indices, uint64_t block_rows,
                           Edge* out, sim::VTime initial_clock,
                           double per_block_cost)
    : system_(system),
      table_(table),
      col_indices_(std::move(col_indices)),
      block_rows_(block_rows),
      out_(out),
      clock_(initial_clock),
      per_block_cost_(per_block_cost) {
  HETEX_CHECK(table_->placed()) << "table " << table_->name() << " not placed";
  HETEX_CHECK(block_rows_ > 0);
}

SourceDriver::~SourceDriver() { Join(); }

void SourceDriver::Start() {
  out_->AddProducer();
  started_ = true;
  thread_ = std::thread([this] { Run(); });
}

void SourceDriver::Join() {
  if (thread_.joinable()) thread_.join();
}

void SourceDriver::Run() {
  const sim::MemNodeId producer_node = system_->topology().socket(0).mem;
  for (const auto& chunk : table_->chunks()) {
    if (control_ != nullptr && !control_->CheckLive(clock_).ok()) break;
    for (uint64_t off = 0; off < chunk.rows; off += block_rows_) {
      if (control_ != nullptr && !control_->CheckLive(clock_).ok()) break;
      const uint64_t rows = std::min(block_rows_, chunk.rows - off);
      DataMsg msg;
      msg.rows = rows;
      msg.cols.reserve(col_indices_.size());
      for (int ci : col_indices_) {
        const auto& col = table_->column(ci);
        foreign_blocks_.emplace_back();
        memory::Block& block = foreign_blocks_.back();
        block.data = chunk.col_data[ci] + off * col.width();
        block.capacity = rows * col.width();
        block.node = chunk.node;
        block.owner = nullptr;
        block.pinned = table_->pinned();
        memory::BlockHandle handle;
        handle.block = &block;
        handle.bytes = rows * col.width();
        handle.rows = rows;
        handle.ready_at = clock_;
        msg.cols.push_back(handle);
      }
      clock_ += per_block_cost_;
      msg.ready_at = clock_;
      out_->Push(std::move(msg), producer_node);
    }
  }
  out_->CloseProducer();
}

}  // namespace hetex::core
