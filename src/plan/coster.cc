#include "plan/coster.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "plan/stages.h"

namespace hetex::plan {

namespace {

using Kind = HetOpNode::Kind;

/// Micro-op estimate of evaluating an expression once (one VM op per node).
double ExprOps(const ExprPtr& e) {
  if (e == nullptr) return 0;
  if (e->kind() != Expr::Kind::kBin) return 1;
  return 1 + ExprOps(e->lhs()) + ExprOps(e->rhs());
}

/// Fraction of `t`'s sampled staging rows satisfying `filter`; `fallback` when
/// the sample is unavailable (dropped staging, missing columns).
double SampleSelectivity(const storage::Table& t, const ExprPtr& filter,
                         double fallback) {
  if (filter == nullptr) return 1.0;
  std::set<std::string> cols;
  filter->CollectColumns(&cols);
  for (const auto& c : cols) {
    if (t.FindColumn(c) < 0) return fallback;
  }
  uint64_t hits = 0;
  const uint64_t sampled = t.SampleRows(4096, [&](uint64_t r) {
    const RowGetter row = [&](const std::string& name) {
      return t.column(name).At(r);
    };
    if (filter->Eval(row) != 0) ++hits;
  });
  if (sampled == 0) return fallback;
  // Clamp away from exactly zero: a sample miss is not proof of emptiness.
  const double sel = static_cast<double>(hits) / static_cast<double>(sampled);
  return std::max(sel, 0.5 / static_cast<double>(sampled));
}

uint64_t CeilDiv(uint64_t a, uint64_t b) { return b == 0 ? 0 : (a + b - 1) / b; }

/// Row count for cardinality estimation: staging rows, falling back to the
/// placed chunk totals when staging was dropped (DropStaging keeps the placed
/// data — and its row counts — intact).
uint64_t TableRows(const storage::Table& t) {
  if (t.rows() > 0) return t.rows();
  uint64_t placed = 0;
  for (const auto& chunk : t.chunks()) placed += chunk.rows;
  return placed;
}

// ---------------------------------------------------------------------------
// Per-tuple work profiles, converted to CostStats for CostModel::WorkCost.
// ---------------------------------------------------------------------------

struct Profile {
  double ops = 0;
  double near = 0, mid = 0, far = 0;
  double atomics = 0;
  double bytes_read = 0, bytes_written = 0;

  void AddAccess(const sim::CostModel& cm, uint64_t region_bytes, double p) {
    switch (cm.RandomAccessClass(region_bytes)) {
      case 0: near += p; break;
      case 1: mid += p; break;
      default: far += p; break;
    }
  }

  sim::CostStats Scale(double rows) const {
    sim::CostStats s;
    s.tuples = static_cast<uint64_t>(std::llround(rows));
    s.ops = static_cast<uint64_t>(std::llround(ops * rows));
    s.near_accesses = static_cast<uint64_t>(std::llround(near * rows));
    s.mid_accesses = static_cast<uint64_t>(std::llround(mid * rows));
    s.far_accesses = static_cast<uint64_t>(std::llround(far * rows));
    s.atomics = static_cast<uint64_t>(std::llround(atomics * rows));
    s.bytes_read = static_cast<uint64_t>(std::llround(bytes_read * rows));
    s.bytes_written = static_cast<uint64_t>(std::llround(bytes_written * rows));
    return s;
  }
};

/// One instance's pricing inputs for a stage.
struct InstanceCost {
  sim::DeviceId dev;             ///< the instance's device unit
  sim::VTime block_time = 0;     ///< per-block completion (compute/transfer max)
  sim::VTime transfer_time = 0;  ///< per-block interconnect share (diagnostic)
  int link = -1;                 ///< link the per-block transfer occupies
  uint64_t blocks = 0;           ///< assigned by the distribution model
};

/// Distributes `total_blocks` over `insts` under the router policy and returns
/// the stage completion time (max per-instance finish). `per_unit` mirrors
/// Edge::Options::broadcast_per_unit: a broadcast reaches every unit once, and
/// the instances sharing a unit's replica take its blocks in rotation.
sim::VTime DistributeBlocks(RouterPolicy policy, uint64_t total_blocks,
                            std::vector<InstanceCost>* insts,
                            bool per_unit = false) {
  const size_t n = insts->size();
  if (n == 0 || total_blocks == 0) return 0;
  switch (policy) {
    case RouterPolicy::kBroadcast: {
      std::map<std::pair<int, int>, std::vector<InstanceCost*>> replicas;
      for (size_t i = 0; i < n; ++i) {
        InstanceCost& ic = (*insts)[i];
        const std::pair<int, int> key =
            per_unit ? std::make_pair(static_cast<int>(ic.dev.type), ic.dev.index)
                     : std::make_pair(-1, static_cast<int>(i));
        replicas[key].push_back(&ic);
      }
      for (auto& [key, members] : replicas) {
        const uint64_t k = members.size();
        for (uint64_t m = 0; m < k; ++m) {
          members[m]->blocks = total_blocks / k + (m < total_blocks % k ? 1 : 0);
        }
      }
      break;
    }
    case RouterPolicy::kLoadBalance: {
      // Greedy least-finish-time, the analytic analogue of the runtime's
      // virtual-time backlog balancing. Chunk very large block counts so the
      // loop stays bounded.
      const uint64_t chunk = std::max<uint64_t>(1, total_blocks / 8192);
      std::vector<sim::VTime> finish(n, 0);
      for (uint64_t b = 0; b < total_blocks; b += chunk) {
        const uint64_t k = std::min(chunk, total_blocks - b);
        size_t best = 0;
        for (size_t i = 1; i < n; ++i) {
          if (finish[i] + (*insts)[i].block_time <
              finish[best] + (*insts)[best].block_time) {
            best = i;
          }
        }
        finish[best] += static_cast<double>(k) * (*insts)[best].block_time;
        (*insts)[best].blocks += k;
      }
      break;
    }
    case RouterPolicy::kRoundRobin:
    case RouterPolicy::kHash:
    case RouterPolicy::kUnion:
      // Rotation: instance i receives every n-th block.
      for (size_t i = 0; i < n; ++i) {
        (*insts)[i].blocks =
            total_blocks / n + (i < total_blocks % n ? 1 : 0);
      }
      break;
  }
  sim::VTime done = 0;
  for (const auto& i : *insts) {
    done = sim::MaxT(done, static_cast<double>(i.blocks) * i.block_time);
  }
  return done;
}

}  // namespace

std::string CardinalityEstimate::ToString() const {
  std::ostringstream os;
  os << "fact=" << fact_rows << " sel=" << fact_selectivity;
  for (size_t j = 0; j < build_rows.size(); ++j) {
    os << " join" << j << "=" << build_rows[j] << "/" << build_input_rows[j];
  }
  os << " out=" << output_rows;
  return os.str();
}

std::string CostEstimate::ToString() const {
  std::ostringstream os;
  os << "total=" << total << " (init=" << init << " build=" << build
     << " probe=" << probe << " xfer=" << transfer << " gather=" << gather
     << ")";
  return os.str();
}

CardinalityEstimate EstimateCardinalities(const QuerySpec& spec,
                                          const storage::Catalog& catalog) {
  CardinalityEstimate c;
  const storage::Table* fact = catalog.Get(spec.fact_table);
  c.fact_rows = fact != nullptr ? std::max<uint64_t>(1, TableRows(*fact)) : 1;
  c.fact_selectivity =
      fact != nullptr ? SampleSelectivity(*fact, spec.fact_filter, 1.0) : 1.0;

  double cumulative = c.fact_selectivity;
  for (const JoinSpec& join : spec.joins) {
    const storage::Table* build = catalog.Get(join.build_table);
    uint64_t input = build != nullptr && TableRows(*build) > 0
                         ? TableRows(*build)
                         : std::max<uint64_t>(1, join.build_rows_estimate);
    double fallback = join.build_rows_estimate > 0
                          ? std::min(1.0, static_cast<double>(
                                              join.build_rows_estimate) /
                                              static_cast<double>(input))
                          : 1.0;
    const double sel = build != nullptr
                           ? SampleSelectivity(*build, join.build_filter, fallback)
                           : fallback;
    const uint64_t filtered = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(sel * static_cast<double>(input))));
    c.build_input_rows.push_back(input);
    c.build_rows.push_back(filtered);
    // FK uniformity of the star schema: a fact row's key hits each distinct
    // build key with equal probability, so the expected output multiplier is
    // filtered rows / distinct keys. For unique-key dimensions this is the
    // survival fraction; duplicate-key builds correctly predict fan-out > 1
    // (distinct comes from the column stats; row count is the fallback).
    uint64_t key_domain = input;
    if (build != nullptr) {
      const int key_idx = build->FindColumn(join.build_key);
      if (key_idx >= 0) {
        const storage::ColumnStats key_stats = build->column_stats(key_idx);
        if (key_stats.sampled > 0 && key_stats.distinct > 0) {
          key_domain = key_stats.distinct;
        }
      }
    }
    constexpr double kMaxFanout = 1024.0;  // runaway-estimate guard
    const double s = std::min(
        kMaxFanout, static_cast<double>(filtered) / static_cast<double>(key_domain));
    c.join_selectivities.push_back(s);
    cumulative *= s;
  }
  c.output_rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(cumulative * static_cast<double>(c.fact_rows))));
  return c;
}

PlanCoster::PlanCoster(const QuerySpec& spec, const storage::Catalog& catalog,
                       const sim::Topology& topo, Options options)
    : spec_(&spec),
      catalog_(&catalog),
      topo_(&topo),
      options_(options),
      cards_(EstimateCardinalities(spec, catalog)) {}

sim::VTime RouteSeconds(const sim::Topology& topo, sim::MemNodeId src,
                        sim::MemNodeId dst, double bytes, uint64_t cols,
                        bool pageable, int* last_link) {
  sim::VTime t = 0;
  int last = -1;
  for (const sim::Hop& hop : topo.Route(src, dst)) {
    const sim::Topology::Link& link = topo.link(hop.link);
    const double setups = link.kind == sim::LinkKind::kInterSocket
                              ? 1.0
                              : static_cast<double>(cols);
    t += setups * link.server.latency() +
         topo.TransferSeconds(hop.link, bytes, pageable && last < 0);
    last = hop.link;
  }
  if (last_link != nullptr) *last_link = last;
  return t;
}

Result<CostEstimate> PlanCoster::Cost(const HetPlan& plan) const {
  const sim::CostModel& cm = topo_->cost_model();
  const Result<StagePartition> stages = PartitionSpans(plan);
  if (!stages.ok()) return stages.status();

  CostEstimate est;
  for (const auto& n : plan.nodes) {
    if (n.kind == Kind::kRouter) {
      est.init = sim::MaxT(est.init, n.init_latency);
    }
  }

  // --- Schema-derived widths. Fact columns a fused scan reads; the packed
  // wire columns a split plan ships between stages (8-byte registers).
  const storage::Table* fact = catalog_->Get(spec_->fact_table);
  std::set<std::string> payloads;
  for (const auto& join : spec_->joins) {
    for (const auto& p : join.payload) payloads.insert(p);
  }
  auto fact_col_set = [&](bool include_filter) {
    std::set<std::string> cols;
    if (include_filter && spec_->fact_filter != nullptr) {
      spec_->fact_filter->CollectColumns(&cols);
    }
    for (const auto& join : spec_->joins) cols.insert(join.probe_key);
    for (const auto& agg : spec_->aggs) {
      if (agg.value != nullptr) agg.value->CollectColumns(&cols);
    }
    for (const auto& g : spec_->group_by) g->CollectColumns(&cols);
    std::set<std::string> out;
    for (const auto& c : cols) {
      if (payloads.count(c) > 0) continue;
      if (fact == nullptr || fact->FindColumn(c) >= 0) out.insert(c);
    }
    return out;
  };
  const std::set<std::string> scan_cols = fact_col_set(/*include_filter=*/true);
  const std::set<std::string> wire_cols = fact_col_set(/*include_filter=*/false);
  double scan_width = 0;
  for (const auto& c : scan_cols) {
    scan_width += fact != nullptr && fact->FindColumn(c) >= 0
                      ? fact->column(c).width()
                      : 8;
  }
  const double wire_width = 8.0 * static_cast<double>(wire_cols.size());

  // --- Hash-table footprints (the formula the compiler stamps access size
  // classes from).
  auto ht_bytes = [&](size_t j) -> uint64_t {
    if (j >= spec_->joins.size()) return 1;
    const JoinSpec& join = spec_->joins[j];
    return join.HtBytes(join.HtCapacity(
        j < cards_.build_input_rows.size() ? cards_.build_input_rows[j] : 1));
  };
  const uint64_t n_aggs = spec_->aggs.size();
  const uint64_t agg_ht_bytes =
      spec_->group_by.empty() ? 0 : spec_->expected_groups * 2 * (8 + 8 * n_aggs);

  const double filter_ops = ExprOps(spec_->fact_filter);
  double agg_value_ops = 0;
  for (const auto& agg : spec_->aggs) agg_value_ops += ExprOps(agg.value) + 1;
  double group_key_ops = 0;
  for (const auto& g : spec_->group_by) group_key_ops += ExprOps(g) + 2;

  const double total_join_sel = [&] {
    double s = 1.0;
    for (double js : cards_.join_selectivities) s *= js;
    return s;
  }();

  // Per-tuple profile of a probe span. `from_table`: fused scan (filter still
  // to run) vs the packed stage-B input of a split plan (filter already done).
  auto probe_profile = [&](bool from_table) {
    Profile p;
    p.bytes_read = from_table ? scan_width : wire_width;
    double reach = 1.0;
    if (from_table && spec_->fact_filter != nullptr) {
      p.ops += filter_ops + 1;
      reach = cards_.fact_selectivity;
    }
    for (size_t j = 0; j < spec_->joins.size(); ++j) {
      p.ops += reach * 4;  // probe init + loop control
      p.AddAccess(cm, ht_bytes(j), reach);
      const double s =
          j < cards_.join_selectivities.size() ? cards_.join_selectivities[j] : 1;
      reach *= s;
      if (!spec_->joins[j].payload.empty()) {
        p.ops += reach * (1 + static_cast<double>(spec_->joins[j].payload.size()));
        p.AddAccess(cm, ht_bytes(j), reach);
      }
    }
    if (spec_->group_by.empty()) {
      p.ops += reach * agg_value_ops;
    } else {
      p.ops += reach * (group_key_ops + agg_value_ops + 1);
      p.AddAccess(cm, agg_ht_bytes, reach);
    }
    return p;
  };

  auto filter_stage_profile = [&] {
    Profile p;
    p.bytes_read = scan_width;
    p.ops += filter_ops + 1;
    const double survivors = cards_.fact_selectivity;
    p.ops += survivors * (2 + static_cast<double>(wire_cols.size()));
    p.bytes_written = survivors * wire_width;
    return p;
  };

  // `in_width` / `n_cols`: the build columns a block carries (what a
  // mem-move transfers).
  auto build_profile = [&](size_t j, double* in_width, uint64_t* n_cols) {
    Profile p;
    const JoinSpec* join = j < spec_->joins.size() ? &spec_->joins[j] : nullptr;
    *in_width = 8;
    *n_cols = 1;
    double sel = 1.0;
    double payload = 0;
    p.bytes_read = *in_width;
    if (join != nullptr) {
      const storage::Table* t = catalog_->Get(join->build_table);
      auto width = [&](const std::string& c) -> double {
        return t != nullptr && t->FindColumn(c) >= 0 ? t->column(c).width() : 8;
      };
      std::set<std::string> filter_cols;
      if (join->build_filter != nullptr) {
        join->build_filter->CollectColumns(&filter_cols);
      }
      std::set<std::string> cols = filter_cols;
      cols.insert(join->build_key);
      for (const auto& c : join->payload) cols.insert(c);
      sel = j < cards_.join_selectivities.size() ? cards_.join_selectivities[j] : 1;
      // The pipeline loads the filter's columns for every row and the key and
      // payload columns only for the rows that pass it.
      *in_width = 0;
      p.bytes_read = 0;
      for (const auto& c : cols) {
        *in_width += width(c);
        p.bytes_read += filter_cols.count(c) > 0 ? width(c) : sel * width(c);
      }
      *n_cols = cols.size();
      p.ops += ExprOps(join->build_filter) + 1;
      payload = static_cast<double>(join->payload.size());
    }
    // Each insert writes its entry (key, chain link, payload) — the bytes the
    // runtime's kHtInsert charges.
    p.bytes_written = sel * (2 + payload) * sizeof(int64_t);
    p.ops += sel * 3;
    p.AddAccess(cm, ht_bytes(j), sel);
    p.atomics += sel;
    return p;
  };

  // --- Instance pricing under the fluid bandwidth-share model.
  auto socket_backlog = [&](int s) {
    return s < static_cast<int>(options_.socket_backlog_workers.size())
               ? std::max(0, options_.socket_backlog_workers[s])
               : 0;
  };

  // Fraction of a source table's rows resident on each memory node — every
  // fraction is priced along its Topology::Route to the consuming instance.
  auto node_fractions = [&](const storage::Table* t) {
    std::map<sim::MemNodeId, double> frac;
    if (t == nullptr || !t->placed()) return frac;
    uint64_t total = 0;
    for (const auto& chunk : t->chunks()) total += chunk.rows;
    if (total == 0) return frac;
    for (const auto& chunk : t->chunks()) {
      frac[chunk.node] +=
          static_cast<double>(chunk.rows) / static_cast<double>(total);
    }
    return frac;
  };

  // `phase_workers`: the per-socket CPU workers of the whole execution phase
  // the stage runs in (the build phase's divisor); null = the stage's own.
  auto stage_instances = [&](const PlanStage& stage, const Profile& profile,
                             uint64_t block_rows, double in_width,
                             uint64_t cols,
                             const storage::Table* src_table,
                             const std::map<int, int>* phase_workers = nullptr) {
    std::vector<InstanceCost> out;
    // CPU workers share their socket's DRAM bandwidth — with this candidate's
    // own workers and with every other in-flight session's (the runtime's
    // cross-session fluid-share divisor).
    std::map<int, int> socket_workers =
        phase_workers != nullptr ? *phase_workers : CpuWorkersPerSocket(stage);
    cols = std::max<uint64_t>(1, cols);
    const sim::CostStats block_stats =
        profile.Scale(static_cast<double>(block_rows));
    const std::map<sim::MemNodeId, double> src_frac = node_fractions(src_table);
    const double block_bytes = static_cast<double>(block_rows) * in_width;
    // An unpinned source table transfers at the pageable DMA rate, exactly as
    // the runtime's DMA engine charges its blocks.
    const bool pageable =
        src_table != nullptr && src_table->placed() && !src_table->pinned();
    // Load-balance routers pin GPU-resident blocks to their local GPU when
    // that GPU is among the consumers — those fractions never travel, and no
    // other instance ever receives them. Credit the route accordingly.
    const RouterPolicy pol = stage.router >= 0
                                 ? plan.node(stage.router).policy
                                 : RouterPolicy::kRoundRobin;
    std::vector<char> gpu_inst(static_cast<size_t>(topo_->num_gpus()), 0);
    for (const auto& dev : stage.instances) {
      if (dev.is_gpu() && dev.index < topo_->num_gpus()) {
        gpu_inst[static_cast<size_t>(dev.index)] = 1;
      }
    }
    auto lb_pinned = [&](int src_gpu) {
      return pol == RouterPolicy::kLoadBalance && src_gpu >= 0 &&
             src_gpu < topo_->num_gpus() &&
             gpu_inst[static_cast<size_t>(src_gpu)] != 0;
    };
    // Prices every source fraction along its Topology::Route to `dev`'s
    // memory (blocks with no placed source are packed in the host memory of
    // the instance's socket) and charges `ic` the transfer share; the
    // instance's link is the last hop of whichever route carries the most.
    auto route_sources = [&](sim::DeviceId dev, InstanceCost* ic) {
      const bool on_topology = dev.is_gpu() ? dev.index < topo_->num_gpus()
                                            : dev.index < topo_->num_sockets();
      if (!on_topology) return;
      const sim::MemNodeId dst = topo_->LocalMemNode(dev);
      std::map<int, double> by_link;
      auto route = [&](sim::MemNodeId node, double f) {
        const sim::Topology::MemNode& mn = topo_->mem_node(node);
        if (mn.is_gpu && lb_pinned(mn.owner.index)) return;
        int link = -1;
        const sim::VTime t = f * RouteSeconds(*topo_, node, dst, block_bytes,
                                              cols, pageable, &link);
        if (link < 0) return;
        ic->transfer_time += t;
        by_link[link] += t;
      };
      if (src_frac.empty()) route(topo_->socket(topo_->HostSocketOf(dev)).mem, 1.0);
      for (const auto& [node, f] : src_frac) route(node, f);
      for (const auto& [link, t] : by_link) {
        if (ic->link < 0 || t > by_link[ic->link]) ic->link = link;
      }
    };
    for (const auto& b : stage.branches) {
      for (const auto& dev : b.instances) {
        InstanceCost ic;
        ic.dev = dev;
        if (dev.is_cpu()) {
          const int divisor =
              socket_workers[dev.index] + socket_backlog(dev.index);
          const double bw =
              std::min(cm.cpu_core_bw, cm.cpu_socket_bw / divisor);
          ic.block_time = cm.WorkCost(block_stats, cm.cpu, bw);
          // Another socket's DRAM crosses the inter-socket link, a
          // GPU-resident fraction is a device->host DMA.
          route_sources(dev, &ic);
        } else if (b.uva) {
          // UVA kernel: its streamed bytes occupy the PCIe link exactly like
          // DMA (the runtime reserves them on the link BandwidthServer), so
          // the link share of the block time is real, steerable occupancy.
          const sim::VTime transfer =
              cm.BandwidthBytes(block_stats, cm.gpu) / cm.pcie_bw;
          const sim::VTime compute = cm.ComputeTime(block_stats, cm.gpu);
          ic.transfer_time = transfer;
          if (dev.index < topo_->num_gpus()) {
            ic.link = topo_->PcieLinkOf(dev.index);
          }
          ic.block_time =
              cm.kernel_launch_latency + sim::MaxT(compute, transfer);
        } else {
          ic.block_time = cm.kernel_launch_latency +
                          cm.WorkCost(block_stats, cm.gpu, cm.gpu_mem_bw);
          // Mem-move stages each block into the GPU: host DRAM is one PCIe
          // hop, a peer GPU one NVLink hop (or two staged PCIe hops), local
          // GPU memory is free.
          if (b.gpu_entry) route_sources(dev, &ic);
        }
        ic.block_time = sim::MaxT(ic.block_time, ic.transfer_time);
        out.push_back(ic);
      }
    }
    return out;
  };

  auto stage_policy = [&](const PlanStage& stage) {
    return stage.router >= 0 ? plan.node(stage.router).policy
                             : RouterPolicy::kRoundRobin;
  };
  auto stage_control = [&](const PlanStage& stage) {
    return stage.router >= 0 ? plan.node(stage.router).control_cost : 0.0;
  };

  // --- Shared-link accounting. Every interconnect link — PCIe, GPU peer and
  // inter-socket — is a serially-shared resource: DMA demand from
  // concurrently-running stages (stage-A input DMA and stage-B wire DMA of a
  // split plan land on the same link) serializes, so a phase can never finish
  // before its links drained their total occupancy — plus whatever backlog
  // other in-flight queries queued there (the scheduler's load signal).
  const int n_links = topo_->num_links();
  std::vector<double> build_link_busy(n_links, 0.0);
  std::vector<double> fact_link_busy(n_links, 0.0);
  auto link_backlog = [&](int l) {
    return l < static_cast<int>(options_.link_backlog.size())
               ? options_.link_backlog[l]
               : 0.0;
  };
  auto add_link_busy = [](std::vector<double>* busy,
                          const std::vector<InstanceCost>& insts) {
    for (const auto& ic : insts) {
      if (ic.link >= 0 && ic.link < static_cast<int>(busy->size())) {
        (*busy)[ic.link] += static_cast<double>(ic.blocks) * ic.transfer_time;
      }
    }
  };

  // ------------------------------------------------------------------ builds
  // Every build stage streams at once: one divisor over all of them.
  std::vector<const PlanStage*> build_phase;
  for (const PlanStage& stage : stages->build_stages) build_phase.push_back(&stage);
  const std::map<int, int> build_workers = CpuWorkersPerSocket(build_phase);
  for (const PlanStage& stage : stages->build_stages) {
    const size_t j = stage.join_id >= 0 ? static_cast<size_t>(stage.join_id) : 0;
    const uint64_t rows =
        j < cards_.build_input_rows.size() ? cards_.build_input_rows[j] : 1;
    const HetOpNode& seg = plan.node(stage.segmenter);
    const storage::Table* src_table = catalog_->Get(seg.table);
    const uint64_t block_rows = ScanBlockRows(stage, seg, src_table, *topo_,
                                              options_.pack_block_rows);
    const uint64_t blocks = std::max<uint64_t>(1, CeilDiv(rows, block_rows));

    double in_width = 8;
    uint64_t n_cols = 1;
    const Profile profile = build_profile(j, &in_width, &n_cols);
    std::vector<InstanceCost> insts = stage_instances(
        stage, profile, std::min(block_rows, std::max<uint64_t>(1, rows)),
        in_width, n_cols, src_table, &build_workers);
    // Broadcast: every unit consumes the full build stream, split across the
    // unit's instances.
    sim::VTime done = DistributeBlocks(RouterPolicy::kBroadcast, blocks, &insts,
                                       /*per_unit=*/true);
    const sim::VTime source = static_cast<double>(blocks) *
                              (seg.per_block_cost + stage_control(stage));
    done = sim::MaxT(done, source);
    est.build = sim::MaxT(est.build, done);
    add_link_busy(&build_link_busy, insts);
    for (const auto& ic : insts) {
      est.transfer = sim::MaxT(
          est.transfer, static_cast<double>(ic.blocks) * ic.transfer_time);
    }
  }
  // Concurrent build networks share the links (and queue behind in-flight
  // queries): the phase cannot beat any link's total occupancy.
  for (int l = 0; l < n_links; ++l) {
    if (build_link_busy[l] > 0) {
      est.build = sim::MaxT(est.build, link_backlog(l) + build_link_busy[l]);
    }
  }

  // ------------------------------------------------------------- fact stages
  // Producer→consumer: the source-fed stage is last in the walk order.
  double rows_in = static_cast<double>(cards_.fact_rows);
  bool from_table = true;
  std::vector<double> probe_out_rows;  // per probe instance: surviving rows
  std::vector<sim::VTime> stage_done;  // per stage: throughput-bound completion
  std::vector<sim::VTime> stage_drain; // per stage: one block's traversal (tail)
  sim::VTime latency_constants = 0;

  for (size_t i = stages->fact_stages.size(); i-- > 0;) {
    const PlanStage& stage = stages->fact_stages[i];
    latency_constants += stage.crossing_latency;

    if (stage.role == SpanRole::kGather) {
      // Partial-aggregate merge: one row per group per probe instance (scalar
      // aggregation: one row per instance).
      const double cap = spec_->group_by.empty()
                             ? 1.0
                             : static_cast<double>(spec_->expected_groups);
      double partials = 0;
      for (double r : probe_out_rows) partials += std::min(cap, std::max(r, 1.0));
      if (probe_out_rows.empty()) partials = 1;
      Profile p;
      p.bytes_read = 8.0 * (1 + static_cast<double>(n_aggs));
      p.ops = static_cast<double>(n_aggs) + 2;
      if (!spec_->group_by.empty()) p.AddAccess(cm, agg_ht_bytes, 1);
      const sim::CostStats s = p.Scale(partials);
      est.gather =
          cm.WorkCost(s, cm.cpu, cm.cpu_core_bw) +
          static_cast<double>(probe_out_rows.size()) * stage_control(stage);
      continue;
    }

    const storage::Table* src_table =
        stage.segmenter >= 0 ? catalog_->Get(plan.node(stage.segmenter).table)
                             : nullptr;
    const uint64_t block_rows =
        stage.segmenter >= 0
            ? ScanBlockRows(stage, plan.node(stage.segmenter), src_table, *topo_,
                            options_.pack_block_rows)
            : options_.pack_block_rows;
    uint64_t blocks = CeilDiv(static_cast<uint64_t>(std::llround(rows_in)),
                              block_rows);
    if (stage.segmenter < 0) {
      // Packed producers flush one partial block per instance at Finish.
      uint64_t producer_insts = 0;
      if (i + 1 < stages->fact_stages.size()) {
        producer_insts = stages->fact_stages[i + 1].instances.size();
      }
      blocks += producer_insts;
    }
    blocks = std::max<uint64_t>(1, blocks);

    const Profile profile = stage.role == SpanRole::kFilterStage
                                ? filter_stage_profile()
                                : probe_profile(from_table);
    const double in_width = from_table ? scan_width : wire_width;
    const uint64_t n_cols = from_table ? scan_cols.size() : wire_cols.size();
    const uint64_t rows_per_block = std::max<uint64_t>(
        1, std::min<uint64_t>(block_rows,
                              static_cast<uint64_t>(std::llround(
                                  std::max(1.0, rows_in / blocks)))));
    std::vector<InstanceCost> insts = stage_instances(
        stage, profile, rows_per_block, in_width, n_cols, src_table);
    sim::VTime done = DistributeBlocks(stage_policy(stage), blocks, &insts);

    const double per_block_src =
        stage.segmenter >= 0 ? plan.node(stage.segmenter).per_block_cost : 0.0;
    done = sim::MaxT(done, static_cast<double>(blocks) *
                               (per_block_src + stage_control(stage)));
    stage_done.push_back(done);
    add_link_busy(&fact_link_busy, insts);
    sim::VTime slowest_block = 0;
    for (const auto& ic : insts) {
      slowest_block = sim::MaxT(slowest_block, ic.block_time);
      est.transfer = sim::MaxT(
          est.transfer, static_cast<double>(ic.blocks) * ic.transfer_time);
    }
    stage_drain.push_back(slowest_block);

    // Rows entering the consumer stage / partials entering gather.
    if (stage.role == SpanRole::kFilterStage) {
      rows_in *= cards_.fact_selectivity;
      from_table = false;
    } else {  // probe
      const double survive =
          (from_table ? cards_.fact_selectivity : 1.0) * total_join_sel;
      probe_out_rows.clear();
      for (const auto& ic : insts) {
        probe_out_rows.push_back(static_cast<double>(ic.blocks) *
                                 static_cast<double>(rows_per_block) * survive);
      }
    }
  }

  // Pipelined stages: the phase is bottleneck-bound, plus a drain term — the
  // last block still traverses every non-bottleneck stage after the bottleneck
  // finishes. This is what separates a split plan (extra exchange + stage) from
  // its fused sibling when both are bottlenecked on the same source stage.
  sim::VTime fact_phase = 0;
  size_t bottleneck = 0;
  for (size_t s = 0; s < stage_done.size(); ++s) {
    if (stage_done[s] > fact_phase) {
      fact_phase = stage_done[s];
      bottleneck = s;
    }
  }
  for (size_t s = 0; s < stage_drain.size(); ++s) {
    if (s != bottleneck) fact_phase += stage_drain[s];
  }
  // Pipelined fact stages contend for the links concurrently: the phase is
  // bounded below by each link's serialized DMA occupancy. Cross-query backlog
  // drains while this query's builds run, so only the residual carries over.
  for (int l = 0; l < n_links; ++l) {
    if (fact_link_busy[l] > 0) {
      const double residual = std::max(0.0, link_backlog(l) - est.build);
      fact_phase = sim::MaxT(fact_phase, residual + fact_link_busy[l]);
    }
  }

  est.probe = fact_phase + latency_constants;
  est.total = est.init + est.build + est.probe + est.gather;
  return est;
}

}  // namespace hetex::plan
