#include "core/graph_builder.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "core/processor.h"

namespace hetex::core {

namespace {

using Kind = plan::HetOpNode::Kind;

Edge::Policy LowerPolicy(plan::RouterPolicy policy) {
  switch (policy) {
    case plan::RouterPolicy::kRoundRobin: return Edge::Policy::kRoundRobin;
    case plan::RouterPolicy::kLoadBalance: return Edge::Policy::kLoadBalance;
    case plan::RouterPolicy::kHash: return Edge::Policy::kHash;
    case plan::RouterPolicy::kBroadcast: return Edge::Policy::kBroadcast;
    // A union funnels every producer into the single downstream instance set;
    // with one consumer per message the rotation is immaterial.
    case plan::RouterPolicy::kUnion: return Edge::Policy::kRoundRobin;
  }
  return Edge::Policy::kRoundRobin;
}

const char* PolicyName(Edge::Policy policy) {
  switch (policy) {
    case Edge::Policy::kRoundRobin: return "round-robin";
    case Edge::Policy::kLoadBalance: return "load-balance";
    case Edge::Policy::kHash: return "hash";
    case Edge::Policy::kBroadcast: return "broadcast";
  }
  return "?";
}

ProcessorFactory FactoryFor(const StageConfig* cfg) {
  return [cfg](WorkerInstance&) { return MakeVmProcessor(cfg); };
}

}  // namespace

int LoweredSpec::TotalInstances() const {
  int total = 0;
  for (const auto& s : build_stages) total += static_cast<int>(s.instances.size());
  for (const auto& s : fact_stages) total += static_cast<int>(s.instances.size());
  return total;
}

int LoweredSpec::TotalEdges() const {
  return static_cast<int>(build_stages.size() + fact_stages.size());
}

std::string LoweredSpec::ToString() const {
  std::ostringstream os;
  os << "lowered graph: " << build_stages.size() << " build stage(s), "
     << fact_stages.size() << " fact stage(s), " << TotalInstances()
     << " instance(s)\n";
  auto print_stage = [&os](const StageSpec& stage, const char* label) {
    os << label << " " << plan::SpanRoleName(stage.role);
    if (stage.role == plan::SpanRole::kBuild) {
      os << " ht[" << stage.join_id << "]";
    }
    os << " x" << stage.instances.size() << " [";
    for (size_t i = 0; i < stage.instances.size(); ++i) {
      os << (i ? " " : "") << stage.instances[i].ToString();
    }
    os << "]\n";
    os << "  edge: policy=" << PolicyName(stage.options.policy)
       << (stage.options.mem_move ? " mem-move" : " no-mem-move")
       << (stage.uva ? " uva" : "");
    if (stage.options.crossing_latency > 0) {
      os << " crossing=" << stage.options.crossing_latency;
    }
    os << " control=" << stage.options.control_cost << "\n";
  };
  for (const auto& stage : build_stages) print_stage(stage, "build stage:");
  for (const auto& stage : fact_stages) print_stage(stage, "fact stage:");
  return os.str();
}

Status GraphBuilder::Analyze() {
  spec_ = LoweredSpec{};
  const plan::HetPlan& plan = *plan_;
  Result<plan::StagePartition> parts = plan::PartitionSpans(plan);
  if (!parts.ok()) return parts.status();
  spec_.channel_capacity = plan.channel_capacity;
  for (const auto& n : plan.nodes) {
    if (n.kind == Kind::kRouter) {
      spec_.init_latency = sim::MaxT(spec_.init_latency, n.init_latency);
    }
  }

  // Lowers one plan stage's exchange to Edge options. Hand-mutated plans can
  // stamp placements the server does not have; surface them as a Status
  // instead of letting provider construction abort.
  const sim::Topology& topo = system_->topology();
  auto lower = [&](plan::PlanStage& stage, std::vector<StageSpec>* out) -> Status {
    for (const auto& dev : stage.instances) {
      const int limit = dev.is_cpu() ? topo.num_sockets() : topo.num_gpus();
      if (dev.index < 0 || dev.index >= limit) {
        return Status::InvalidArgument(
            "placement names device " + dev.ToString() + " but the server has " +
            std::to_string(limit) + " " + (dev.is_cpu() ? "socket(s)" : "GPU(s)"));
      }
    }
    Edge::Options options;
    options.policy = Edge::Policy::kRoundRobin;
    options.control_cost = 0;
    if (stage.router != -1) {
      const plan::HetOpNode& r = plan.node(stage.router);
      options.policy = LowerPolicy(r.policy);
      options.control_cost = r.control_cost;
    }
    // Relational operators are data-location agnostic: every exchange fixes
    // locality on the consumer side unless the plan opted into UVA addressing.
    options.mem_move = !stage.uva;
    options.crossing_latency = stage.crossing_latency;
    out->push_back(StageSpec{std::move(stage), options});
    return Status::OK();
  };
  for (plan::PlanStage& stage : parts->fact_stages) {
    HETEX_RETURN_NOT_OK(lower(stage, &spec_.fact_stages));
  }
  for (plan::PlanStage& stage : parts->build_stages) {
    HETEX_RETURN_NOT_OK(lower(stage, &spec_.build_stages));
    spec_.build_stages.back().options.broadcast_per_unit = true;
  }

  // Broadcast hash joins replicate one table per device unit, built by every
  // instance of that unit's build branch (k instances insert into it). A
  // mutated placement that leaves a probe unit without its replica — or puts
  // two build branches on one unit — must surface as a Status here, not abort
  // inside the HtRegistry at build or probe time.
  std::unordered_map<int, std::unordered_set<int>> build_units;
  for (const StageSpec& stage : spec_.build_stages) {
    auto& units = build_units[stage.join_id];
    for (const auto& branch : stage.branches) {
      std::unordered_set<int> branch_units;
      for (const auto& dev : branch.instances) {
        const int unit = HtRegistry::UnitOf(dev);
        if (branch_units.insert(unit).second && !units.insert(unit).second) {
          return Status::InvalidArgument(
              "join " + std::to_string(stage.join_id) +
              " builds two hash-table replicas on unit " + dev.ToString());
        }
      }
    }
  }
  for (const StageSpec& stage : spec_.fact_stages) {
    std::unordered_set<int> joins;
    for (const auto& branch : stage.branches) {
      for (int id : branch.nodes) {
        if (plan.node(id).kind == Kind::kJoinProbe) {
          joins.insert(plan.node(id).join_id);
        }
      }
    }
    for (int j : joins) {
      for (const auto& dev : stage.instances) {
        if (build_units[j].count(HtRegistry::UnitOf(dev)) == 0) {
          return Status::InvalidArgument(
              "probe instance on " + dev.ToString() + " has no join-" +
              std::to_string(j) +
              " hash-table replica (build placement does not cover its unit)");
        }
      }
    }
  }

  // A UVA edge skips the mem-move for every consumer of the exchange, so its
  // blocks must stay host-addressable: GPU-placed producers would emit
  // device-resident blocks no other unit can address in place. Reject the
  // combination here (hand-mutated uva flags reach this path) instead of
  // aborting inside the router.
  for (size_t i = 0; i + 1 < spec_.fact_stages.size(); ++i) {
    const StageSpec& stage = spec_.fact_stages[i];
    if (!stage.uva || stage.producer_tops.empty()) continue;
    const StageSpec& producer = spec_.fact_stages[i + 1];
    for (const auto& dev : producer.instances) {
      if (dev.is_gpu()) {
        return Status::InvalidArgument(
            "UVA exchange fed by GPU-placed producer " + dev.ToString() +
            ": device-resident blocks cannot be addressed in place");
      }
    }
  }
  return Status::OK();
}

namespace {

/// One instantiated stage: the worker group plus the edge (and possibly the
/// source driver) feeding it. Declaration order matters for destruction.
struct RuntimeStage {
  std::unique_ptr<StageConfig> cfg;
  std::unique_ptr<WorkerGroup> group;
  std::unique_ptr<Edge> edge;
  std::unique_ptr<SourceDriver> source;
};

/// Reserves one execution phase's concurrently-active CPU workers (per
/// socket) as an interval on the cross-session DRAM timelines: the interval
/// opens at the phase's session-local `start` and closes at the modeled end
/// passed to Close(). Closed intervals persist, so any session overlapping
/// this phase *in virtual time* divides its fluid share by these workers —
/// and this query's own shares divide by theirs (see sim::DramServer). If the
/// phase errors out before Close(), the destructor discards the reservation
/// (a phase that never modeled work must not charge future sessions).
class DramPhaseGuard {
 public:
  DramPhaseGuard(sim::Topology* topo, const QuerySession& session,
                 const std::vector<const StageSpec*>& stages, sim::VTime start)
      : topo_(topo), epoch_(session.epoch) {
    for (const StageSpec* stage : stages) {
      for (const auto& dev : stage->instances) {
        if (dev.is_cpu()) workers_[dev.index] += 1;
      }
    }
    for (const auto& [socket, n] : workers_) {
      if (n <= 0) continue;
      tokens_.emplace_back(socket, topo_->socket_dram(socket).Register(
                                       session.query_id, epoch_ + start, n));
    }
  }

  /// The phase's CPU workers per socket.
  const std::map<int, int>& workers() const { return workers_; }

  /// Closes the phase's intervals at session-local `end`.
  void Close(sim::VTime end) {
    for (const auto& [socket, token] : tokens_) {
      topo_->socket_dram(socket).Release(token, epoch_ + end);
    }
    tokens_.clear();
  }

  ~DramPhaseGuard() {
    for (const auto& [socket, token] : tokens_) {
      topo_->socket_dram(socket).Release(token);  // error path: discard
    }
  }
  DramPhaseGuard(const DramPhaseGuard&) = delete;
  DramPhaseGuard& operator=(const DramPhaseGuard&) = delete;

 private:
  sim::Topology* topo_;
  sim::VTime epoch_;
  std::map<int, int> workers_;
  std::vector<std::pair<int, uint64_t>> tokens_;
};

}  // namespace

Status GraphBuilder::CompileFactPipelines(
    QueryCompiler* compiler, std::vector<CompiledPipeline>* out) const {
  // Pipelines compile producer→consumer so a stage can read its producer's emit
  // schema (stage B of split plans reads stage A's surviving columns).
  const int n_fact = static_cast<int>(spec_.fact_stages.size());
  out->assign(n_fact, {});
  for (int i = n_fact - 1; i >= 0; --i) {
    const plan::SpanRole role = spec_.fact_stages[i].role;
    const plan::SpanRole* producer =
        i + 1 < n_fact ? &spec_.fact_stages[i + 1].role : nullptr;
    const std::vector<ColSlot>* upstream = nullptr;
    switch (role) {
      case plan::SpanRole::kProbe:
        if (producer != nullptr) {
          if (*producer != plan::SpanRole::kFilterStage) {
            return Status::Unsupported(
                "probe stage fed by a packed producer whose wire schema the "
                "compiler cannot thread (only filter-stage producers supported)");
          }
          upstream = &(*out)[i + 1].output_cols;
        }
        break;
      case plan::SpanRole::kFilterStage:
        if (producer != nullptr) {
          return Status::Unsupported(
              "filter stage must read its source table directly");
        }
        break;
      case plan::SpanRole::kGather:
        if (producer != nullptr && *producer != plan::SpanRole::kProbe) {
          return Status::Unsupported(
              "gather stage must consume probe partials");
        }
        break;
      case plan::SpanRole::kBuild:
        return Status::Internal("build span on the fact chain");
    }
    (*out)[i] = compiler->CompileSpan(spec_.fact_stages[i], upstream);
  }
  return Status::OK();
}

Status GraphBuilder::Run(QueryCompiler* compiler, QueryResult* result) {
  const plan::HetPlan& plan = *plan_;
  if (spec_.fact_stages.empty()) {
    return Status::Internal("lowered graph has no fact stages (Analyze not run?)");
  }

  // The session anchors this query on the shared virtual timeline: its epoch
  // offsets every reservation on contended resources (PCIe links, GPU
  // streams), its id namespaces the hash tables in the System-shared registry.
  const QuerySession session =
      session_ != nullptr
          ? *session_
          : QuerySession{system_->NextQueryId(), system_->VirtualHorizon()};
  HtRegistry& hts = system_->hts();
  // The namespace only lives for the run; release it on every exit path.
  struct HtNamespaceGuard {
    HtRegistry* hts;
    uint64_t query;
    ~HtNamespaceGuard() { hts->DropQuery(query); }
  } ht_guard{&hts, session.query_id};

  ResultSink sink;
  const sim::VTime init_clock = spec_.init_latency;
  const uint64_t block_bytes = system_->blocks().options().block_bytes;
  const size_t channel_capacity = static_cast<size_t>(spec_.channel_capacity);

  auto session_edge_options = [&](const StageSpec& stage) {
    Edge::Options options = stage.options;
    options.epoch = session.epoch;
    options.control = session.control;
    return options;
  };

  auto make_config = [&](const StageSpec& stage) {
    auto cfg = std::make_unique<StageConfig>();
    cfg->role = stage.role;
    if (stage.role == plan::SpanRole::kGather) cfg->result = &sink;
    cfg->query_id = session.query_id;
    cfg->hts = &hts;
    cfg->programs = &system_->program_cache();
    cfg->block_bytes = block_bytes;
    cfg->allow_uva = stage.uva;
    return cfg;
  };

  // Lifts the first per-instance runtime error (e.g. division by zero) out of
  // a joined worker group.
  auto group_error = [](WorkerGroup& group) {
    for (int i = 0; i < group.size(); ++i) {
      if (!group.instance(i).error().ok()) return group.instance(i).error();
    }
    return Status::OK();
  };

  auto make_source = [&](const StageSpec& stage, const StageConfig& cfg,
                         Edge* edge, sim::VTime clock,
                         std::unique_ptr<SourceDriver>* out) -> Status {
    const plan::HetOpNode& seg = plan.node(stage.segmenter);
    const storage::Table* table = system_->catalog().Get(seg.table);
    if (table == nullptr || !table->placed()) {
      return Status::NotFound("source table missing or unplaced: " + seg.table);
    }
    std::vector<int> indices;
    indices.reserve(cfg.pipeline.input_cols.size());
    for (const auto& slot : cfg.pipeline.input_cols) {
      const int idx = table->FindColumn(slot.name);
      if (idx < 0) {
        // Hand-mutated plans can retarget a segmenter at the wrong table;
        // surface the mismatch instead of aborting inside the scan.
        return Status::InvalidArgument("segmenter table '" + seg.table +
                                       "' lacks pipeline input column '" +
                                       slot.name + "'");
      }
      indices.push_back(idx);
    }
    const uint64_t block_rows = plan::ScanBlockRows(
        stage, seg, table, system_->topology(), block_bytes / 8);
    *out = std::make_unique<SourceDriver>(system_, table, std::move(indices),
                                          block_rows, edge, clock,
                                          seg.per_block_cost);
    (*out)->set_control(session.control);
    return Status::OK();
  };

  // ------------------------------------------------------------------- builds
  //
  // Shared-build promotion (serving layer, off by default): before running the
  // build stages, each join's content key (table + mutation epoch + build
  // predicate + key/payload schema + capacity + unit set) is resolved against
  // the registry's single-flight shared entries. The winner builds normally
  // into its own namespace and publishes; losers attach the published replicas
  // into theirs and skip the build stage entirely, gating their probes on the
  // build's absolute completion epoch instead.
  struct SharedAcq {
    std::string key;
    std::string table;   ///< build table (stale-generation GC grouping)
    uint64_t epoch = 0;  ///< the table's mutation epoch the key embeds
    const StageSpec* stage = nullptr;
    SharedBuildLease lease;
    bool published = false;
  };
  std::vector<SharedAcq> acqs;
  std::vector<const StageSpec*> exec_builds;  // stages this query runs itself
  sim::VTime attach_ready = 0;  // max absolute completion of attached builds

  // Every unpublished build role is failed on exit, success or not: waiters
  // blocked on this query's in-flight shared builds must always wake, and the
  // first of them takes over the build (fault failover — a faulted builder
  // never poisons its attachers).
  struct SharedBuildGuard {
    HtRegistry* hts;
    std::vector<SharedAcq>* acqs;
    ~SharedBuildGuard() {
      for (const SharedAcq& acq : *acqs) {
        if (acq.lease.role == SharedBuildLease::Role::kBuild && !acq.published) {
          hts->FailShared(acq.key);
        }
      }
    }
  } shared_guard{&hts, &acqs};

  const bool share_builds = system_->reuse().shared_builds;
  auto shared_build_key = [&](const StageSpec& stage, SharedAcq* acq) {
    const plan::JoinSpec& j = compiler->spec().joins[stage.join_id];
    const storage::Table* table = system_->catalog().Get(j.build_table);
    acq->table = j.build_table;
    acq->epoch = table != nullptr ? table->mutation_epoch() : 0;
    std::ostringstream os;
    os << j.build_table << "@" << acq->epoch
       << ";bf=" << (j.build_filter != nullptr ? j.build_filter->ToString() : "-")
       << ";bk=" << j.build_key << ";pay=";
    for (size_t i = 0; i < j.payload.size(); ++i) {
      os << (i ? "," : "") << j.payload[i];
    }
    os << ";cap=" << compiler->JoinHtCapacity(stage.join_id)
       << ";w=" << compiler->JoinPayloadWidth(stage.join_id);
    // Exact unit-set match: Analyze() proved the build placement covers every
    // probe unit, so a replica set built for the same units covers them too.
    // Each unit appears once, however many instances built its replica.
    std::set<int> units;
    for (const auto& dev : stage.instances) units.insert(HtRegistry::UnitOf(dev));
    os << ";units=";
    const char* sep = "";
    for (int unit : units) {
      os << sep << unit;
      sep = ",";
    }
    acq->key = os.str();
  };

  // Pass 1 (plan order): compute every shareable stage's content key; stages
  // that cannot share — knob off, or invalid join stamps from hand-mutated
  // plans, which must surface through the execution loop below exactly as
  // without sharing — map to no acquisition.
  std::vector<int> stage_acq;  // per build stage: index into acqs, or -1
  for (const StageSpec& stage : spec_.build_stages) {
    if (!share_builds || stage.join_id < 0 ||
        stage.join_id >= static_cast<int>(compiler->spec().joins.size())) {
      stage_acq.push_back(-1);
      continue;
    }
    SharedAcq acq;
    acq.stage = &stage;
    shared_build_key(stage, &acq);
    stage_acq.push_back(static_cast<int>(acqs.size()));
    acqs.push_back(std::move(acq));
  }

  // Pass 2: acquire in canonical (sorted-key) order. AcquireShared blocks
  // while holding earlier build roles, so two queries whose key sets overlap
  // must claim them along one global total order — plan-order acquisition let
  // opposite-join-order queries hold-and-wait on each other forever. Ties
  // (one query computing the same key twice) keep plan order; the later
  // acquire self-conflicts into a private build.
  {
    std::vector<size_t> order(acqs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return acqs[a].key < acqs[b].key; });
    for (size_t idx : order) {
      SharedAcq& acq = acqs[idx];
      acq.lease = hts.AcquireShared(acq.key, session.query_id, session.control,
                                    acq.table, acq.epoch);
      if (acq.lease.role == SharedBuildLease::Role::kCancelled) {
        // Build roles already won are failed over by shared_guard on return.
        return session.control != nullptr &&
                       session.control->deadline_hit.load(
                           std::memory_order_relaxed)
                   ? Status::DeadlineExceeded(
                         "query deadline expired while waiting on a shared "
                         "hash-table build")
                   : Status::Cancelled("query cancelled");
      }
    }
  }

  // Pass 3 (plan order): attach won replicas and collect the stages this
  // query executes itself — in the exact order the non-shared path uses.
  for (size_t si = 0; si < spec_.build_stages.size(); ++si) {
    const StageSpec& stage = spec_.build_stages[si];
    if (stage_acq[si] < 0) {
      exec_builds.push_back(&stage);
      continue;
    }
    const SharedAcq& acq = acqs[stage_acq[si]];
    switch (acq.lease.role) {
      case SharedBuildLease::Role::kCancelled:
        break;  // unreachable: pass 2 returned
      case SharedBuildLease::Role::kAttach:
        hts.AttachShared(acq.key, session.query_id, stage.join_id);
        attach_ready = sim::MaxT(attach_ready, acq.lease.ready_at);
        ++result->shared_attaches;
        break;
      case SharedBuildLease::Role::kBuild:
        ++result->shared_builds;
        exec_builds.push_back(&stage);
        break;
      case SharedBuildLease::Role::kPrivate:
        exec_builds.push_back(&stage);
        break;
    }
  }

  // The build phase's DRAM interval opens at the modeled build start; it is
  // closed (not discarded) once the probe watermark is known, so the interval
  // [init_clock, probe_start) stays on the timeline for later sessions.
  DramPhaseGuard build_dram(&system_->topology(), session, exec_builds,
                            init_clock);
  {
    std::vector<RuntimeStage> builds;
    for (const StageSpec* stage_ptr : exec_builds) {
      const StageSpec& stage = *stage_ptr;
      // Hand-mutated plans reach here through ExecutePlan: a stamped join id
      // the query does not have must surface as a Status, not a crash.
      if (stage.join_id < 0 ||
          stage.join_id >= static_cast<int>(compiler->spec().joins.size())) {
        return Status::InvalidArgument(
            "build span stamped with join id " +
            std::to_string(stage.join_id) + " but the query has " +
            std::to_string(compiler->spec().joins.size()) + " join(s)");
      }
      // One replica per (join, unit), created before its k builders start.
      std::set<int> units;
      for (const auto& dev : stage.instances) {
        if (!units.insert(HtRegistry::UnitOf(dev)).second) continue;
        hts.Create(session.query_id, stage.join_id, dev,
                   &system_->memory().manager(
                       system_->topology().LocalMemNode(dev)),
                   compiler->JoinHtCapacity(stage.join_id),
                   compiler->JoinPayloadWidth(stage.join_id));
      }
      RuntimeStage rt;
      rt.cfg = make_config(stage);
      rt.cfg->pipeline = compiler->CompileSpan(stage, nullptr);
      rt.group = std::make_unique<WorkerGroup>(
          system_, stage.instances, FactoryFor(rt.cfg.get()), nullptr,
          channel_capacity, init_clock, session.epoch, session.query_id,
          session.control);
      rt.edge = std::make_unique<Edge>(system_, session_edge_options(stage),
                                       rt.group->instance_ptrs());
      Status st = make_source(stage, *rt.cfg, rt.edge.get(), init_clock,
                              &rt.source);
      if (!st.ok()) return st;
      builds.push_back(std::move(rt));
    }
    // Every build worker of the phase streams concurrently: a socket's fluid
    // share divides by all of them, not just one group's.
    for (auto& g : builds) g.group->Start(&build_dram.workers());
    for (auto& g : builds) g.source->Start();
    for (auto& g : builds) g.source->Join();
    for (auto& g : builds) g.group->Join();
    for (auto& g : builds) result->stats.Add(g.group->total_stats());
    for (auto& g : builds) {
      Status st = group_error(*g.group);
      if (!st.ok()) return st;
    }
    // Cooperative cancellation/deadline stops leave cleanly-joined build
    // groups with partial hash tables; those must never be published.
    const bool stopped =
        session.control != nullptr &&
        (session.control->cancelled.load(std::memory_order_relaxed) ||
         session.control->deadline_hit.load(std::memory_order_relaxed));
    if (!stopped) {
      for (SharedAcq& acq : acqs) {
        if (acq.lease.role != SharedBuildLease::Role::kBuild) continue;
        for (size_t i = 0; i < exec_builds.size(); ++i) {
          if (exec_builds[i] != acq.stage) continue;
          hts.PublishShared(acq.key, session.query_id, acq.stage->join_id,
                            session.epoch + builds[i].group->max_end());
          acq.published = true;
          break;
        }
      }
    }
  }

  // Probe-side clocks start at the hash-table completion watermark; attached
  // builds gate at their absolute completion epoch, translated into this
  // session's local time (clamped at zero for late arrivals — the artifact
  // already exists, so they pay nothing).
  const sim::VTime probe_start =
      sim::MaxT(sim::MaxT(init_clock, hts.build_done(session.query_id)),
                attach_ready - session.epoch);
  // Half-open intervals: the build phase ends exactly where the fact phase
  // starts, so this query's fact-stage blocks never overlap (and never get
  // charged for) its own closed build interval.
  build_dram.Close(probe_start);
  result->build_seconds = probe_start;

  // -------------------------------------------------------------- fact stages
  std::vector<CompiledPipeline> pipelines;
  {
    Status st = CompileFactPipelines(compiler, &pipelines);
    if (!st.ok()) return st;
  }

  // Instantiation runs consumer→producer: each group needs its downstream edge,
  // each edge needs its consumer group's instances.
  std::vector<const StageSpec*> fact_stage_ptrs;
  for (const StageSpec& stage : spec_.fact_stages) fact_stage_ptrs.push_back(&stage);
  DramPhaseGuard dram(&system_->topology(), session, fact_stage_ptrs,
                      probe_start);
  std::vector<RuntimeStage> stages;
  Edge* downstream = nullptr;
  for (size_t i = 0; i < spec_.fact_stages.size(); ++i) {
    const StageSpec& stage = spec_.fact_stages[i];
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = std::move(pipelines[i]);
    rt.cfg->out = downstream;
    if (stage.role == plan::SpanRole::kFilterStage &&
        downstream != nullptr) {
      rt.cfg->n_buckets = downstream->num_consumers();
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), downstream,
        channel_capacity, probe_start, session.epoch, session.query_id,
        session.control);
    rt.edge = std::make_unique<Edge>(system_, session_edge_options(stage),
                                     rt.group->instance_ptrs());
    downstream = rt.edge.get();
    if (stage.segmenter != -1) {
      Status st = make_source(stage, *rt.cfg, rt.edge.get(), probe_start,
                              &rt.source);
      if (!st.ok()) return st;
    }
    stages.push_back(std::move(rt));
  }

  for (auto& rt : stages) rt.group->Start();
  for (auto& rt : stages) {
    if (rt.source != nullptr) rt.source->Start();
  }
  for (auto& rt : stages) {
    if (rt.source != nullptr) rt.source->Join();
  }
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) it->group->Join();
  for (auto& rt : stages) {
    Status st = group_error(*rt.group);
    if (!st.ok()) {
      for (auto& rt2 : stages) result->stats.Add(rt2.group->total_stats());
      return st;
    }
  }

  result->rows = sink.TakeRows();
  result->modeled_seconds =
      sim::MaxT(sink.done_at(), stages.front().group->max_end());
  dram.Close(result->modeled_seconds);
  for (auto& rt : stages) result->stats.Add(rt.group->total_stats());
  return Status::OK();
}

}  // namespace hetex::core
