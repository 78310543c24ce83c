#include "plan/stages.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace hetex::plan {

namespace {

using Kind = HetOpNode::Kind;

/// Operators executed inside a worker pipeline (spans).
bool IsSpanKind(Kind k) {
  return k == Kind::kUnpack || k == Kind::kPack || k == Kind::kHashPack ||
         k == Kind::kFilter || k == Kind::kProject || k == Kind::kJoinBuild ||
         k == Kind::kJoinProbe || k == Kind::kReduceLocal ||
         k == Kind::kGroupByLocal || k == Kind::kGather;
}

/// Operators lowered onto edges (and the segmenter, lowered to a source).
bool IsTransportKind(Kind k) {
  return k == Kind::kRouter || k == Kind::kMemMove || k == Kind::kCpu2Gpu ||
         k == Kind::kGpu2Cpu || k == Kind::kSegmenter;
}

/// Exchange decoration: converters that ride on an edge rather than in a span.
bool IsDecorationKind(Kind k) {
  return k == Kind::kMemMove || k == Kind::kCpu2Gpu || k == Kind::kGpu2Cpu;
}

/// A pack marks the producer side of an exchange: walking consumer→producer,
/// reaching one starts a new span even when no transport operator separates
/// them (bare plans route partials straight from pack to gather).
bool IsProducerTop(Kind k) { return k == Kind::kPack || k == Kind::kHashPack; }

/// What a span's relational content makes of it: its role plus the stamped
/// join/bucket parameters the compiler needs.
struct SpanClass {
  SpanRole role = SpanRole::kProbe;
  int join_id = -1;
  int n_buckets = 1;
  bool operator==(const SpanClass&) const = default;
};

SpanClass ClassifySpan(const HetPlan& plan, const std::vector<int>& nodes) {
  SpanClass c;
  bool has_build = false, has_probe = false, has_gather = false;
  bool has_hash_pack = false;
  for (int id : nodes) {
    const HetOpNode& n = plan.node(id);
    switch (n.kind) {
      case Kind::kJoinBuild:
        has_build = true;
        c.join_id = n.join_id;
        break;
      case Kind::kJoinProbe: has_probe = true; break;
      case Kind::kGather: has_gather = true; break;
      case Kind::kHashPack:
        has_hash_pack = true;
        c.n_buckets = n.n_buckets > 0 ? n.n_buckets : 1;
        break;
      default: break;
    }
  }
  // A hash-pack only makes the span a filter stage when no probe runs in it;
  // a span that probes and hash-packs is still a probe pipeline.
  c.role = has_build    ? SpanRole::kBuild
           : has_gather ? SpanRole::kGather
           : (has_hash_pack && !has_probe) ? SpanRole::kFilterStage
                                           : SpanRole::kProbe;
  return c;
}

}  // namespace

const char* SpanRoleName(SpanRole role) {
  switch (role) {
    case SpanRole::kBuild: return "build";
    case SpanRole::kFilterStage: return "filter-stage";
    case SpanRole::kProbe: return "probe";
    case SpanRole::kGather: return "gather";
  }
  return "?";
}

Result<StagePartition> PartitionSpans(const HetPlan& plan) {
  if (plan.root < 0 || plan.root >= static_cast<int>(plan.nodes.size())) {
    return Status::InvalidArgument("plan has no root node");
  }
  const size_t n_nodes = plan.nodes.size();
  std::vector<int> build_tops;  // kJoinBuild span tops, discovery order
  std::unordered_set<int> seen_build_tops;

  // Walks consumer→producer from `top` collecting one span; stops at the
  // first transport operator or producer-side pack, which becomes `feed`.
  auto collect_span = [&](int top, SpanBranch* branch, int* feed) -> Status {
    for (int cur = top;;) {
      const HetOpNode& n = plan.node(cur);
      if (!IsSpanKind(n.kind)) {
        return Status::Internal(std::string("pipeline span contains operator ") +
                                HetOpNode::KindName(n.kind));
      }
      branch->nodes.push_back(cur);
      if (branch->nodes.size() > n_nodes) {
        return Status::Internal("pipeline span does not terminate (plan cycle)");
      }
      if (branch->instances.empty()) branch->instances = n.placement;
      if (n.kind == Kind::kJoinProbe) {
        // Build-side children are separate pipeline networks.
        for (size_t c = 1; c < n.children.size(); ++c) {
          if (seen_build_tops.insert(n.children[c]).second) {
            build_tops.push_back(n.children[c]);
          }
        }
      }
      if (n.children.empty()) {
        return Status::Internal("pipeline span reaches a leaf without a source");
      }
      const int child = n.children[0];
      const Kind ck = plan.node(child).kind;
      if (IsTransportKind(ck) || IsProducerTop(ck)) {
        *feed = child;
        return Status::OK();
      }
      cur = child;
    }
  };

  // Walks one decoration chain (mem-move / device crossings) to its exchange
  // terminal (router, segmenter or producer pack); returns -1 on a dangling
  // chain or cycle. With `stage` given it harvests the crossings: UVA and
  // task-spawn latency into the stage, and with `branch` also the branch's
  // consumer-side GPU entry.
  auto walk_decoration = [&](int from, PlanStage* stage,
                             SpanBranch* branch) -> int {
    int cur = from;
    size_t steps = 0;
    while (IsDecorationKind(plan.node(cur).kind)) {
      const HetOpNode& n = plan.node(cur);
      if (stage != nullptr && n.kind == Kind::kCpu2Gpu) {
        const bool uva = IsUvaCrossing(n);
        stage->uva |= uva;
        if (branch != nullptr) {
          branch->gpu_entry = true;
          branch->uva |= uva;
        }
      } else if (stage != nullptr && n.kind == Kind::kGpu2Cpu) {
        stage->crossing_latency =
            std::max(stage->crossing_latency, n.crossing_latency);
      }  // kMemMove: locality is restored on every non-UVA edge regardless
      if (n.children.empty() || ++steps > n_nodes) return -1;
      cur = n.children[0];
    }
    return cur;
  };

  // Parses the exchange below a stage's branches (`feeds`: one per branch):
  // consumer-side decoration → shared router → producer-side decoration →
  // producer span tops / source segmenter. Then classifies the branches.
  auto finish_stage = [&](const std::vector<int>& feeds,
                          PlanStage* stage) -> Status {
    auto set_segmenter = [&](int seg) -> Status {
      if (stage->segmenter != -1 && stage->segmenter != seg) {
        return Status::Internal("exchange fed by multiple segmenters");
      }
      stage->segmenter = seg;
      return Status::OK();
    };
    for (size_t i = 0; i < feeds.size(); ++i) {
      const int cur = walk_decoration(feeds[i], stage, &stage->branches[i]);
      if (cur < 0) {
        return Status::Internal("dangling or cyclic exchange decoration");
      }
      const HetOpNode& n = plan.node(cur);
      if (n.kind == Kind::kRouter) {
        if (stage->router != -1 && stage->router != cur) {
          return Status::Internal("stage branches fed by different routers");
        }
        stage->router = cur;
      } else if (n.kind == Kind::kSegmenter) {
        // Bare plan: the source feeds the span directly.
        HETEX_RETURN_NOT_OK(set_segmenter(cur));
      } else if (IsProducerTop(n.kind)) {
        stage->producer_tops.push_back(cur);
      } else {
        return Status::Internal(std::string("span fed by non-exchange operator ") +
                                HetOpNode::KindName(n.kind));
      }
    }
    if (stage->router != -1) {
      for (int child : plan.node(stage->router).children) {
        const int cur = walk_decoration(child, stage, nullptr);
        if (cur < 0) {
          return Status::Internal("dangling or cyclic exchange decoration");
        }
        const HetOpNode& n = plan.node(cur);
        if (n.kind == Kind::kSegmenter) {
          HETEX_RETURN_NOT_OK(set_segmenter(cur));
        } else if (IsSpanKind(n.kind)) {
          stage->producer_tops.push_back(cur);
        } else {
          return Status::Internal(
              std::string("router fed by non-pipeline operator ") +
              HetOpNode::KindName(n.kind));
        }
      }
    }
    if (stage->segmenter != -1 && !stage->producer_tops.empty()) {
      return Status::Internal("exchange mixes a segmenter with pipeline producers");
    }

    SpanClass first;
    for (size_t i = 0; i < stage->branches.size(); ++i) {
      const SpanBranch& branch = stage->branches[i];
      if (branch.instances.empty()) {
        return Status::Internal("pipeline span without a placement stamp");
      }
      const SpanClass c = ClassifySpan(plan, branch.nodes);
      if (i == 0) {
        first = c;
      } else if (c != first) {
        // Merged branches compile from branch 0's span; inconsistent stamps
        // would be silently ignored, so reject them instead.
        return Status::Internal("exchange feeds inconsistently stamped spans");
      }
      stage->instances.insert(stage->instances.end(), branch.instances.begin(),
                              branch.instances.end());
    }
    stage->role = first.role;
    stage->join_id = first.join_id;
    stage->n_buckets = first.n_buckets;
    return Status::OK();
  };

  // --- Fact-side chain: from the result node down to the fact segmenter.
  const HetOpNode& root = plan.node(plan.root);
  if (root.kind != Kind::kResult || root.children.size() != 1) {
    return Status::InvalidArgument("plan root must be a single-input result node");
  }
  StagePartition out;
  std::vector<int> tops = {root.children[0]};
  while (true) {
    // A cycle through an exchange re-discovers the same producer tops forever;
    // a legal chain cannot have more stages than the plan has nodes.
    if (out.fact_stages.size() > n_nodes) {
      return Status::Internal("fact chain does not terminate (plan cycle)");
    }
    PlanStage stage;
    std::vector<int> feeds;
    for (int top : tops) {
      SpanBranch branch;
      int feed = -1;
      HETEX_RETURN_NOT_OK(collect_span(top, &branch, &feed));
      stage.branches.push_back(std::move(branch));
      feeds.push_back(feed);
    }
    HETEX_RETURN_NOT_OK(finish_stage(feeds, &stage));
    if (stage.role == SpanRole::kBuild) {
      return Status::Internal("build span on the fact chain");
    }
    const bool at_source = stage.segmenter != -1;
    tops = stage.producer_tops;
    out.fact_stages.push_back(std::move(stage));
    if (at_source) break;
    if (tops.empty()) return Status::Internal("exchange with no producers");
  }
  if (out.fact_stages.front().role != SpanRole::kGather) {
    return Status::Internal("fact chain must terminate in a gather stage");
  }

  // --- Build networks: group the kJoinBuild spans by their feeding exchange
  // (all per-unit replicas of one join share its broadcast router).
  struct BuildGroup {
    PlanStage stage;
    std::vector<int> feeds;
  };
  std::vector<int> group_keys;
  std::unordered_map<int, BuildGroup> by_key;
  // Indexed: a build span that probes appends further build tops.
  for (size_t i = 0; i < build_tops.size(); ++i) {
    SpanBranch branch;
    int feed = -1;
    HETEX_RETURN_NOT_OK(collect_span(build_tops[i], &branch, &feed));
    const int key = walk_decoration(feed, nullptr, nullptr);
    if (key < 0) return Status::Internal("build span with a dangling feed");
    auto [it, fresh] = by_key.try_emplace(key);
    if (fresh) group_keys.push_back(key);
    it->second.stage.branches.push_back(std::move(branch));
    it->second.feeds.push_back(feed);
  }
  for (int key : group_keys) {
    BuildGroup& g = by_key[key];
    HETEX_RETURN_NOT_OK(finish_stage(g.feeds, &g.stage));
    if (g.stage.role != SpanRole::kBuild) {
      return Status::Internal("join-probe child span is not a build pipeline");
    }
    if (g.stage.segmenter == -1) {
      return Status::Internal("build stage without a source segmenter");
    }
    out.build_stages.push_back(std::move(g.stage));
  }
  return out;
}

uint64_t ScanBlockRows(const PlanStage& stage, const HetOpNode& segmenter,
                       const storage::Table* table, const sim::Topology& topo,
                       uint64_t staging_rows) {
  const uint64_t rows = segmenter.block_rows > 0 ? segmenter.block_rows : 128 * 1024;
  bool crosses = std::any_of(stage.instances.begin(), stage.instances.end(),
                             [](sim::DeviceId dev) { return dev.is_gpu(); });
  if (!crosses && table != nullptr) {
    crosses = std::any_of(table->chunks().begin(), table->chunks().end(),
                          [&](const storage::Table::Chunk& c) {
                            return topo.mem_node(c.node).is_gpu;
                          });
  }
  return crosses ? std::min(rows, std::max<uint64_t>(1, staging_rows)) : rows;
}

}  // namespace hetex::plan
