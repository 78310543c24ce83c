// SSB repo benchmark driver: runs one named workload against the engine's
// public entry points for --seconds of host time (and at least a fixed number
// of passes) and writes one raw JSON record (per-query samples, per-pass
// counter deltas, spans) that perfbench/run.py turns into metrics.
//
// Usage:
//   ssb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <file>
//
// Workloads (see BENCHMARK.json for why each exists):
//   ssb-small-solo   closed loop, 13 SSB queries via Execute(spec), ~6k fact
//                    rows on a 2x2-core + 2-GPU miniature server
//   ssb-stream-solo  closed loop, 13 SSB queries via Optimize(spec, base) +
//                    ExecutePlan with fig5/fig6's scaled 512-row blocks, ~3M
//                    fact rows streamed over PCIe to 48 MB-capacity GPUs on
//                    the default 2x12-core + 2-GPU server
//   ssb-serve-rw     open loop in virtual time: Poisson batches from a 6-query
//                    join pool through QueryScheduler::Submit/Wait with
//                    shared builds + result cache on, one dimension-table
//                    write (Table::NoteMutation) between batches
//
// Set-up (System build, table generation and placement, one warm-up pass) is
// timed several times per run: once for the measured instance, then on spare
// instances built and dropped between passes, spread over the rest of the run
// so that the reported median sees the host conditions of more than a moment.
//
// peak_rss_mb comes from the kernel's RSS high-water mark over each of the
// first passes (reset through /proc/self/clear_refs, read as VmHWM), so the
// reference answers and spare set-ups are not in it.
//
// With --trace 1, passes (solo) or batches (serve) alternate between untraced
// and traced. Traced solo passes replay ExecutePlan's public steps
// (Optimize, ValidateHetPlan + GraphBuilder::Analyze, GraphBuilder::Run) with a
// span around each; traced serve batches span Submit and Wait. Spans stay in
// memory and are written with the record at the end.
//
// Every completed query's rows are compared with ssb::ReferenceExecute on the
// same generated tables, with no tolerance.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/compiler.h"
#include "core/executor.h"
#include "core/graph_builder.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "jit/codegen.h"
#include "jit/vectorizer.h"
#include "plan/het_plan.h"
#include "plan/optimizer.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"

extern char** environ;

namespace hetex::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<int64_t>>;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run (setup_s is their median): as many as fit in
/// kSetupShare of --seconds, within [kMinSetups, kMaxSetups] and odd.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 21;
constexpr double kSetupShare = 0.25;
/// ssb-serve-rw: queries per batch, offered Poisson rate (virtual qps) and the
/// admission cap (never above the host's thread count). At 800 qps the median
/// client latency falls in the gap between cache hits (~2 us) and misses
/// (~10 ms) and moves by ~9% between runs; at 1200 qps it sits among queued
/// queries and repeats within ~3%.
constexpr int kBatch = 30;
constexpr double kOfferedQps = 1200;
constexpr int kMaxConcurrent = 4;
/// Passes every run completes, even past --seconds on a slow host: a solo run
/// keeps >= 208 samples, so its modeled tail stays p95 or higher. These
/// passes also measure peak_rss_mb, so it covers a fixed amount of work.
constexpr int kMinSoloPasses = 16;
constexpr int kMinServeBatches = 300;

// ------------------------------------------------------------- environment

/// Clears every HETEX_* variable so a stray knob in the calling shell cannot
/// change the program being measured; returns the names it removed.
std::vector<std::string> ClearHetexEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("HETEX_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

// ------------------------------------------------------------------- spans

/// One timed call into a layer. `parent` indexes the tracer's span list (-1 =
/// root); every span of one query carries that query's `query` id.
struct Span {
  uint64_t query;
  const char* name;
  int parent;
  double start;
  double end;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(uint64_t query, const char* name, int parent) {
    spans_.push_back({query, name, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end = Now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return SecondsSince(origin_); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- counters

/// Engine counters read at a phase boundary. Everything but `cache_bytes`,
/// `segments_max` and `state_bytes` (levels) is cumulative and is reported as
/// a delta.
struct Counters {
  uint64_t program_hits = 0, program_misses = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_insertions = 0, cache_evictions = 0;
  uint64_t share_builds = 0, share_attaches = 0, share_failovers = 0;
  uint64_t vec_attempts = 0, vec_vectorized = 0, vec_fallbacks = 0;
  uint64_t codegen_attempts = 0, codegen_generated = 0, codegen_fallbacks = 0;
  uint64_t remote_roundtrips = 0;
  uint64_t cache_bytes = 0;   ///< result-cache row bytes held
  uint64_t segments_max = 0;  ///< largest PCIe-link / socket-DRAM timeline
  uint64_t state_bytes = 0;   ///< peak memory-manager bytes in use, all nodes
};

uint64_t StateBytes(core::System& system) {
  uint64_t bytes = 0;
  for (int n = 0; n < system.topology().num_mem_nodes(); ++n) {
    bytes += system.memory().manager(n).used();
  }
  return bytes;
}

Counters Snapshot(core::System& system) {
  Counters c;
  for (sim::DeviceType type : {sim::DeviceType::kCpu, sim::DeviceType::kGpu}) {
    const core::ProgramCache::Counters pc = system.program_cache().counters(type);
    c.program_hits += pc.hits;
    c.program_misses += pc.misses;
  }
  if (core::ResultCache* rc = system.result_cache()) {
    const core::ResultCache::Stats s = rc->stats();
    c.cache_hits = s.hits;
    c.cache_misses = s.misses;
    c.cache_insertions = s.insertions;
    c.cache_evictions = s.evictions;
    c.cache_bytes = rc->bytes();
  }
  const core::HtRegistry::SharedStats sh = system.hts().shared_stats();
  c.share_builds = sh.builds;
  c.share_attaches = sh.attaches;
  c.share_failovers = sh.failovers;
  const jit::VectorizerCounters v = jit::GetVectorizerCounters();
  c.vec_attempts = v.attempts;
  c.vec_vectorized = v.vectorized;
  c.vec_fallbacks = v.fallbacks;
  const jit::CodegenCounters g = jit::GetCodegenCounters();
  c.codegen_attempts = g.attempts;
  c.codegen_generated = g.generated;
  c.codegen_fallbacks = g.fallbacks;
  c.remote_roundtrips = system.blocks().remote_roundtrips();
  sim::Topology& topo = system.topology();
  for (int l = 0; l < topo.num_pcie_links(); ++l) {
    c.segments_max = std::max<uint64_t>(c.segments_max, topo.pcie_link(l).num_segments());
  }
  for (int s = 0; s < topo.num_sockets(); ++s) {
    c.segments_max = std::max<uint64_t>(c.segments_max, topo.socket_dram(s).num_segments());
  }
  c.state_bytes = StateBytes(system);
  return c;
}

/// Every counter by its record name; `level` marks the ones that are not
/// cumulative.
struct CounterField {
  const char* name;
  uint64_t Counters::*member;
  bool level;
};
constexpr CounterField kCounterFields[] = {
    {"program_hits", &Counters::program_hits, false},
    {"program_misses", &Counters::program_misses, false},
    {"cache_hits", &Counters::cache_hits, false},
    {"cache_misses", &Counters::cache_misses, false},
    {"cache_insertions", &Counters::cache_insertions, false},
    {"cache_evictions", &Counters::cache_evictions, false},
    {"share_builds", &Counters::share_builds, false},
    {"share_attaches", &Counters::share_attaches, false},
    {"share_failovers", &Counters::share_failovers, false},
    {"vec_attempts", &Counters::vec_attempts, false},
    {"vec_vectorized", &Counters::vec_vectorized, false},
    {"vec_fallbacks", &Counters::vec_fallbacks, false},
    {"codegen_attempts", &Counters::codegen_attempts, false},
    {"codegen_generated", &Counters::codegen_generated, false},
    {"codegen_fallbacks", &Counters::codegen_fallbacks, false},
    {"remote_roundtrips", &Counters::remote_roundtrips, false},
    {"cache_bytes", &Counters::cache_bytes, true},
    {"segments_max", &Counters::segments_max, true},
    {"state_bytes", &Counters::state_bytes, true},
};

/// Accumulates `after - before` into `acc`; levels keep their maximum.
void AddDelta(const Counters& before, const Counters& after, Counters* acc) {
  for (const CounterField& c : kCounterFields) {
    uint64_t& v = acc->*c.member;
    v = c.level ? std::max(v, after.*c.member) : v + (after.*c.member - before.*c.member);
  }
}

// ----------------------------------------------------------------- samples

/// One completed (or failed) query as the client saw it.
struct Sample {
  int pass = 0;        ///< sweep (solo) or batch (serve) index
  bool traced = false;
  int query = 0;       ///< index into the workload's query list
  bool ok = false;     ///< status OK
  bool rows_ok = false;
  double host_s = 0;   ///< host wall: call (solo) or Submit (serve) to result
  double modeled_s = 0;
  double queue_wait_s = 0;
  double epoch_s = 0;  ///< absolute virtual session start (serve)
  bool cache_hit = false;
  int retries = 0;
  sim::CostStats stats;
  // Traced solo replays only (-1 otherwise).
  double estimate_s = -1;
  int candidates = -1;
  int instances = -1;
  int edges = -1;
};

/// One sweep or batch: its host wall, whether it ran traced, and the engine
/// counter deltas across it.
struct Pass {
  bool traced = false;
  double wall_s = 0;
  Counters delta;
  std::string mutated;  ///< serve: dimension table written after the batch
};

// --------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool serve = false;
  core::System::Options options;
  ssb::Ssb::Options data;
  plan::ExecPolicy base;  ///< what solo queries leave to the optimizer
};

core::System::Options MiniatureServer() {
  core::System::Options o;
  o.topology.num_sockets = 2;
  o.topology.cores_per_socket = 2;
  o.topology.num_gpus = 2;
  o.topology.gpu_sim_threads = 2;
  o.topology.host_capacity_per_socket = 4ull << 30;
  o.topology.gpu_capacity = 1ull << 30;
  o.blocks.block_bytes = 64 << 10;
  o.blocks.host_arena_blocks = 512;
  o.blocks.gpu_arena_blocks = 256;
  return o;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  w->data.seed = seed;
  if (name == "ssb-small-solo") {
    w->options = MiniatureServer();
    w->data.scale = 0.001;  // 6k fact rows
    return true;
  }
  if (name == "ssb-stream-solo") {
    // Paper SF1000 scaled 1:2000 as fig5/fig6 do it: the fact table exceeds
    // the 48 MB modeled GPU capacity, fixed latencies and the block size
    // shrink with the data, and the dimensions keep paper-scale hash-table
    // size classes. Unlike fig5/fig6, which pin cpu/gpu/hybrid policies, the
    // optimizer picks each plan within the scaled block size.
    const double latency_scale = 0.5 / 1000;
    w->options.topology.gpu_capacity = 48ull << 20;
    w->options.topology.cost_model.ScaleFixedLatencies(latency_scale);
    const uint64_t block_rows = std::max<uint64_t>(
        512, static_cast<uint64_t>(128.0 * 1024 * latency_scale));
    w->options.blocks.block_bytes = std::max<uint64_t>(block_rows * 8, 16 << 10);
    w->base.block_rows = block_rows;
    w->options.blocks.host_arena_blocks = 768;
    w->options.blocks.gpu_arena_blocks = 384;
    w->data.scale = 0.5;  // 3M fact rows
    w->data.customer_rows = 600'000;
    w->data.supplier_rows = 150'000;
    w->data.part_rows = 400'000;
    return true;
  }
  if (name == "ssb-serve-rw") {
    w->serve = true;
    w->options = MiniatureServer();
    w->options.reuse.shared_builds = true;
    w->options.reuse.result_cache = true;
    // The live results of the pool (~30 KB) fit; the stale generations every
    // write leaves behind do not, so the LRU evicts them and memory stays flat
    // however many batches a run completes.
    w->options.reuse.result_cache_bytes = 256 << 10;
    w->data.scale = 0.002;
    w->data.lineorder_rows = 12'000;
    return true;
  }
  return false;
}

/// The open-loop bench's join pool (flights 2-4 share the small dimensions).
const std::pair<int, int> kServePool[] = {{2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}};
const char* const kDimensions[] = {"date", "customer", "supplier", "part"};

/// A built System with its tables generated and placed.
struct Instance {
  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
  std::vector<plan::QuerySpec> queries;
  uint64_t placed_bytes = 0;  ///< memory-manager bytes once the tables are placed
};

Instance Build(const Workload& w) {
  Instance in;
  in.system = std::make_unique<core::System>(w.options);
  in.ssb = std::make_unique<ssb::Ssb>(w.data, &in.system->catalog());
  for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(in.system->catalog().at(t).Place(in.system->HostNodes(),
                                                     &in.system->memory()));
  }
  in.placed_bytes = StateBytes(*in.system);
  if (w.serve) {
    for (const auto& [flight, idx] : kServePool) in.queries.push_back(in.ssb->Query(flight, idx));
  } else {
    in.queries = in.ssb->AllQueries();
  }
  return in;
}

// ------------------------------------------------------------------ runner

class Runner {
 public:
  Runner(const Workload& w, Instance* in, Tracer* tracer, const std::vector<Rows>& ref)
      : w_(w), in_(in), tracer_(tracer), ref_(ref), executor_(in->system.get()) {
    if (w.serve) {
      core::QueryScheduler::Options opts;
      const int nproc = static_cast<int>(std::thread::hardware_concurrency());
      opts.max_concurrent = std::max(1, std::min(kMaxConcurrent, nproc));
      scheduler_ = std::make_unique<core::QueryScheduler>(in->system.get(), opts);
    }
  }

  int max_concurrent() const {
    return scheduler_ != nullptr ? scheduler_->options().max_concurrent : 1;
  }

  /// One sweep of every query (solo) or one batch (serve); appends samples.
  Pass RunPass(int pass, bool traced, Rng* rng, std::deque<Sample>* out) {
    Pass p;
    p.traced = traced;
    const Counters before = Snapshot(*in_->system);
    const auto t0 = Clock::now();
    if (w_.serve) {
      RunBatch(pass, traced, rng, out, &p.delta.state_bytes);
    } else {
      for (int q = 0; q < static_cast<int>(in_->queries.size()); ++q) {
        out->push_back(traced ? TracedSolo(pass, q) : Solo(pass, q));
      }
    }
    p.wall_s = SecondsSince(t0);
    AddDelta(before, Snapshot(*in_->system), &p.delta);
    if (w_.serve) {
      // Writes land only while the scheduler is idle: every query of the
      // batch has been waited for.
      HETEX_CHECK(scheduler_->in_flight() == 0 && scheduler_->queued() == 0);
      p.mutated = kDimensions[rng->Uniform(std::size(kDimensions))];
      in_->system->catalog().at(p.mutated).NoteMutation();
    }
    return p;
  }

 private:
  void Finish(const core::QueryResult& r, Sample* s) const {
    s->ok = r.status.ok();
    s->rows_ok = s->ok && r.rows == ref_[static_cast<size_t>(s->query)];
    s->modeled_s = r.modeled_seconds;
    s->queue_wait_s = r.queue_wait;
    s->epoch_s = r.session_epoch;
    s->cache_hit = r.cache_hit;
    s->retries = r.retries;
    s->stats = r.stats;
    if (!s->ok || !s->rows_ok) {
      std::fprintf(stderr, "query %s failed: %s%s\n",
                   in_->queries[static_cast<size_t>(s->query)].name.c_str(),
                   r.status.ToString().c_str(), s->ok ? " (rows differ)" : "");
    }
  }

  /// Optimize(spec, base) + ExecutePlan: Execute(spec) with the workload's
  /// base policy in place of the default one.
  Sample Solo(int pass, int q) {
    const plan::QuerySpec& spec = in_->queries[static_cast<size_t>(q)];
    Sample s;
    s.pass = pass;
    s.query = q;
    const auto t0 = Clock::now();
    core::QueryResult r;
    plan::OptimizeResult opt;
    r.status = executor_.Optimize(spec, w_.base, &opt);
    if (r.status.ok()) r = executor_.ExecutePlan(spec, opt.best().plan);
    s.host_s = SecondsSince(t0);
    Finish(r, &s);
    return s;
  }

  /// Solo() replayed step by step, ExecutePlan's steps included, with a span
  /// around each layer call.
  Sample TracedSolo(int pass, int q) {
    core::System& system = *in_->system;
    const plan::QuerySpec& spec = in_->queries[static_cast<size_t>(q)];
    Sample s;
    s.pass = pass;
    s.traced = true;
    s.query = q;
    const uint64_t id = next_trace_id_++;
    core::QueryResult r;
    const auto t0 = Clock::now();
    const int root = tracer_->Begin(id, "query", -1);

    int span = tracer_->Begin(id, "plan", root);
    plan::OptimizeResult opt;
    r.status = executor_.Optimize(spec, w_.base, &opt);
    tracer_->End(span);
    if (r.status.ok()) {
      const plan::HetPlan& plan = opt.best().plan;
      s.candidates = static_cast<int>(opt.ranked.size());
      s.estimate_s = opt.ranked.front().cost.total;
      const core::QuerySession session{system.NextQueryId(), system.VirtualHorizon()};
      r.query_id = session.query_id;

      span = tracer_->Begin(id, "core.lower", root);
      r.status = plan::ValidateHetPlan(plan);
      core::GraphBuilder builder(&system, &plan, &session);
      if (r.status.ok()) r.status = builder.Analyze();
      tracer_->End(span);

      if (r.status.ok()) {
        s.instances = builder.spec().TotalInstances();
        s.edges = builder.spec().TotalEdges();
        span = tracer_->Begin(id, "core.run", root);
        core::QueryCompiler compiler(spec, system.catalog(), system.cost_model());
        r.status = builder.Run(&compiler, &r);
        tracer_->End(span);
      }
      system.blocks().FlushReleases();
    }
    tracer_->End(root);
    s.host_s = SecondsSince(t0);
    Finish(r, &s);
    return s;
  }

  /// Submits one batch of Poisson arrivals, then waits for each in order.
  /// `peak_state_bytes` samples memory in use at every completion, while the
  /// rest of the batch is still in flight.
  void RunBatch(int pass, bool traced, Rng* rng, std::deque<Sample>* out,
                uint64_t* peak_state_bytes) {
    struct Pending {
      core::QueryHandle handle;
      Clock::time_point submitted;
      int query;
      uint64_t id;
      int root;
    };
    std::vector<Pending> pending;
    pending.reserve(kBatch);
    double t = 0;
    for (int i = 0; i < kBatch; ++i) {
      t += -std::log(1.0 - rng->NextDouble()) / kOfferedQps;
      Pending p;
      p.query = static_cast<int>(rng->Uniform(in_->queries.size()));
      p.id = next_trace_id_++;
      p.root = traced ? tracer_->Begin(p.id, "query", -1) : -1;
      core::SubmitOptions opts;
      opts.arrival_offset = t;
      p.submitted = Clock::now();
      const int span = traced ? tracer_->Begin(p.id, "sched.submit", p.root) : -1;
      p.handle = scheduler_->Submit(in_->queries[static_cast<size_t>(p.query)], opts);
      if (traced) tracer_->End(span);
      pending.push_back(p);
    }
    for (const Pending& p : pending) {
      const int span = traced ? tracer_->Begin(p.id, "sched.wait", p.root) : -1;
      const core::QueryResult r = scheduler_->Wait(p.handle);
      if (traced) {
        tracer_->End(span);
        tracer_->End(p.root);
      }
      Sample s;
      s.pass = pass;
      s.traced = traced;
      s.query = p.query;
      s.host_s = SecondsSince(p.submitted);
      *peak_state_bytes = std::max(*peak_state_bytes, StateBytes(*in_->system));
      Finish(r, &s);
      out->push_back(s);
    }
  }

  const Workload& w_;
  Instance* in_;
  Tracer* tracer_;
  const std::vector<Rows>& ref_;
  core::QueryExecutor executor_;
  std::unique_ptr<core::QueryScheduler> scheduler_;
  uint64_t next_trace_id_ = 1;
};

// ------------------------------------------------------------------ output

void PrintCounters(FILE* f, const Counters& c) {
  const char* sep = "{";
  for (const CounterField& field : kCounterFields) {
    std::fprintf(f, "%s\"%s\": %" PRIu64, sep, field.name, c.*field.member);
    sep = ", ";
  }
  std::fprintf(f, "}");
}

/// Resets the kernel's RSS high-water mark of this process to its current RSS.
bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// RSS high-water mark since the last ResetPeakRss (VmHWM), in MiB; negative
/// when it cannot be read.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? -1 : kib / 1024.0;
}

/// One set-up: System build, table generation and placement, and one warm-up
/// pass. Fills `ref` from the new instance when it is empty; that is not
/// timed. Returns the set-up seconds, or a negative value when a warm-up query
/// fails.
double SetUp(const Workload& w, uint64_t seed, Tracer* tracer, std::vector<Rows>* ref,
             Instance* in) {
  const auto t0 = Clock::now();
  *in = Build(w);
  const double built_s = SecondsSince(t0);
  if (ref->empty()) {
    for (const plan::QuerySpec& q : in->queries) {
      ref->push_back(ssb::ReferenceExecute(q, in->system->catalog()));
    }
  }
  const auto t1 = Clock::now();
  Runner warm(w, in, tracer, *ref);  // untraced: records no spans
  Rng warm_rng(seed ^ 0x5EEDull);
  std::deque<Sample> warm_samples;
  warm.RunPass(0, /*traced=*/false, &warm_rng, &warm_samples);
  const double setup_s = built_s + SecondsSince(t1);
  for (const Sample& s : warm_samples) {
    if (!s.ok || !s.rows_ok) return -1;
  }
  return setup_s;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ssb_bench --workload <ssb-small-solo|ssb-stream-solo|"
               "ssb-serve-rw> --seed <n> --seconds <s> --trace <0|1> --out <file>\n");
  return 2;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> cleared = ClearHetexEnv();

  std::string workload, out_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--out") out_path = val;
    else return Usage();
  }
  Workload w;
  if (!MakeWorkload(workload, seed, &w) || out_path.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  // The measured instance's set-up comes first. Reference answers come from
  // it (same seed, same tables) and are not timed.
  std::vector<double> setup_s;
  std::vector<Rows> ref;
  Instance in;
  Tracer tracer(Clock::now());
  setup_s.push_back(SetUp(w, seed, &tracer, &ref, &in));
  if (setup_s[0] < 0) {
    std::fprintf(stderr, "warm-up query failed\n");
    return 1;
  }
  // Spare set-ups build and warm a second instance, drop it and hand its
  // memory back.
  auto spare_setup = [&]() {
    {
      Instance spare;
      setup_s.push_back(SetUp(w, seed, &tracer, &ref, &spare));
    }
    malloc_trim(0);
  };
  int setups = std::clamp(static_cast<int>(kSetupShare * seconds / setup_s[0]),
                          kMinSetups, kMaxSetups);
  if (setups % 2 == 0) --setups;

  // Passes run for --seconds (spare set-ups excluded) and at least
  // min_passes. The first min_passes passes measure peak RSS: each starts
  // from a trimmed heap with the high-water mark reset, so its peak is the
  // measured instance plus what the pass itself holds, not what the allocator
  // kept from set-up and earlier passes (that grows by different amounts from
  // run to run). A spare set-up leaves such memory behind even after a trim,
  // so spare set-up k is due once k/setups of the run has passed, but not
  // before those passes are done.
  Runner runner(w, &in, &tracer, ref);
  Rng rng(seed);
  std::deque<Sample> samples;
  std::vector<Pass> passes;
  const int min_passes = w.serve ? kMinServeBatches : kMinSoloPasses;
  const auto t0 = Clock::now();
  double spare_s = 0;
  auto measured = [&]() { return SecondsSince(t0) - spare_s; };
  std::vector<double> peak_rss_mb;
  while (static_cast<int>(passes.size()) < min_passes || measured() < seconds) {
    const int pass = static_cast<int>(passes.size());
    const int done = static_cast<int>(setup_s.size());
    if (pass >= min_passes && done < setups && measured() >= seconds * done / setups) {
      const auto t1 = Clock::now();
      spare_setup();
      spare_s += SecondsSince(t1);
    }
    if (pass < min_passes) {
      malloc_trim(0);
      if (!ResetPeakRss()) {
        std::perror("/proc/self/clear_refs");
        return 1;
      }
    }
    passes.push_back(runner.RunPass(pass, trace == 1 && pass % 2 == 1, &rng, &samples));
    if (pass < min_passes) {
      peak_rss_mb.push_back(PeakRssMb());
      if (peak_rss_mb.back() < 0) {
        std::fprintf(stderr, "cannot read VmHWM from /proc/self/status\n");
        return 1;
      }
    }
  }
  const double measured_s = measured();
  while (static_cast<int>(setup_s.size()) < setups) spare_setup();
  for (double t : setup_s) {
    if (t < 0) {
      std::fprintf(stderr, "warm-up query failed\n");
      return 1;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::perror(out_path.c_str());
    return 1;
  }
  const core::System::Options& o = w.options;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d,\n",
               w.name.c_str(), seed, trace);
  std::fprintf(f, "\"build_type\": \"%s\", \"nproc\": %u, \"max_concurrent\": %d,\n",
               PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
               runner.max_concurrent());
  std::fprintf(f, "\"env_cleared\": [");
  for (size_t i = 0; i < cleared.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", cleared[i].c_str());
  }
  std::fprintf(f,
               "],\n\"knobs\": {\"tier2\": %s, \"faults\": %s, \"shared_builds\": %s, "
               "\"result_cache\": %s, \"result_cache_bytes\": %" PRIu64
               ", \"tier_policy\": %d, \"sockets\": %d, \"cores_per_socket\": %d, "
               "\"gpus\": %d, \"gpu_capacity\": %" PRIu64 ", \"block_bytes\": %" PRIu64
               ", \"lineorder_rows\": %" PRIu64 "},\n",
               o.codegen.enabled ? "true" : "false", o.faults.enabled ? "true" : "false",
               o.reuse.shared_builds ? "true" : "false",
               o.reuse.result_cache ? "true" : "false", o.reuse.result_cache_bytes,
               static_cast<int>(o.tier_policy), o.topology.num_sockets,
               o.topology.cores_per_socket, o.topology.num_gpus, o.topology.gpu_capacity,
               o.blocks.block_bytes, in.system->catalog().at("lineorder").rows());
  std::fprintf(f, "\"setup_s\": [");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? ", " : "", setup_s[i]);
  }
  std::fprintf(f, "],\n\"measured_s\": %.9g,\n\"peak_rss_mb\": [", measured_s);
  for (size_t i = 0; i < peak_rss_mb.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", peak_rss_mb[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "\"placed_bytes\": %" PRIu64 ",\n\"queries\": [", in.placed_bytes);
  for (size_t i = 0; i < in.queries.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", in.queries[i].name.c_str());
  }
  std::fprintf(f, "],\n\"passes\": [\n");
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::fprintf(f, "%s{\"traced\": %d, \"wall_s\": %.9g, \"mutated\": \"%s\", \"delta\": ",
                 i ? ",\n" : "", p.traced ? 1 : 0, p.wall_s, p.mutated.c_str());
    PrintCounters(f, p.delta);
    std::fprintf(f, "}");
  }
  // Samples are positional arrays to keep the record small; run.py names the
  // fields (SAMPLE_FIELDS).
  std::fprintf(f, "],\n\"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "%s[%d, %d, %d, %d, %d, %.9g, %.12g, %.12g, %.12g, %d, %d, %" PRIu64
                 ", %" PRIu64 ", %" PRIu64 ", %.12g, %d, %d, %d]",
                 i ? ",\n" : "", s.pass, s.traced ? 1 : 0, s.query, s.ok ? 1 : 0,
                 s.rows_ok ? 1 : 0, s.host_s, s.modeled_s, s.queue_wait_s, s.epoch_s,
                 s.cache_hit ? 1 : 0, s.retries, s.stats.tuples, s.stats.bytes_read,
                 s.stats.far_accesses, s.estimate_s, s.candidates, s.instances, s.edges);
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s[%" PRIu64 ", \"%s\", %d, %.9f, %.9f]", i ? ",\n" : "", s.query,
                 s.name, s.parent, s.start, s.end);
  }
  std::fprintf(f, "]}\n");
  const bool write_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && write_ok ? 0 : 1;
}

}  // namespace
}  // namespace hetex::perfbench

int main(int argc, char** argv) { return hetex::perfbench::Main(argc, argv); }
