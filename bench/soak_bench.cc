// Soak benchmark for the virtual-time DRAM contention model. Two parts:
//
//   served   — sweeps 64/128/256 in-flight sessions from an SSB mix through
//              the concurrent scheduler at a fixed offered load (Poisson
//              arrivals), all into ONE long-lived System, so the per-socket
//              DRAM timelines accumulate hundreds of closed execution-phase
//              intervals. Reports achieved qps, p99 latency and the live DRAM
//              segment count per level, and checks after each level that a
//              fresh session anchored at each socket's horizon prices a block
//              at exactly the solo closed form
//              `earliest + max(bytes / rate, compute)` — bit for bit.
//   timeline — sweeps a bare sim::IntervalTimeline capped at 4k/16k/64k
//              segments at constant boundary density: each cycle adds one
//              closed interval over a fixed number of boundaries near the
//              moving end of the timeline and walks its spans the way
//              DramServer::BlockEnd does. The Bound() cap keeps every level
//              at its segment count, so ns/cycle across the sweep measures
//              how one reservation scales with the timeline size.
//
// Usage:
//   bench_soak_bench [--check] [--rows R] [--seed S] [--max-concurrent C]
//                    [--cycles K] [--factor F]
//
// --check exits nonzero unless every served query succeeds, every level's
// horizon-anchored block equals the closed form, post-soak solo latencies
// match pre-soak within 1e-4 relative (the engine has pre-existing
// run-to-run jitter of ~2e-6 relative from thread-completion-order block
// distribution, while any real contention leak shifts latency by >= 1e-1
// relative), the live timelines stay under their 4096-segment cap, every
// timeline level reaches its segment count, and ns/cycle at 64k segments is
// <= 3x the 4k figure.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "sim/bandwidth.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

const std::vector<std::pair<int, int>> kPool = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};

constexpr int kLevels[] = {64, 128, 256};
constexpr size_t kTimelineCaps[] = {4096, 16384, 65536};

struct TimelineStats {
  size_t cap = 0;
  size_t segments = 0;
  double ns_per_cycle = 0;
};

// One cycle = what a CPU execution phase costs its socket's timeline: add the
// closed phase interval and walk the spans one block drains across. Boundaries
// sit `dt` apart on average at every cap; each interval covers 8 of them, and
// starts land in the newest half of the timeline while its end moves forward
// by 2 dt a cycle — so every cycle adds two boundaries and Bound() absorbs
// two at the front, holding the timeline at its cap.
TimelineStats RunTimeline(size_t cap, int cycles, uint64_t seed) {
  constexpr double dt = 1e-6;
  sim::IntervalTimeline tl(cap);
  for (size_t i = 0; i < cap / 2; ++i) {
    tl.Add(static_cast<double>(2 * i) * dt, static_cast<double>(2 * i + 1) * dt, 1);
  }
  Rng rng(seed);
  double now = static_cast<double>(cap) * dt;
  const double window = static_cast<double>(cap / 2) * dt;
  int spans = 0;  // keeps the walk observable to the optimizer
  auto cycle = [&] {
    now += 2 * dt;
    const sim::VTime start = now - window + rng.NextDouble() * (window - 8 * dt);
    const sim::VTime end = start + 8 * dt;
    tl.Add(start, end, 1 + static_cast<int>(rng.Uniform(4)));
    for (sim::VTime t = start; t < end; t = tl.At(t).until) ++spans;
  };
  for (size_t i = 0; i < cap / 2; ++i) cycle();  // turn the prefill over once
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < cycles; ++i) cycle();
  const auto t1 = std::chrono::steady_clock::now();
  HETEX_CHECK(spans > 0);
  TimelineStats out;
  out.cap = cap;
  out.segments = tl.num_segments();
  out.ns_per_cycle =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / cycles;
  return out;
}

// A fresh session anchored at each socket's horizon overlaps none of the
// accumulated intervals, so its block must end at the solo closed form.
bool SoloBlockIsClosedForm(core::System* system) {
  constexpr uint64_t kSession = 3'000'000;  // no served query's id
  constexpr int kWorkers = 4;
  constexpr double kBytes = 1e6;
  constexpr sim::VTime kEarliest = 1e-3;
  constexpr sim::VTime kCompute = 1e-5;
  sim::Topology& topo = system->topology();
  for (int s = 0; s < topo.num_sockets(); ++s) {
    sim::DramServer& dram = topo.socket_dram(s);
    const sim::VTime epoch = dram.horizon();
    const uint64_t token = dram.Register(kSession, epoch, kWorkers);
    const sim::VTime end =
        dram.BlockEnd(kSession, kWorkers, kBytes, kCompute, epoch, kEarliest);
    dram.Release(token);
    const double rate = std::min(dram.per_worker_rate(),
                                 dram.total_rate() / kWorkers);
    if (end != kEarliest + std::max(kBytes / rate, kCompute)) return false;
  }
  return true;
}

core::System::Options SystemOptions() {
  core::System::Options opts;
  opts.topology.num_sockets = 2;
  opts.topology.cores_per_socket = 2;
  opts.topology.num_gpus = 2;
  opts.topology.gpu_sim_threads = 2;
  opts.topology.host_capacity_per_socket = 4ull << 30;
  opts.topology.gpu_capacity = 1ull << 30;
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 512;
  opts.blocks.gpu_arena_blocks = 256;
  return opts;
}

size_t MaxDramSegments(core::System* system) {
  size_t m = 0;
  const sim::Topology& topo = system->topology();
  for (int s = 0; s < topo.num_sockets(); ++s) {
    m = std::max(m, topo.socket_dram(s).num_segments());
  }
  return m;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct LevelStats {
  int sessions = 0;
  int ok = 0;
  double achieved_qps = 0;
  double p99_latency_s = 0;
  size_t dram_segments = 0;
  bool solo_closed_form = false;
  double wall_s = 0;
};

LevelStats RunLevel(core::System* system, const std::vector<plan::QuerySpec>& pool,
                    int sessions, int max_concurrent, double offered_qps,
                    uint64_t seed) {
  LevelStats level;
  level.sessions = sessions;

  Rng rng(seed);
  core::QueryScheduler::Options sopts;
  sopts.max_concurrent = max_concurrent;
  core::QueryScheduler scheduler(system, sopts);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<core::QueryHandle> handles;
  handles.reserve(static_cast<size_t>(sessions));
  double t = 0;
  for (int i = 0; i < sessions; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / offered_qps;
    core::SubmitOptions opts;
    opts.arrival_offset = t;
    handles.push_back(scheduler.Submit(pool[i % pool.size()], opts));
  }

  std::vector<double> latencies;
  double base = 0, last_end = 0;
  bool first = true;
  for (size_t qi = 0; qi < handles.size(); ++qi) {
    core::QueryResult r = scheduler.Wait(handles[qi]);
    HETEX_CHECK(r.status.ok())
        << "soak session " << qi << ": " << r.status.ToString();
    ++level.ok;
    const double arrival = r.session_epoch - r.queue_wait;
    if (first || arrival < base) base = arrival;
    first = false;
    last_end = std::max(last_end, r.session_epoch + r.modeled_seconds);
    latencies.push_back(r.queue_wait + r.modeled_seconds);
  }
  level.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               wall_start)
                     .count();
  const double makespan = last_end - base;
  level.achieved_qps =
      makespan > 0 ? static_cast<double>(level.ok) / makespan : 0;
  level.p99_latency_s = Percentile(latencies, 0.99);
  level.dram_segments = MaxDramSegments(system);
  level.solo_closed_form = SoloBlockIsClosedForm(system);
  return level;
}

std::vector<double> SoloLatencies(core::System* system,
                                  const std::vector<plan::QuerySpec>& pool) {
  core::QueryExecutor executor(system);
  std::vector<double> out;
  for (const plan::QuerySpec& spec : pool) {
    core::QueryResult r = executor.Execute(spec);
    HETEX_CHECK(r.status.ok()) << spec.name << ": " << r.status.ToString();
    out.push_back(r.modeled_seconds);
  }
  return out;
}

}  // namespace
}  // namespace hetex

int main(int argc, char** argv) {
  using namespace hetex;  // NOLINT — bench brevity

  uint64_t rows = 10'000;
  uint64_t seed = 0x50A4ull;
  int max_concurrent = 16;
  int cycles = 20'000;
  double factor = 2.0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      max_concurrent = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--factor") == 0 && i + 1 < argc) {
      factor = std::atof(argv[++i]);
    }
  }

  // One System for the whole sweep: every level's sessions pile more closed
  // intervals onto the same per-socket timelines before the next level runs.
  core::System system(SystemOptions());
  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = rows;
  ssb_opts.scale = 0.002;
  ssb::Ssb ssb(ssb_opts, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system.catalog().at(name).Place(system.HostNodes(), &system.memory()));
  }
  std::vector<plan::QuerySpec> pool;
  for (const auto& [flight, idx] : kPool) pool.push_back(ssb.Query(flight, idx));

  // Pre-soak solo reference: the bit-parity baseline and the offered-rate
  // calibration in one pass.
  const std::vector<double> solo_before = SoloLatencies(&system, pool);
  double mean_solo = 0;
  for (double s : solo_before) mean_solo += s;
  mean_solo /= static_cast<double>(solo_before.size());
  const double offered_qps =
      factor * static_cast<double>(max_concurrent) / mean_solo;

  std::vector<LevelStats> levels;
  for (int sessions : kLevels) {
    levels.push_back(RunLevel(&system, pool, sessions, max_concurrent,
                              offered_qps, seed + static_cast<uint64_t>(sessions)));
  }

  // Post-soak solo parity: a fresh session anchors past every accumulated
  // interval, so its latencies must match the pre-soak run up to the engine's
  // pre-existing scheduling jitter (~2e-6 relative; see the header comment).
  // The bit-exact half of the claim is the per-level closed-form check.
  const std::vector<double> solo_after = SoloLatencies(&system, pool);
  double solo_max_rel_dev = 0;
  for (size_t i = 0; i < solo_before.size(); ++i) {
    solo_max_rel_dev =
        std::max(solo_max_rel_dev, std::abs(solo_after[i] - solo_before[i]) /
                                       solo_before[i]);
  }
  const bool solo_parity = solo_max_rel_dev <= 1e-4;

  std::vector<TimelineStats> timeline;
  for (size_t cap : kTimelineCaps) {
    timeline.push_back(RunTimeline(cap, cycles, seed ^ cap));
  }
  const double ns_lo = timeline.front().ns_per_cycle;
  const double ns_hi = timeline.back().ns_per_cycle;
  const double ns_ratio = ns_lo > 0 ? ns_hi / ns_lo : 0;

  std::printf("{\n  \"lineorder_rows\": %" PRIu64 ",\n"
              "  \"max_concurrent\": %d,\n  \"timeline_cycles\": %d,\n"
              "  \"mean_solo_latency_s\": %.6f,\n  \"offered_qps\": %.2f,\n"
              "  \"levels\": [\n",
              rows, max_concurrent, cycles, mean_solo, offered_qps);
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelStats& l = levels[i];
    std::printf(
        "    {\"sessions\": %d, \"ok\": %d, \"achieved_qps\": %.2f, "
        "\"p99_latency_s\": %.6f, \"dram_segments\": %zu, "
        "\"solo_closed_form\": %s, \"wall_s\": %.3f}%s\n",
        l.sessions, l.ok, l.achieved_qps, l.p99_latency_s, l.dram_segments,
        l.solo_closed_form ? "true" : "false", l.wall_s,
        i + 1 < levels.size() ? "," : "");
  }
  std::printf("  ],\n  \"timeline\": [\n");
  for (size_t i = 0; i < timeline.size(); ++i) {
    const TimelineStats& t = timeline[i];
    std::printf("    {\"cap\": %zu, \"segments\": %zu, \"ns_per_cycle\": %.1f}%s\n",
                t.cap, t.segments, t.ns_per_cycle,
                i + 1 < timeline.size() ? "," : "");
  }
  std::printf("  ],\n  \"ns_ratio\": %.2f,\n"
              "  \"solo_max_rel_dev\": %.3g,\n  \"solo_parity_ok\": %s\n}\n",
              ns_ratio, solo_max_rel_dev, solo_parity ? "true" : "false");

  if (check) {
    for (const LevelStats& l : levels) {
      if (l.ok != l.sessions) {
        std::fprintf(stderr, "CHECK FAILED: level %d completed %d/%d sessions\n",
                     l.sessions, l.ok, l.sessions);
        return 1;
      }
      if (l.dram_segments > 4096) {
        std::fprintf(stderr,
                     "CHECK FAILED: level %d DRAM segment count %zu escaped "
                     "the 4096 cap\n",
                     l.sessions, l.dram_segments);
        return 1;
      }
      if (!l.solo_closed_form) {
        std::fprintf(stderr,
                     "CHECK FAILED: level %d horizon-anchored block left the "
                     "solo closed form\n",
                     l.sessions);
        return 1;
      }
    }
    if (!solo_parity) {
      std::fprintf(stderr,
                   "CHECK FAILED: post-soak solo latencies diverge from the "
                   "pre-soak idle-server run (max rel dev %.3g > 1e-4)\n",
                   solo_max_rel_dev);
      return 1;
    }
    for (const TimelineStats& t : timeline) {
      if (t.segments != t.cap) {
        std::fprintf(stderr,
                     "CHECK FAILED: timeline level %zu held %zu segments, so "
                     "it did not measure its size\n",
                     t.cap, t.segments);
        return 1;
      }
    }
    if (ns_ratio <= 0 || ns_ratio > 3.0) {
      std::fprintf(stderr,
                   "CHECK FAILED: ns/cycle grows with the timeline "
                   "(%.1f ns at %zu segments vs %.1f ns at %zu, ratio %.2f > 3)\n",
                   ns_hi, timeline.back().cap, ns_lo, timeline.front().cap,
                   ns_ratio);
      return 1;
    }
    std::fprintf(stderr,
                 "check ok: %d/%d/%d sessions, solo blocks at the closed form, "
                 "solo latencies within %.3g of pre-soak; ns/cycle %.0f -> "
                 "%.0f over %zu -> %zu segments (ratio %.2f)\n",
                 kLevels[0], kLevels[1], kLevels[2], solo_max_rel_dev, ns_lo,
                 ns_hi, timeline.front().cap, timeline.back().cap, ns_ratio);
  }
  return 0;
}
