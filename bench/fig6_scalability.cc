// Figure 6 — scalability on SSB (paper SF1000, scaled): speed-up of each query
// flight versus single-threaded execution, sweeping the number of CPU cores
// (interleaved across sockets) with and without the two GPUs.
//
// Paper shapes: near-linear CPU scaling to ~16-20 cores (flight 1 scales best,
// flight 2 worst); adding 2 GPUs is worth ~8-10 extra cores for flight 1 and
// several extra CPU *sockets* for flights 2-4 (join-heavy, random-access-bound).
//
//   bench_fig6_scalability [--check] [google-benchmark flags]
//
// --check exits nonzero (with "CHECK FAILED:" on stderr) unless every flight's
// CPU-only modeled time, summed over its queries, never increases as cores
// are added. (Whether hybrid beats CPU-only at equal cores is not gated yet.)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "bench_util.h"

namespace {

using hetex::bench::SsbBenchEnv;
using hetex::plan::ExecPolicy;

constexpr double kScale = 0.5;
constexpr uint64_t kGpuCapacity = 48ull << 20;
const int kCorePoints[] = {1, 2, 4, 8, 16, 24};

SsbBenchEnv* env = nullptr;
// flight (1-4) -> "cores/gpus" -> summed modeled seconds over the flight.
std::map<int, std::map<std::string, double>> flight_time;

void RegisterAll() {
  const int flights[4] = {3, 3, 4, 3};
  for (int f = 1; f <= 4; ++f) {
    for (int i = 1; i <= flights[f - 1]; ++i) {
      const auto spec = env->ssb->Query(f, i);
      for (int cores : kCorePoints) {
        for (int gpus : {0, 2}) {
          const std::string cfg =
              std::to_string(cores) + "c/" + std::to_string(gpus) + "g";
          const std::string name = "fig6/Q" + std::to_string(f) + "." +
                                   std::to_string(i) + "/" + cfg;
          hetex::bench::RegisterModeled(name, [spec, cores, gpus, f, cfg] {
            ExecPolicy policy = gpus == 0 ? ExecPolicy::CpuOnly(cores)
                                          : ExecPolicy::Hybrid(cores, {0, 1});
            auto r = env->RunProteus(spec, policy);
            if (r.status.ok()) flight_time[f][cfg] += r.modeled_seconds;
            return r;
          });
        }
      }
    }
  }
}

void PrintSummary() {
  std::printf("\n=== Figure 6 summary: speed-up over single-threaded CPU, per "
              "query flight ===\n");
  std::printf("%-10s", "cores");
  for (int cores : kCorePoints) std::printf(" %6dc", cores);
  std::printf("\n");
  for (int f = 1; f <= 4; ++f) {
    const double base = flight_time[f]["1c/0g"];
    for (int gpus : {0, 2}) {
      std::printf("Q%d (%dgpu) ", f, gpus);
      for (int cores : kCorePoints) {
        const std::string cfg =
            std::to_string(cores) + "c/" + std::to_string(gpus) + "g";
        const double t = flight_time[f][cfg];
        std::printf(" %6.1fx", t > 0 ? base / t : 0.0);
      }
      std::printf("\n");
    }
  }
  std::printf("paper: CPU-only scaling coefficients ~87.5%%/65%%/74%%/77%% per "
              "core (flights 1-4); 2 GPUs ~= 8-10 cores for flight 1, more for "
              "flights 2-4\n");
}

/// The --check gate: CPU-only flight sums must not increase with cores.
bool CpuScalingIsMonotone() {
  bool ok = true;
  for (int f = 1; f <= 4; ++f) {
    double prev = 0;
    int prev_cores = 0;
    for (int cores : kCorePoints) {
      const double t = flight_time[f][std::to_string(cores) + "c/0g"];
      if (t <= 0) {
        std::fprintf(stderr, "CHECK FAILED: flight %d has no CPU-only time at "
                             "%d cores\n", f, cores);
        ok = false;
      } else if (prev > 0 && t > prev) {
        std::fprintf(stderr, "CHECK FAILED: flight %d CPU-only time rose from "
                             "%.6fs at %d cores to %.6fs at %d cores\n",
                     f, prev, prev_cores, t, cores);
        ok = false;
      }
      prev = t;
      prev_cores = cores;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  SsbBenchEnv e(kScale, /*paper_sf=*/1000, kGpuCapacity,
                {/*customer=*/600'000, /*supplier=*/150'000, /*part=*/400'000});
  env = &e;
  RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return check && !CpuScalingIsMonotone() ? 1 : 0;
}
