// Topology explorer: inspects the simulated server and probes its virtual-time
// behaviour directly — DMA bandwidth over a PCIe link, kernel launch latency,
// socket bandwidth saturation — the primitives the HetExchange cost shapes are
// built from.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/system.h"
#include "jit/device_provider.h"

using namespace hetex;  // NOLINT — example brevity

int main() {
  core::System system(core::System::Options{});
  sim::Topology& topo = system.topology();
  std::printf("%s\n", topo.ToString().c_str());

  // --- DMA probe: stream 64 x 1MiB blocks host -> gpu0 and measure the modeled
  // bandwidth of the link (queueing included).
  {
    memory::Block* src = system.blocks().Acquire(topo.socket(0).mem,
                                                 topo.socket(0).mem);
    memory::Block* dst =
        system.blocks().Acquire(topo.gpu(0).mem, topo.socket(0).mem);
    sim::VTime last = 0;
    const int kBlocks = 64;
    for (int i = 0; i < kBlocks; ++i) {
      last = system.dma().TransferSync(src->data, dst->data, src->capacity,
                                       topo.PcieLinkOf(0), 0.0);
    }
    const double gb = kBlocks * src->capacity / 1e9;
    std::printf("DMA probe: %.0f MiB host->gpu0 in %.3f ms modeled (%.1f GB/s)\n",
                gb * 1e3 / 1.048576, last * 1e3, gb / last);
    system.blocks().Release(src, topo.socket(0).mem);
    system.blocks().Release(dst, topo.socket(0).mem);
    system.blocks().FlushReleases();
  }

  // --- Kernel probe: launch empty and streaming kernels on gpu0. A session
  // epoch at the resource horizon sees an idle stream (no reset needed).
  {
    const sim::VTime epoch = system.VirtualHorizon();
    sim::GpuDevice& gpu = system.gpu(0);
    auto noop = [](const sim::KernelCtx&) {};
    auto r = gpu.LaunchKernel(noop, gpu.default_grid(), 32, 0.0, epoch);
    std::printf("kernel launch latency: %.1f us modeled\n", (r.end - r.start) * 1e6);

    auto touch = [](const sim::KernelCtx& ctx) {
      ctx.stats->bytes_read += 64 << 20;  // this logical thread streamed 64 MiB
    };
    r = gpu.LaunchKernel(touch, 1, 1, 0.0, epoch);
    std::printf("streaming kernel: 64 MiB at %.0f GB/s modeled (%.3f ms)\n",
                (64 << 20) / (r.end - r.start) / 1e9, (r.end - r.start) * 1e3);
  }

  // --- Socket bandwidth fluid share: per-worker rate vs number of active
  // workers (the Fig. 6/7 scalability mechanism): each worker streams at
  // min(per-worker cap, socket aggregate / workers), as DramServer prices it.
  {
    std::printf("\nsocket0 DRAM fluid share (per-worker GB/s):\n");
    const sim::DramServer& dram = topo.socket_dram(0);
    for (int n = 1; n <= 16; n *= 2) {
      const double rate =
          std::min(dram.per_worker_rate(), dram.total_rate() / n);
      std::printf("  %2d active -> %.2f GB/s each (%.1f aggregate)\n", n,
                  rate / 1e9, n * rate / 1e9);
    }
  }
  return 0;
}
