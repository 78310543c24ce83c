#include "sim/topology.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace hetex::sim {
namespace {

int CountLinks(const Topology& topo, LinkKind kind) {
  int n = 0;
  for (int l = 0; l < topo.num_links(); ++l) n += topo.link(l).kind == kind;
  return n;
}

using HopList = std::vector<std::pair<int, MemNodeId>>;

HopList RouteOf(const Topology& topo, MemNodeId src, MemNodeId dst) {
  HopList out;
  for (const Hop& h : topo.Route(src, dst)) out.emplace_back(h.link, h.node);
  return out;
}

TEST(Topology, PaperServerShape) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.num_sockets(), 2);
  EXPECT_EQ(topo.num_cores(), 24);
  EXPECT_EQ(topo.num_gpus(), 2);
  EXPECT_EQ(topo.num_mem_nodes(), 4);  // 2 host + 2 device
}

TEST(Topology, GpusAlternateSockets) {
  Topology::Options options;
  options.num_gpus = 4;
  Topology topo(options);
  EXPECT_EQ(topo.gpu(0).socket, 0);
  EXPECT_EQ(topo.gpu(1).socket, 1);
  EXPECT_EQ(topo.gpu(2).socket, 0);
  EXPECT_EQ(topo.gpu(3).socket, 1);
}

TEST(Topology, LocalMemNodes) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Cpu(0)), topo.socket(0).mem);
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Cpu(1)), topo.socket(1).mem);
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Gpu(0)), topo.gpu(0).mem);
  EXPECT_NE(topo.LocalMemNode(DeviceId::Gpu(0)), topo.LocalMemNode(DeviceId::Gpu(1)));
}

TEST(Topology, AccessMatrix) {
  Topology topo = Topology::PaperServer();
  const auto cpu0 = DeviceId::Cpu(0);
  const auto gpu0 = DeviceId::Gpu(0);
  const auto gpu1 = DeviceId::Gpu(1);

  // Host reaches any socket DRAM, never device memory.
  EXPECT_EQ(topo.CanAccess(cpu0, topo.socket(0).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(cpu0, topo.socket(1).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(cpu0, topo.gpu(0).mem), MemAccess::kNone);

  // GPU: own memory local, host over PCIe (UVA), no peer access.
  EXPECT_EQ(topo.CanAccess(gpu0, topo.gpu(0).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(gpu0, topo.socket(0).mem), MemAccess::kRemotePcie);
  EXPECT_EQ(topo.CanAccess(gpu0, topo.gpu(1).mem), MemAccess::kNone);
  EXPECT_EQ(topo.CanAccess(gpu1, topo.gpu(0).mem), MemAccess::kNone);
}

TEST(Topology, CoresInterleaveAcrossSockets) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.SocketOfCore(0), 0);
  EXPECT_EQ(topo.SocketOfCore(1), 1);
  EXPECT_EQ(topo.SocketOfCore(2), 0);
  EXPECT_EQ(topo.SocketOfCore(23), 1);
}

TEST(Topology, AggregateGpuCapacity) {
  Topology::Options options;
  options.gpu_capacity = 1ull << 30;
  Topology topo(options);
  EXPECT_EQ(topo.AggregateGpuCapacity(), 2ull << 30);
}

TEST(Topology, DedicatedPcieLinkPerGpu) {
  Topology topo = Topology::PaperServer();
  EXPECT_NE(topo.PcieLinkOf(0), topo.PcieLinkOf(1));
}

TEST(Topology, LinkHorizonTracksBusiestLink) {
  Topology topo = Topology::PaperServer();
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), 0.0);
  topo.pcie_link(0).Reserve(1 << 20, 0.0);
  const auto w1 = topo.pcie_link(1).Reserve(4 << 20, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), w1.end);
  // A session anchored at the horizon sees every link idle.
  const auto w = topo.pcie_link(0).Reserve(1 << 20, 0.0, topo.LinkHorizon());
  EXPECT_DOUBLE_EQ(w.start, 0.0);
}

TEST(Topology, ScaleOutFabricShape) {
  Topology topo(Topology::ScaleOutOptions(4));
  EXPECT_EQ(topo.num_gpus(), 4);
  // Fully-connected NVLink mesh: C(4,2) undirected peer links, every pair
  // directly reachable, plus the inter-socket link.
  EXPECT_EQ(CountLinks(topo, LinkKind::kPeer), 6);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        EXPECT_EQ(topo.PeerLinkOf(a, b), -1);
      } else {
        EXPECT_GE(topo.PeerLinkOf(a, b), 0);
        EXPECT_EQ(topo.PeerLinkOf(a, b), topo.PeerLinkOf(b, a));
      }
    }
  }
  ASSERT_EQ(CountLinks(topo, LinkKind::kInterSocket), 1);
  EXPECT_DOUBLE_EQ(topo.link(topo.num_links() - 1).server.rate(),
                   topo.cost_model().inter_socket_bw);
  EXPECT_DOUBLE_EQ(topo.link(topo.PeerLinkOf(0, 1)).server.rate(),
                   topo.cost_model().nvlink_bw);
}

TEST(Topology, LinkTableOrdersPcieThenPeerThenInterSocket) {
  Topology topo(Topology::ScaleOutOptions(3));
  ASSERT_EQ(topo.num_links(), 3 + 3 + 1);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(topo.PcieLinkOf(g), g);
    EXPECT_EQ(topo.link(g).kind, LinkKind::kPcie);
    EXPECT_EQ(topo.link(g).a, g);
    EXPECT_EQ(topo.link(g).b, topo.gpu(g).socket);
  }
  // Peer links in Options::peer_links order: (0,1), (0,2), (1,2).
  EXPECT_EQ(topo.PeerLinkOf(0, 1), 3);
  EXPECT_EQ(topo.PeerLinkOf(0, 2), 4);
  EXPECT_EQ(topo.PeerLinkOf(2, 1), 5);
  EXPECT_EQ(topo.link(6).kind, LinkKind::kInterSocket);
}

TEST(Topology, RouteStatesTheRoutingPolicy) {
  Topology topo(Topology::ScaleOutOptions(4));
  const MemNodeId host0 = topo.socket(0).mem;
  const MemNodeId host1 = topo.socket(1).mem;
  const MemNodeId gpu1 = topo.gpu(1).mem;
  const MemNodeId gpu2 = topo.gpu(2).mem;
  EXPECT_EQ(RouteOf(topo, host0, host0), HopList{});
  // Host <-> GPU: that GPU's PCIe link, whatever the socket.
  EXPECT_EQ(RouteOf(topo, host0, gpu1), (HopList{{topo.PcieLinkOf(1), gpu1}}));
  EXPECT_EQ(RouteOf(topo, gpu1, host0), (HopList{{topo.PcieLinkOf(1), host0}}));
  // GPU -> GPU over the peer link when the mesh has one.
  EXPECT_EQ(RouteOf(topo, gpu1, gpu2), (HopList{{topo.PeerLinkOf(1, 2), gpu2}}));
  // Host -> another socket: the inter-socket link.
  EXPECT_EQ(RouteOf(topo, host0, host1), (HopList{{topo.num_links() - 1, host1}}));

  // No mesh and no modeled inter-socket link: GPU -> GPU stages through the
  // source GPU's socket over two PCIe hops; cross-socket reads are free.
  Topology::Options bare = Topology::ScaleOutOptions(4);
  bare.peer_links.clear();
  bare.inter_socket_bw = 0;
  Topology staged(bare);
  const MemNodeId via = staged.socket(staged.gpu(1).socket).mem;
  EXPECT_EQ(RouteOf(staged, gpu1, gpu2),
            (HopList{{staged.PcieLinkOf(1), via}, {staged.PcieLinkOf(2), gpu2}}));
  EXPECT_EQ(RouteOf(staged, host0, host1), HopList{});
}

TEST(Topology, ScaleOutWithZeroGpusIsACpuOnlyFabric) {
  Topology topo(Topology::ScaleOutOptions(0));
  EXPECT_EQ(topo.num_gpus(), 0);
  EXPECT_EQ(topo.num_pcie_links(), 0);
  // NUMA survives without GPUs: the inter-socket link is the only link.
  ASSERT_EQ(topo.num_links(), 1);
  EXPECT_EQ(topo.link(0).kind, LinkKind::kInterSocket);
  EXPECT_EQ(topo.num_mem_nodes(), 2);
}

TEST(Topology, DefaultOptionsHaveNoFabricLinks) {
  // The paper server: no peer mesh, no modeled inter-socket link — the exact
  // pre-fabric shape, so default-constructed systems stay bit-identical.
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.num_links(), topo.num_pcie_links());
  EXPECT_EQ(CountLinks(topo, LinkKind::kPcie), 2);
}

TEST(Topology, DescribePrintsFabricAndLiveBacklog) {
  Topology topo(Topology::ScaleOutOptions(2));
  const std::string fabric = topo.Describe();
  EXPECT_NE(fabric.find("link 2: peer gpu0 <-> gpu1"), std::string::npos);
  EXPECT_NE(fabric.find("link 3: inter-socket"), std::string::npos);
  EXPECT_EQ(fabric.find("backlog"), std::string::npos);  // static view

  topo.link(topo.PeerLinkOf(0, 1)).server.Reserve(64 << 20, 0.0);
  const std::string live = topo.Describe(/*epoch=*/0.0);
  EXPECT_NE(live.find("backlog"), std::string::npos);
  // The drained view at the horizon reports zero backlog everywhere.
  const std::string drained = topo.Describe(topo.LinkHorizon());
  EXPECT_NE(drained.find("backlog 0 ms"), std::string::npos);

  // A socket's backlog is the workers whose phases overlap the epoch, closed
  // or open — the coster's reading — not whatever is open at any time.
  DramServer& dram = topo.socket_dram(1);
  dram.Release(dram.Register(/*session=*/1, 1.0, 3), 2.0);  // closed [1, 2)
  const uint64_t later = dram.Register(/*session=*/2, 5.0, 4);
  auto socket1 = [&](VTime epoch) {
    const std::string d = topo.Describe(epoch);
    const size_t at = d.find("  socket1:");
    return d.substr(at, d.find('\n', at) - at);
  };
  EXPECT_NE(socket1(1.5).find("backlog 3 worker(s)"), std::string::npos);
  EXPECT_NE(socket1(3.0).find("backlog 0 worker(s)"), std::string::npos);
  EXPECT_NE(socket1(6.0).find("backlog 4 worker(s)"), std::string::npos);
  dram.Release(later);
}

TEST(Topology, LinkHorizonCoversPeerAndInterSocketLinks) {
  Topology topo(Topology::ScaleOutOptions(2));
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), 0.0);
  const auto peer = topo.link(topo.PeerLinkOf(0, 1)).server.Reserve(64 << 20, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), peer.end);
  const auto upi = topo.link(topo.num_links() - 1).server.Reserve(1ull << 30, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), MaxT(peer.end, upi.end));
}

TEST(CostModel, AccessClassesFollowThresholds) {
  CostModel cm = CostModel::Paper();
  EXPECT_EQ(cm.RandomAccessClass(512 << 10), 0);   // L2-resident
  EXPECT_EQ(cm.RandomAccessClass(10 << 20), 1);    // LLC
  EXPECT_EQ(cm.RandomAccessClass(100 << 20), 2);   // DRAM
}

TEST(CostModel, WorkCostIsMaxOfBandwidthAndCompute) {
  CostModel cm = CostModel::Paper();
  CostStats bw_bound;
  bw_bound.bytes_read = 1 << 30;
  const double t_bw = cm.WorkCost(bw_bound, cm.cpu, 6e9);
  EXPECT_NEAR(t_bw, (1 << 30) / 6e9, 1e-9);

  CostStats compute_bound;
  compute_bound.far_accesses = 1'000'000;
  const double t_cpu = cm.WorkCost(compute_bound, cm.cpu, 6e9);
  // 1M far accesses: latency-bound (12 ns each) vs 64 MB of line traffic.
  EXPECT_NEAR(t_cpu, 1e6 * cm.cpu.far_access_cost, 1e-9);
}

TEST(CostModel, FarAccessesConsumeLineBandwidth) {
  CostModel cm = CostModel::Paper();
  CostStats s;
  s.far_accesses = 10'000'000;
  // At a crowded socket's 3 GB/s share, 640 MB of 64B line traffic (213 ms)
  // exceeds the 120 ms serial latency component: bandwidth binds.
  const double t = cm.WorkCost(s, cm.cpu, 3e9);
  EXPECT_NEAR(t, 10e6 * 64 / 3e9, 1e-6);
}

TEST(CostModel, ScaleFixedLatenciesLeavesBandwidthAlone) {
  CostModel cm = CostModel::Paper();
  const double bw = cm.pcie_bw;
  const double tuple = cm.cpu.tuple_cost;
  cm.ScaleFixedLatencies(0.01);
  EXPECT_DOUBLE_EQ(cm.pcie_bw, bw);
  EXPECT_DOUBLE_EQ(cm.cpu.tuple_cost, tuple);
  EXPECT_DOUBLE_EQ(cm.router_init_latency, 1e-2 * 0.01);
  EXPECT_DOUBLE_EQ(cm.kernel_launch_latency, 8e-6 * 0.01);
}

}  // namespace
}  // namespace hetex::sim
