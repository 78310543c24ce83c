#ifndef HETEX_SIM_TOPOLOGY_H_
#define HETEX_SIM_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/bandwidth.h"
#include "sim/cost_model.h"

namespace hetex::sim {

/// Kind of compute device.
enum class DeviceType { kCpu, kGpu };

/// \brief Identifies a compute device: a CPU socket or a GPU.
///
/// HetExchange instances are pinned to devices; per the paper (§4.2) every pipeline
/// carries both a CPU and a GPU affinity and uses whichever matches its provider.
struct DeviceId {
  DeviceType type = DeviceType::kCpu;
  int index = 0;

  static DeviceId Cpu(int socket) { return {DeviceType::kCpu, socket}; }
  static DeviceId Gpu(int gpu) { return {DeviceType::kGpu, gpu}; }

  bool is_cpu() const { return type == DeviceType::kCpu; }
  bool is_gpu() const { return type == DeviceType::kGpu; }

  friend bool operator==(const DeviceId& a, const DeviceId& b) {
    return a.type == b.type && a.index == b.index;
  }
  friend bool operator!=(const DeviceId& a, const DeviceId& b) { return !(a == b); }

  std::string ToString() const {
    return (is_cpu() ? "cpu" : "gpu") + std::to_string(index);
  }
};

/// Identifies a memory node (a socket's DRAM or a GPU's device memory).
using MemNodeId = int;
inline constexpr MemNodeId kInvalidMemNode = -1;

/// Kind of interconnect link (see Topology::Link).
enum class LinkKind { kPcie, kPeer, kInterSocket };

/// One step of a route: the link a block crosses and the node it lands on.
struct Hop {
  int link;
  MemNodeId node;
};

/// The hops of one route (at most two: a staged GPU<->GPU move).
struct Hops {
  Hop hops[2];
  int size = 0;

  const Hop* begin() const { return hops; }
  const Hop* end() const { return hops + size; }
};

/// How a device can reach a memory node.
enum class MemAccess {
  kNone,        ///< not addressable (e.g. host code touching GPU memory)
  kLocal,       ///< full-bandwidth local access
  kRemotePcie,  ///< addressable but every access crosses PCIe (UVA-style)
};

/// \brief Static + dynamic description of the simulated heterogeneous server.
///
/// Owns the virtual-time bandwidth resources: one cross-session DramServer per
/// socket DRAM and one BandwidthServer per interconnect link. Capacities are
/// modeled numbers (used for fits-in-GPU-memory decisions); physical allocation
/// is on demand and much smaller.
class Topology {
 public:
  struct Options {
    int num_sockets = 2;
    int cores_per_socket = 12;
    int num_gpus = 2;                       ///< one per socket in the paper server
    uint64_t host_capacity_per_socket = 128ull << 30;
    uint64_t gpu_capacity = 8ull << 30;
    int gpu_sim_threads = 4;                ///< host threads emulating one GPU
    CostModel cost_model = CostModel::Paper();

    /// NVLink-class GPU peer links, one BandwidthServer each: {a, b} connects
    /// gpu a <-> gpu b. Empty (the default) models the paper server — no peer
    /// fabric, GPU<->GPU traffic stages through host memory over PCIe.
    std::vector<std::pair<int, int>> peer_links;
    /// Peer-link bandwidth in B/s; 0 uses cost_model.nvlink_bw.
    double peer_bw = 0;
    /// Inter-socket (UPI/QPI) link bandwidth in B/s. 0 (the default) disables
    /// the link: cross-socket reads are free, exactly the pre-fabric model.
    double inter_socket_bw = 0;
  };

  /// A scale-out fabric shape: `num_gpus` GPUs with a fully-connected NVLink
  /// peer mesh, plus the inter-socket link, everything else the paper server.
  static Options ScaleOutOptions(int num_gpus, int num_sockets = 2);

  struct MemNode {
    MemNodeId id;
    bool is_gpu;
    uint64_t capacity;
    DeviceId owner;
  };

  struct Socket {
    int id;
    int num_cores;
    MemNodeId mem;
  };

  struct GpuInfo {
    int id;
    MemNodeId mem;
    int socket;      ///< socket whose PCIe root it hangs off
    int pcie_link;   ///< id of its PCIe link in the link table
    int sim_threads;
  };

  /// \brief One interconnect link: a serially-shared virtual-time resource.
  ///
  /// Every link lives in one table with one id space — PCIe links in GPU
  /// order, then peer links in Options::peer_links order, then the
  /// inter-socket link — which is also the DMA fault plane's numbering.
  struct Link {
    Link(LinkKind kind, int a, int b, double rate, double latency)
        : kind(kind), a(a), b(b), server(rate, latency) {}

    LinkKind kind;
    int a;  ///< kPcie: the GPU; kPeer: one GPU; kInterSocket: -1
    int b;  ///< kPcie: the GPU's socket; kPeer: the other GPU; kInterSocket: -1
    BandwidthServer server;
  };

  explicit Topology(const Options& options);

  /// The paper's evaluation server: 2 sockets × 12 cores, 2 GPUs (8 GB each).
  static Topology PaperServer() { return Topology(Options{}); }

  const Options& options() const { return options_; }
  const CostModel& cost_model() const { return options_.cost_model; }

  int num_sockets() const { return static_cast<int>(sockets_.size()); }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  int num_cores() const { return num_sockets() * options_.cores_per_socket; }
  int num_mem_nodes() const { return static_cast<int>(mem_nodes_.size()); }

  const Socket& socket(int i) const { return sockets_.at(i); }
  const GpuInfo& gpu(int i) const { return gpus_.at(i); }
  const MemNode& mem_node(MemNodeId id) const { return mem_nodes_.at(id); }

  /// Memory node local to a device.
  MemNodeId LocalMemNode(DeviceId dev) const {
    return dev.is_cpu() ? sockets_.at(dev.index).mem : gpus_.at(dev.index).mem;
  }

  /// The socket that controls a device (for GPUs: the PCIe-attached socket).
  int HostSocketOf(DeviceId dev) const {
    return dev.is_cpu() ? dev.index : gpus_.at(dev.index).socket;
  }

  /// Access class of `dev` touching `node` (see MemAccess).
  MemAccess CanAccess(DeviceId dev, MemNodeId node) const;

  /// PCIe link used to move data between host memory and a GPU's memory.
  int PcieLinkOf(int gpu) const { return gpus_.at(gpu).pcie_link; }

  /// Peer link directly connecting two GPUs, or -1 when there is none and a
  /// GPU<->GPU move must stage through host memory over two PCIe hops.
  int PeerLinkOf(int gpu_a, int gpu_b) const;

  /// The hops a block takes from memory node `src` to `dst` — the one
  /// statement of the routing policy, shared by the mem-move and the coster:
  ///   - host <-> GPU: one hop on that GPU's PCIe link;
  ///   - GPU -> GPU: the peer link when the fabric has one, else two PCIe
  ///     hops staged through the source GPU's socket memory;
  ///   - host -> another socket's host: the inter-socket link when modeled;
  ///   - same node (or an unmodeled inter-socket link): no hops.
  Hops Route(MemNodeId src, MemNodeId dst) const;

  /// Seconds `bytes` occupy link `id` on top of its per-transfer setup
  /// latency. A PCIe transfer out of pageable (unpinned) host memory runs at
  /// the pageable DMA rate; every other transfer at the link's own rate.
  double TransferSeconds(int id, double bytes, bool pageable) const {
    const Link& l = link(id);
    return bytes / (pageable && l.kind == LinkKind::kPcie
                        ? cost_model().pcie_pageable_bw
                        : l.server.rate());
  }

  /// The link table (see Link).
  int num_links() const { return static_cast<int>(links_.size()); }
  Link& link(int id) { return *links_.at(id); }
  const Link& link(int id) const { return *links_.at(id); }
  /// PCIe links are the first num_gpus() entries of the table.
  int num_pcie_links() const { return num_gpus(); }
  BandwidthServer& pcie_link(int l) { return link(l).server; }
  const BandwidthServer& pcie_link(int l) const { return link(l).server; }
  DramServer& socket_dram(int socket) { return *socket_dram_.at(socket); }
  const DramServer& socket_dram(int socket) const { return *socket_dram_.at(socket); }

  /// Absolute virtual time by which every interconnect link — PCIe, GPU peer
  /// and inter-socket — is idle. Sessions anchored at (or past) this horizon
  /// see fresh interconnects — the session-scoped replacement for the old
  /// rewind-all-clocks reset, safe with other queries still in flight.
  VTime LinkHorizon() const {
    VTime h = 0;
    for (const auto& l : links_) h = MaxT(h, l->server.free_at());
    return h;
  }

  /// Absolute virtual time past every socket DRAM timeline's last boundary:
  /// all closed execution-phase intervals end at or before it, so a session
  /// anchored here sees uncontended DRAM. Pure CPU work leaves no trace on
  /// the interconnect links, so without this term a CPU-only system would
  /// anchor every arrival at epoch 0 — on top of all past queries' intervals.
  VTime DramHorizon() const {
    VTime h = 0;
    for (const auto& dram : socket_dram_) h = MaxT(h, dram->horizon());
    return h;
  }

  /// Socket of a core index in [0, num_cores), interleaved across sockets as the
  /// paper does for its scalability experiments ("we interleave the CPU cores
  /// between the two sockets").
  int SocketOfCore(int core) const { return core % num_sockets(); }

  /// Aggregate modeled GPU memory capacity, for fits-in-GPU decisions (Fig. 4 vs 5).
  uint64_t AggregateGpuCapacity() const {
    uint64_t total = 0;
    for (const auto& g : gpus_) total += mem_nodes_[g.mem].capacity;
    return total;
  }

  std::string ToString() const { return Describe(); }

  /// Full fabric description: sockets, GPUs, per-link type/bandwidth and peer
  /// adjacency. Pass a session epoch (>= 0) to additionally print the live
  /// per-link and per-socket backlog that a query anchored there would see.
  std::string Describe(VTime epoch = -1.0) const;

 private:
  Options options_;
  std::vector<Socket> sockets_;
  std::vector<GpuInfo> gpus_;
  std::vector<MemNode> mem_nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  int inter_socket_link_ = -1;  ///< link id, -1 when not modeled
  std::vector<std::unique_ptr<DramServer>> socket_dram_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_TOPOLOGY_H_
