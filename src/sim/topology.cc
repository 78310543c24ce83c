#include "sim/topology.h"

#include <sstream>

namespace hetex::sim {

Topology::Topology(const Options& options) : options_(options) {
  HETEX_CHECK(options.num_sockets > 0);
  HETEX_CHECK(options.cores_per_socket > 0);
  HETEX_CHECK(options.num_gpus >= 0);

  const CostModel& cm = options_.cost_model;

  for (int s = 0; s < options.num_sockets; ++s) {
    MemNodeId node = static_cast<MemNodeId>(mem_nodes_.size());
    mem_nodes_.push_back(MemNode{node, /*is_gpu=*/false,
                                 options.host_capacity_per_socket, DeviceId::Cpu(s)});
    sockets_.push_back(Socket{s, options.cores_per_socket, node});
    socket_dram_.push_back(
        std::make_unique<DramServer>(cm.cpu_socket_bw, cm.cpu_core_bw));
  }

  for (int g = 0; g < options.num_gpus; ++g) {
    MemNodeId node = static_cast<MemNodeId>(mem_nodes_.size());
    mem_nodes_.push_back(
        MemNode{node, /*is_gpu=*/true, options.gpu_capacity, DeviceId::Gpu(g)});
    // GPUs are distributed round-robin over sockets: one per socket on the paper
    // server (dedicated PCIe 3.0 x16 per GPU).
    const int socket = g % options.num_sockets;
    gpus_.push_back(GpuInfo{g, node, socket, num_links(), options.gpu_sim_threads});
    links_.push_back(std::make_unique<Link>(LinkKind::kPcie, g, socket, cm.pcie_bw,
                                            cm.dma_latency));
  }

  const double peer_bw = options.peer_bw > 0 ? options.peer_bw : cm.nvlink_bw;
  for (const auto& [a, b] : options.peer_links) {
    HETEX_CHECK(a >= 0 && a < num_gpus() && b >= 0 && b < num_gpus() && a != b)
        << "bad peer link gpu" << a << "<->gpu" << b;
    HETEX_CHECK(PeerLinkOf(a, b) < 0)
        << "duplicate peer link gpu" << a << "<->gpu" << b;
    links_.push_back(std::make_unique<Link>(LinkKind::kPeer, a, b, peer_bw,
                                            cm.peer_dma_latency));
  }

  if (options.inter_socket_bw > 0 && options.num_sockets > 1) {
    inter_socket_link_ = num_links();
    links_.push_back(std::make_unique<Link>(LinkKind::kInterSocket, -1, -1,
                                            options.inter_socket_bw,
                                            cm.inter_socket_latency));
  }
}

Topology::Options Topology::ScaleOutOptions(int num_gpus, int num_sockets) {
  Options options;
  options.num_sockets = num_sockets;
  options.num_gpus = num_gpus;
  for (int a = 0; a < num_gpus; ++a) {
    for (int b = a + 1; b < num_gpus; ++b) options.peer_links.emplace_back(a, b);
  }
  options.inter_socket_bw = options.cost_model.inter_socket_bw;
  return options;
}

int Topology::PeerLinkOf(int gpu_a, int gpu_b) const {
  for (int l = num_gpus(); l < num_links(); ++l) {
    const Link& p = *links_[l];
    if (p.kind == LinkKind::kPeer &&
        ((p.a == gpu_a && p.b == gpu_b) || (p.a == gpu_b && p.b == gpu_a))) {
      return l;
    }
  }
  return -1;
}

Hops Topology::Route(MemNodeId src, MemNodeId dst) const {
  Hops route;
  auto add = [&](int link, MemNodeId node) {
    route.hops[route.size++] = Hop{link, node};
  };
  if (src == dst) return route;
  const MemNode& s = mem_node(src);
  const MemNode& d = mem_node(dst);
  if (s.is_gpu && d.is_gpu) {
    const int peer = PeerLinkOf(s.owner.index, d.owner.index);
    if (peer >= 0) {
      add(peer, dst);
    } else {
      const GpuInfo& from = gpus_[s.owner.index];
      add(from.pcie_link, sockets_[from.socket].mem);
      add(PcieLinkOf(d.owner.index), dst);
    }
  } else if (s.is_gpu || d.is_gpu) {
    add(PcieLinkOf((s.is_gpu ? s : d).owner.index), dst);
  } else if (inter_socket_link_ >= 0) {
    add(inter_socket_link_, dst);
  }
  return route;
}

MemAccess Topology::CanAccess(DeviceId dev, MemNodeId node) const {
  HETEX_CHECK(node >= 0 && node < num_mem_nodes()) << "bad mem node " << node;
  const MemNode& mn = mem_nodes_[node];
  if (dev.is_cpu()) {
    // Host code reaches any socket's DRAM (NUMA), never GPU device memory.
    return mn.is_gpu ? MemAccess::kNone : MemAccess::kLocal;
  }
  // GPU code reaches its own device memory at full bandwidth, and host DRAM over
  // PCIe (UVA-style zero-copy); peer GPU memory is not addressable.
  if (mn.is_gpu) {
    return mn.owner == dev ? MemAccess::kLocal : MemAccess::kNone;
  }
  return MemAccess::kRemotePcie;
}

std::string Topology::Describe(VTime epoch) const {
  const bool live = epoch >= 0;
  std::ostringstream os;
  os << "Topology: " << num_sockets() << " socket(s) x " << options_.cores_per_socket
     << " cores, " << num_gpus() << " GPU(s), " << num_links() << " link(s)\n";
  for (const auto& s : sockets_) {
    os << "  socket" << s.id << ": mem node " << s.mem << " ("
       << (mem_nodes_[s.mem].capacity >> 20) << " MiB modeled, "
       << socket_dram_[s.id]->total_rate() / 1e9 << " GB/s)";
    if (live) {
      os << " backlog " << socket_dram_[s.id]->active_workers() << " worker(s)";
    }
    os << "\n";
  }
  for (const auto& g : gpus_) {
    os << "  gpu" << g.id << ": mem node " << g.mem << " ("
       << (mem_nodes_[g.mem].capacity >> 20) << " MiB modeled, "
       << cost_model().gpu_mem_bw / 1e9 << " GB/s), PCIe link " << g.pcie_link
       << " -> socket" << g.socket << "\n";
  }
  for (int l = 0; l < num_links(); ++l) {
    const Link& link = *links_[l];
    os << "  link " << l << ": ";
    switch (link.kind) {
      case LinkKind::kPcie:
        os << "PCIe gpu" << link.a << " <-> socket" << link.b;
        break;
      case LinkKind::kPeer:
        os << "peer gpu" << link.a << " <-> gpu" << link.b << ", NVLink-class";
        break;
      case LinkKind::kInterSocket:
        os << "inter-socket, " << num_sockets() << " socket(s)";
        break;
    }
    os << " (" << link.server.rate() / 1e9 << " GB/s)";
    if (live) {
      os << " backlog " << MaxT(0.0, link.server.free_at() - epoch) * 1e3 << " ms";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace hetex::sim
