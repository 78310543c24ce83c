#include "core/system.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace hetex::core {

System::System() : System(Options{}) {}

System::System(Options options)
    : topology_(options.topology),
      fault_(options.faults),
      memory_(topology_),
      blocks_(topology_, options.blocks),
      reuse_(options.reuse),
      tier_policy_(options.tier_policy) {
  blocks_.set_fault_injector(&fault_);
  if (reuse_.result_cache) {
    result_cache_ = std::make_unique<ResultCache>(reuse_.result_cache_bytes);
  }
  dma_ = std::make_unique<sim::DmaEngine>(&topology_);
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    gpus_.push_back(
        std::make_unique<sim::GpuDevice>(topology_.gpu(g), &topology_.cost_model()));
  }
  if (options.codegen.enabled) {
    kernel_cache_ = std::make_unique<jit::KernelCache>(options.codegen);
    kernel_cache_->set_fault_injector(&fault_);
  }
}

std::unique_ptr<jit::DeviceProvider> System::MakeProvider(sim::DeviceId device) {
  std::unique_ptr<jit::DeviceProvider> provider;
  if (device.is_cpu()) {
    provider = std::make_unique<jit::CpuProvider>(device.index, &topology_,
                                                  &memory_, &blocks_);
  } else {
    provider = std::make_unique<jit::GpuProvider>(gpus_.at(device.index).get(),
                                                  &topology_, &memory_, &blocks_);
  }
  provider->set_tier_policy(tier_policy_);
  provider->set_kernel_cache(kernel_cache_.get());
  provider->set_fault_injector(&fault_);
  return provider;
}

std::vector<int> System::AvailableGpusAt(sim::VTime t,
                                         const std::vector<int>& exclude) const {
  std::vector<int> out;
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    bool excluded = false;
    for (int e : exclude) excluded = excluded || e == g;
    if (!excluded && fault_.GpuAvailableAt(g, t)) out.push_back(g);
  }
  return out;
}

Status System::HoldHistory(sim::VTime epoch) {
  std::lock_guard<std::mutex> lock(history_mu_);
  if (epoch < history_watermark_) {
    std::ostringstream os;
    os << std::setprecision(17) << "epoch " << epoch
       << " lies below the timeline watermark " << history_watermark_
       << ": the history it would read was dropped";
    return Status::InvalidArgument(os.str());
  }
  ++history_holds_;
  return Status::OK();
}

sim::VTime System::HoldHistoryAtHorizon() {
  std::lock_guard<std::mutex> lock(history_mu_);
  ++history_holds_;
  return VirtualHorizon();
}

void System::ReleaseHistory() {
  std::lock_guard<std::mutex> lock(history_mu_);
  HETEX_CHECK(history_holds_ > 0) << "history released without a hold";
  if (--history_holds_ > 0) return;
  history_watermark_ = VirtualHorizon();
  topology_.ClearTimelines();
  for (auto& gpu : gpus_) gpu->ClearStream();
}

size_t System::MaxTimelineSegments() const {
  size_t m = 0;
  for (int l = 0; l < topology_.num_links(); ++l) {
    m = std::max(m, topology_.link(l).server.num_segments());
  }
  for (int s = 0; s < topology_.num_sockets(); ++s) {
    m = std::max(m, topology_.socket_dram(s).num_segments());
  }
  for (const auto& gpu : gpus_) m = std::max(m, gpu->stream_segments());
  return m;
}

std::vector<sim::MemNodeId> System::HostNodes() const {
  std::vector<sim::MemNodeId> nodes;
  for (int s = 0; s < topology_.num_sockets(); ++s) {
    nodes.push_back(topology_.socket(s).mem);
  }
  return nodes;
}

std::vector<sim::MemNodeId> System::GpuNodes() const {
  std::vector<sim::MemNodeId> nodes;
  for (int g = 0; g < topology_.num_gpus(); ++g) {
    nodes.push_back(topology_.gpu(g).mem);
  }
  return nodes;
}

}  // namespace hetex::core
