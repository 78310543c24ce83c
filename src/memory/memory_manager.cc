#include "memory/memory_manager.h"

#include <cstdlib>

#include "common/logging.h"

namespace hetex::memory {

namespace {
uint64_t RoundUp64(uint64_t bytes) { return (bytes + 63) & ~uint64_t{63}; }
}  // namespace

MemoryManager::~MemoryManager() {
  for (auto& [ptr, bytes] : allocations_) std::free(ptr);
}

Result<void*> MemoryManager::Allocate(uint64_t bytes) {
  const uint64_t rounded = RoundUp64(bytes == 0 ? 64 : bytes);
  uint64_t prev = used_.fetch_add(rounded, std::memory_order_relaxed);
  if (prev + rounded > capacity_) {
    used_.fetch_sub(rounded, std::memory_order_relaxed);
    return Status::OutOfMemory("node " + std::to_string(node_) + ": requested " +
                               std::to_string(bytes) + "B, available " +
                               std::to_string(capacity_ - prev) + "B");
  }
  void* ptr = std::aligned_alloc(64, rounded);
  if (ptr == nullptr) {
    used_.fetch_sub(rounded, std::memory_order_relaxed);
    return Status::OutOfMemory("host allocation failed");
  }
  std::lock_guard<std::mutex> lock(mu_);
  allocations_[ptr] = rounded;
  return ptr;
}

void MemoryManager::Free(void* ptr) {
  if (ptr == nullptr) return;
  uint64_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = allocations_.find(ptr);
    HETEX_CHECK(it != allocations_.end()) << "Free of unknown pointer";
    bytes = it->second;
    allocations_.erase(it);
  }
  std::free(ptr);
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace hetex::memory
