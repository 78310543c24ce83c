#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "memory/block_manager.h"
#include "memory/memory_manager.h"
#include "sim/topology.h"

namespace hetex::memory {
namespace {

TEST(MemoryManager, AllocateTracksUsage) {
  MemoryManager mm(0, 1 << 20);
  auto r = mm.Allocate(1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(mm.used(), 1024u);  // rounded to 64
  mm.Free(r.value());
  EXPECT_EQ(mm.used(), 0u);
}

TEST(MemoryManager, AllocationIsAligned) {
  MemoryManager mm(0, 1 << 20);
  auto r = mm.Allocate(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(r.value()) % 64, 0u);
  mm.Free(r.value());
}

TEST(MemoryManager, CapacityEnforced) {
  MemoryManager mm(0, 4096);
  auto a = mm.Allocate(4096);
  ASSERT_TRUE(a.ok());
  auto b = mm.Allocate(64);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kOutOfMemory);
  mm.Free(a.value());
  EXPECT_TRUE(mm.Allocate(64).ok());
}

TEST(BlockManager, AcquireReleaseRecycles) {
  BlockManager bm(0, 4096, 4);
  EXPECT_EQ(bm.free_blocks(), 4u);
  Block* b = bm.Acquire();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->capacity, 4096u);
  EXPECT_EQ(b->node, 0);
  EXPECT_EQ(bm.in_use(), 1u);
  bm.Release(b);
  EXPECT_EQ(bm.free_blocks(), 4u);
}

TEST(BlockManager, ExhaustionReturnsNull) {
  BlockManager bm(0, 64, 2);
  Block* a = bm.Acquire();
  Block* b = bm.Acquire();
  EXPECT_EQ(bm.Acquire(), nullptr);
  bm.Release(a);
  bm.Release(b);
}

TEST(BlockManager, RefcountedMulticastRelease) {
  BlockManager bm(0, 64, 2);
  Block* b = bm.Acquire();
  BlockManager::AddRef(b);  // two logical holders
  bm.Release(b);
  EXPECT_EQ(bm.in_use(), 1u);  // still held
  bm.Release(b);
  EXPECT_EQ(bm.in_use(), 0u);
}

TEST(BlockManager, AcquireBatch) {
  BlockManager bm(0, 64, 8);
  Block* out[5];
  EXPECT_EQ(bm.AcquireBatch(out, 5), 5u);
  EXPECT_EQ(bm.free_blocks(), 3u);
  for (Block* b : out) bm.Release(b);
}

class BlockRegistryTest : public ::testing::Test {
 protected:
  BlockRegistryTest()
      : topo_(sim::Topology::Options{}),
        registry_(topo_, {/*block_bytes=*/4096, /*host=*/32, /*gpu=*/16,
                          /*remote_batch=*/4}) {}
  sim::Topology topo_;
  BlockRegistry registry_;
};

TEST_F(BlockRegistryTest, LocalAcquireSkipsRemotePath) {
  Block* b = registry_.Acquire(0, 0);
  EXPECT_EQ(registry_.remote_roundtrips(), 0u);
  registry_.Release(b, 0);
}

TEST_F(BlockRegistryTest, RemoteAcquisitionBatches) {
  const sim::MemNodeId gpu_node = topo_.gpu(0).mem;
  const sim::MemNodeId host = topo_.socket(0).mem;
  std::vector<Block*> got;
  for (int i = 0; i < 4; ++i) got.push_back(registry_.Acquire(gpu_node, host));
  // 4 acquisitions from one batch: exactly one remote round-trip.
  EXPECT_EQ(registry_.remote_roundtrips(), 1u);
  got.push_back(registry_.Acquire(gpu_node, host));
  EXPECT_EQ(registry_.remote_roundtrips(), 2u);
  for (Block* b : got) registry_.Release(b, host);
  registry_.FlushReleases();
}

TEST_F(BlockRegistryTest, RemoteReleasesBatchToo) {
  const sim::MemNodeId gpu_node = topo_.gpu(0).mem;
  const sim::MemNodeId host = topo_.socket(0).mem;
  std::vector<Block*> got;
  for (int i = 0; i < 4; ++i) got.push_back(registry_.Acquire(gpu_node, host));
  const uint64_t before = registry_.remote_roundtrips();
  for (int i = 0; i < 3; ++i) registry_.Release(got[i], host);
  EXPECT_EQ(registry_.remote_roundtrips(), before);  // buffered, no trip yet
  registry_.Release(got[3], host);                    // 4th hits batch size
  EXPECT_EQ(registry_.remote_roundtrips(), before + 1);
}

TEST_F(BlockRegistryTest, FlushReturnsEverything) {
  const sim::MemNodeId gpu_node = topo_.gpu(0).mem;
  const sim::MemNodeId host = topo_.socket(0).mem;
  Block* b = registry_.Acquire(gpu_node, host);
  registry_.Release(b, host);
  registry_.FlushReleases();
  EXPECT_EQ(registry_.manager(gpu_node).in_use(), 0u);
}

TEST_F(BlockRegistryTest, StarvedAcquireReclaimsParkedCacheBlocks) {
  const sim::MemNodeId gpu_node = topo_.gpu(0).mem;  // 16-block arena
  const sim::MemNodeId host = topo_.socket(0).mem;
  // Drain the whole GPU arena through the remote path: 16 acquired, and every
  // refill leaves up to remote_batch-1 blocks parked in the prefetch stash.
  std::vector<Block*> held;
  for (int i = 0; i < 13; ++i) held.push_back(registry_.Acquire(gpu_node, host));
  // 13 handed out, 3 parked in the host->gpu prefetch stash: the arena itself
  // is empty. Release 2 remotely — sub-batch, so they park in rc.released too.
  registry_.Release(held.back(), host);
  held.pop_back();
  registry_.Release(held.back(), host);
  held.pop_back();
  EXPECT_EQ(registry_.manager(gpu_node).free_blocks(), 0u);
  // GPU-local acquires must reclaim the parked blocks instead of stalling
  // until the 30s starvation abort: the first two sweep the release batch,
  // the third escalates to confiscating the idle prefetch stash (~5ms).
  std::vector<Block*> local;
  for (int i = 0; i < 3; ++i) {
    Block* b = registry_.Acquire(gpu_node, gpu_node);
    ASSERT_NE(b, nullptr);
    local.push_back(b);
  }
  for (Block* b : local) registry_.Release(b, gpu_node);
  for (Block* b : held) registry_.Release(b, host);
  registry_.FlushReleases();
  EXPECT_EQ(registry_.manager(gpu_node).in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded backpressure: an exhausted arena can delay an Acquire, never hang it.
// ---------------------------------------------------------------------------

TEST(BlockRegistryBackpressure, SustainedExhaustionTimesOutWithNamedStatus) {
  sim::Topology topo{sim::Topology::Options{}};
  BlockRegistry registry(topo,
                         {.block_bytes = 4096,
                          .host_arena_blocks = 4,
                          .gpu_arena_blocks = 4,
                          .remote_batch = 2,
                          .acquire_timeout_seconds = 0.2});
  const sim::MemNodeId host = topo.socket(0).mem;
  std::vector<Block*> held;
  for (int i = 0; i < 4; ++i) {
    Block* b = registry.Acquire(host, host);
    ASSERT_NE(b, nullptr);
    held.push_back(b);
  }
  // Arena empty, nothing reclaimable anywhere: the wait is bounded and the
  // failure is a named status, not the old 30 s abort.
  Status error = Status::OK();
  Block* starved = registry.Acquire(host, host, &error);
  EXPECT_EQ(starved, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted) << error.ToString();

  // Releasing makes the arena healthy again for the next caller.
  for (Block* b : held) registry.Release(b, host);
  Block* again = registry.Acquire(host, host);
  ASSERT_NE(again, nullptr);
  registry.Release(again, host);
  EXPECT_EQ(registry.manager(host).in_use(), 0u);
}

TEST(BlockRegistryBackpressure, CancelFlagWakesBlockedAcquire) {
  sim::Topology topo{sim::Topology::Options{}};
  BlockRegistry registry(topo,
                         {.block_bytes = 4096,
                          .host_arena_blocks = 4,
                          .gpu_arena_blocks = 4,
                          .remote_batch = 2,
                          .acquire_timeout_seconds = 30.0});
  const sim::MemNodeId host = topo.socket(0).mem;
  std::vector<Block*> held;
  for (int i = 0; i < 4; ++i) held.push_back(registry.Acquire(host, host));

  std::atomic<bool> cancel{false};
  Status error = Status::OK();
  Block* result = nullptr;
  std::thread blocked([&] {
    result = registry.Acquire(host, host, &error, &cancel);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.store(true);
  blocked.join();  // wakes well before the 30 s bound
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kCancelled) << error.ToString();
  for (Block* b : held) registry.Release(b, host);
}

TEST(BlockRegistryBackpressure, InjectedStagingSpikeFailsFastWithoutWaiting) {
  sim::FaultOptions fopts;
  fopts.enabled = true;
  fopts.staging_fault_rate = 1.0;
  sim::FaultInjector injector(fopts);

  sim::Topology topo{sim::Topology::Options{}};
  BlockRegistry registry(topo, {.block_bytes = 4096,
                                .host_arena_blocks = 4,
                                .gpu_arena_blocks = 4,
                                .remote_batch = 2});
  registry.set_fault_injector(&injector);
  const sim::MemNodeId host = topo.socket(0).mem;
  const size_t free_before = registry.manager(host).free_blocks();

  Status error = Status::OK();
  Block* b = registry.Acquire(host, host, &error);
  EXPECT_EQ(b, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted) << error.ToString();
  EXPECT_EQ(injector.counters().staging_faults, 1u);
  // The spike rejected the request before touching the (healthy) arena.
  EXPECT_EQ(registry.manager(host).free_blocks(), free_before);
}

TEST_F(BlockRegistryTest, ConcurrentAcquireReleaseIsSafe) {
  const sim::MemNodeId host0 = topo_.socket(0).mem;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        Block* b = registry_.Acquire(host0, host0);
        ASSERT_NE(b, nullptr);
        registry_.Release(b, host0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry_.manager(host0).in_use(), 0u);
}

}  // namespace
}  // namespace hetex::memory
