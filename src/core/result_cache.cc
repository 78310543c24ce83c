#include "core/result_cache.h"

#include <chrono>
#include <cstdlib>

#include "common/logging.h"

namespace hetex::core {

ReuseOptions ReuseOptions::FromEnv() {
  ReuseOptions reuse;
  if (const char* env = std::getenv("HETEX_SHARED_BUILDS")) {
    reuse.shared_builds = std::atoi(env) != 0;
  }
  if (const char* env = std::getenv("HETEX_RESULT_CACHE_MB")) {
    const long mb = std::atol(env);
    if (mb > 0) {
      reuse.result_cache = true;
      reuse.result_cache_bytes = static_cast<uint64_t>(mb) << 20;
    }
  }
  return reuse;
}

uint64_t ResultCache::RowBytes(const std::vector<std::vector<int64_t>>& rows) {
  uint64_t bytes = sizeof(Entry);  // floor so empty results still have weight
  for (const auto& row : rows) bytes += row.size() * sizeof(int64_t);
  return bytes;
}

ResultLease ResultCache::Acquire(const std::string& key, uint64_t query,
                                 sim::VTime epoch,
                                 const QueryControl* control) {
  std::unique_lock<std::mutex> lock(mu_);
  ResultLease lease;
  if (auto it = entries_.find(key); it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    lease.role = ResultLease::Role::kHit;
    lease.rows = it->second.rows;
    ++stats_.hits;
    return lease;
  }
  ++stats_.misses;
  auto it = flights_.find(key);
  if (it == flights_.end()) {
    auto flight = std::make_shared<Flight>();
    flight->producer = query;
    flight->epoch = epoch;
    flights_.emplace(key, std::move(flight));
    lease.role = ResultLease::Role::kProduce;
    return lease;
  }
  const std::shared_ptr<Flight> flight = it->second;
  if (flight->producer == query) {
    lease.role = ResultLease::Role::kProduce;  // a retry keeps its lease
    return lease;
  }
  if (flight->epoch > epoch) {
    // The producer started later in virtual time than the caller: at the
    // caller's epoch it does not exist yet, so there is nothing to wait for.
    lease.role = ResultLease::Role::kExecute;
    return lease;
  }
  while (flight->state == Flight::State::kRunning) {
    if (control != nullptr &&
        (control->cancelled.load(std::memory_order_relaxed) ||
         control->deadline_hit.load(std::memory_order_relaxed))) {
      lease.role = ResultLease::Role::kCancelled;
      return lease;
    }
    // Bounded wait so a cancelled waiter re-checks its control flags even when
    // no publish/fail notification arrives.
    flight_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  if (flight->state == Flight::State::kReady) {
    lease.role = ResultLease::Role::kAttach;
    lease.rows = flight->rows;
    lease.ready_at = flight->ready_at;
    ++stats_.attaches;
  } else {
    lease.role = ResultLease::Role::kExecute;  // failover: execute at own epoch
  }
  return lease;
}

std::shared_ptr<ResultCache::Flight> ResultCache::TakeFlightLocked(
    const std::string& key, uint64_t query) {
  auto it = flights_.find(key);
  HETEX_CHECK(it != flights_.end() && it->second->producer == query)
      << "query " << query << " does not hold the result lease for " << key;
  std::shared_ptr<Flight> flight = std::move(it->second);
  flights_.erase(it);
  return flight;
}

void ResultCache::Publish(const std::string& key, uint64_t query,
                          const std::vector<std::vector<int64_t>>& rows,
                          sim::VTime ready_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Flight> flight = TakeFlightLocked(key, query);
    flight->rows = rows;
    flight->ready_at = ready_at;
    flight->state = Flight::State::kReady;
    InsertLocked(key, rows);
  }
  flight_cv_.notify_all();
}

void ResultCache::Fail(const std::string& key, uint64_t query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TakeFlightLocked(key, query)->state = Flight::State::kFailed;
  }
  flight_cv_.notify_all();
}

void ResultCache::Insert(const std::string& key,
                         const std::vector<std::vector<int64_t>>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, rows);
}

void ResultCache::InsertLocked(const std::string& key,
                               const std::vector<std::vector<int64_t>>& rows) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  const uint64_t entry_bytes = RowBytes(rows);
  if (entry_bytes > max_bytes_) return;  // never evict everything for one entry
  while (bytes_ + entry_bytes > max_bytes_ && !lru_.empty()) {
    auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(key);
  Entry entry;
  entry.rows = rows;
  entry.bytes = entry_bytes;
  entry.lru_it = lru_.begin();
  bytes_ += entry_bytes;
  entries_.emplace(key, std::move(entry));
  ++stats_.insertions;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

}  // namespace hetex::core
