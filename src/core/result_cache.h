#ifndef HETEX_CORE_RESULT_CACHE_H_
#define HETEX_CORE_RESULT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_control.h"
#include "sim/vtime.h"

namespace hetex::core {

/// Serving-layer reuse knobs (System::Options::reuse). Everything defaults to
/// off: a System with reuse disabled behaves bit-identically to one built
/// before the serving layer existed (test-pinned).
struct ReuseOptions {
  /// Cross-query shared hash-table builds: content-keyed read-only replica
  /// sets with single-flight build deduplication (see HtRegistry).
  bool shared_builds = false;
  /// Cross-query result cache keyed by canonical QuerySpec + table mutation
  /// epochs (see ResultCache / QueryScheduler).
  bool result_cache = false;
  /// LRU capacity of the result cache in row bytes.
  uint64_t result_cache_bytes = 64ull << 20;

  /// Environment knobs: HETEX_SHARED_BUILDS=1 enables shared builds,
  /// HETEX_RESULT_CACHE_MB=N (N > 0) enables the result cache with an N MiB
  /// byte cap. Both absent/0 = everything off.
  static ReuseOptions FromEnv();
};

/// Outcome of ResultCache::Acquire: the caller's role for one result key.
struct ResultLease {
  enum class Role {
    kHit,        ///< the rows are cached: answer from `rows`
    kProduce,    ///< caller holds the key's lease: execute, then Publish or Fail
    kAttach,     ///< the lease holder published: answer from `rows`
    kExecute,    ///< execute without the lease, like a plain miss
    kCancelled,  ///< caller was cancelled (or hit its deadline) while waiting
  };
  Role role = Role::kExecute;
  /// kHit / kAttach: the answer.
  std::vector<std::vector<int64_t>> rows;
  /// kAttach only: absolute virtual time the producer completed at. An
  /// attacher whose epoch is earlier waits until then (charged to its
  /// modeled latency).
  sim::VTime ready_at = 0;
};

/// \brief Bounded cross-query result cache with single-flight production:
/// canonical key -> result rows.
///
/// Keys embed the canonicalized QuerySpec plus the mutation epoch of every
/// table the query reads, so a table mutation changes the key and the stale
/// entry simply ages out of the LRU — invalidation without a scan. Entries
/// are charged by row bytes against `max_bytes`; insertion evicts
/// least-recently-used entries until the new entry fits (an entry larger than
/// the whole cache is never admitted). Thread-safe.
///
/// \par Single-flight (the lease vocabulary of HtRegistry::AcquireShared)
/// A miss on a key nobody is computing makes the caller the key's producer
/// (Role::kProduce); it must later Publish its rows or Fail the lease.
/// A miss on a key whose producer started at a virtual epoch no later than
/// the caller's blocks until the producer resolves: a publish hands every
/// waiter the rows and the producer's completion time (Role::kAttach), whether
/// or not the LRU admits them; a failure sends every waiter off to execute
/// by itself (Role::kExecute). A producer that started later in virtual time
/// than the caller does not exist yet at the caller's epoch, so the caller
/// executes too, without the lease. Waiters never execute while they wait
/// and producers never wait on a lease, so leases cannot deadlock.
class ResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;    ///< every non-hit Acquire, attachers included
    uint64_t attaches = 0;  ///< misses answered by another query's publish
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  explicit ResultCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Resolves `query`'s role for `key` at absolute virtual time `epoch`:
  /// hit, producer (also when `query` already holds the lease — a retry keeps
  /// it), attacher, or a plain execution. Blocks while an earlier-epoch
  /// producer runs; `control` (nullable) lets a cancelled or deadline-expired
  /// waiter bail out with Role::kCancelled.
  ResultLease Acquire(const std::string& key, uint64_t query, sim::VTime epoch,
                      const QueryControl* control);

  /// Producer success: admits `rows` to the LRU (subject to the byte budget)
  /// and answers every waiter with them. `ready_at` is the absolute virtual
  /// completion of the producing query.
  void Publish(const std::string& key, uint64_t query,
               const std::vector<std::vector<int64_t>>& rows,
               sim::VTime ready_at);

  /// Producer failure (error, cancellation, deadline, or a key that changed
  /// under it): releases the lease; every waiter executes by itself.
  void Fail(const std::string& key, uint64_t query);

  /// Caches `rows` under `key` outside any lease (a query that executed
  /// without one). A key already present just refreshes recency.
  void Insert(const std::string& key,
              const std::vector<std::vector<int64_t>>& rows);

  Stats stats() const;
  uint64_t bytes() const;
  uint64_t max_bytes() const { return max_bytes_; }
  int entries() const;

 private:
  struct Entry {
    std::vector<std::vector<int64_t>> rows;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// One in-flight production. Waiters hold it by shared_ptr, so it outlives
  /// its removal from `flights_` until every waiter has read the outcome.
  struct Flight {
    enum class State { kRunning, kReady, kFailed };
    State state = State::kRunning;
    uint64_t producer = 0;
    sim::VTime epoch = 0;  ///< producer's epoch when it took the lease
    std::vector<std::vector<int64_t>> rows;  ///< kReady only
    sim::VTime ready_at = 0;                 ///< kReady only
  };

  static uint64_t RowBytes(const std::vector<std::vector<int64_t>>& rows);
  void InsertLocked(const std::string& key,
                    const std::vector<std::vector<int64_t>>& rows);
  /// Removes `key`'s flight, which `query` must be producing. Caller holds mu_.
  std::shared_ptr<Flight> TakeFlightLocked(const std::string& key,
                                           uint64_t query);

  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::condition_variable flight_cv_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  uint64_t bytes_ = 0;
  Stats stats_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_RESULT_CACHE_H_
