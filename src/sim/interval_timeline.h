#ifndef HETEX_SIM_INTERVAL_TIMELINE_H_
#define HETEX_SIM_INTERVAL_TIMELINE_H_

#include <cstddef>
#include <limits>
#include <map>

#include "common/logging.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief Weighted busy intervals on one absolute virtual timeline.
///
/// The shared reservation structure behind every contended resource in the
/// simulator: a step function `level(t)` stored as a sorted boundary map
/// (key -> level on [key, next key)). Serially-shared resources (PCIe links,
/// GPU kernel streams) use it with weight 1 and first-fit gap probing; the
/// socket DRAM fluid-share server adds each closed execution phase with its
/// worker count, so `level(t)` is the number of workers whose closed phases
/// overlap t. Intervals are closed and positively weighted: the level past
/// the last boundary is always 0.
///
/// All operations are O(log n + touched boundaries): Add touches only the
/// boundaries inside [start, end]. The boundary count is bounded by
/// `max_segments` via a conservative merge (levels are only ever raised, so
/// bounding can delay or slow work but never speed it up) — a long-lived
/// server cannot grow without bound.
///
/// Not thread-safe; the owning server's mutex guards it.
class IntervalTimeline {
 public:
  static constexpr VTime kOpenEnd = std::numeric_limits<VTime>::infinity();

  explicit IntervalTimeline(size_t max_segments = 2048)
      : max_segments_(max_segments < 8 ? 8 : max_segments) {}

  /// Adds `weight` (> 0) over the finite interval [start, end).
  void Add(VTime start, VTime end, int weight) {
    HETEX_DCHECK(weight > 0 && end < kOpenEnd);
    if (end <= start) return;
    const auto to = EnsureBoundary(end);
    for (auto it = EnsureBoundary(start); it != to; ++it) it->second += weight;
    Coalesce(start, end);
    Bound();
  }

  struct Span {
    int level = 0;      ///< weight sum over [t, until)
    VTime until = kOpenEnd;  ///< next boundary at or after t (kOpenEnd if none)
  };

  /// Level at time t and how long it holds.
  Span At(VTime t) const {
    Span s;
    auto it = steps_.upper_bound(t);
    s.level = (it == steps_.begin()) ? 0 : std::prev(it)->second;
    s.until = (it == steps_.end()) ? kOpenEnd : it->first;
    return s;
  }

  /// Earliest start >= `ready` of a level-0 gap holding `duration`. With
  /// weight-1 closed intervals this reproduces the disjoint-busy-map first
  /// fit bit-for-bit: the ready time is pushed out of any busy span it lands
  /// in, then past every span whose gap is too small. The level past the last
  /// boundary is 0, so the scan returns there at the latest.
  VTime FirstFit(VTime duration, VTime ready) const {
    VTime start = ready;
    auto it = steps_.upper_bound(start);
    int level = (it == steps_.begin()) ? 0 : std::prev(it)->second;
    while (true) {
      if (level == 0) {
        const VTime until = (it == steps_.end()) ? kOpenEnd : it->first;
        if (until - start >= duration) return start;
      }
      level = it->second;
      if (level == 0 && it->first > start) start = it->first;
      ++it;
    }
  }

  /// Last boundary on the timeline: every interval ends at or before it, so a
  /// session anchored at the horizon overlaps none of them.
  VTime horizon() const {
    return steps_.empty() ? 0.0 : steps_.rbegin()->first;
  }

  size_t num_segments() const { return steps_.size(); }

 private:
  /// Makes `t` a boundary carrying the level just before it, so a following
  /// range update changes the level only on [t, ...).
  std::map<VTime, int>::iterator EnsureBoundary(VTime t) {
    auto it = steps_.lower_bound(t);
    if (it != steps_.end() && it->first == t) return it;
    const int level = (it == steps_.begin()) ? 0 : std::prev(it)->second;
    return steps_.emplace_hint(it, t, level);
  }

  /// Drops boundaries in [start, end] whose level equals their predecessor's
  /// (implicitly 0 before the first boundary) — they no longer change the
  /// step function.
  void Coalesce(VTime start, VTime end) {
    auto it = steps_.lower_bound(start);
    int prev = (it == steps_.begin()) ? 0 : std::prev(it)->second;
    while (it != steps_.end() && it->first <= end) {
      if (it->second == prev) {
        it = steps_.erase(it);
      } else {
        prev = it->second;
        ++it;
      }
    }
  }

  /// Keeps the boundary count bounded. Merging the two earliest boundaries at
  /// the max of their levels absorbs the oldest gap (or flattens the oldest
  /// step) — levels only go up, so every later query sees the same or more
  /// contention and every first-fit start stays the same or moves later:
  /// bounding is strictly conservative.
  void Bound() {
    while (steps_.size() > max_segments_) {
      auto first = steps_.begin();
      auto second = std::next(first);
      first->second = first->second > second->second ? first->second
                                                     : second->second;
      steps_.erase(second);
      // The raise can make `first` equal its successor; leave it — the next
      // Coalesce pass near it will drop it, and correctness never depends on
      // minimality.
    }
  }

  const size_t max_segments_;
  /// Boundary -> level on [boundary, next boundary). Level before the first
  /// boundary is 0; level after the last equals its value.
  std::map<VTime, int> steps_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_INTERVAL_TIMELINE_H_
