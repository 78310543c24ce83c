#include "sim/interval_timeline.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace hetex::sim {
namespace {

constexpr VTime kInf = IntervalTimeline::kOpenEnd;

TEST(IntervalTimeline, AddAndAtBasics) {
  IntervalTimeline tl;
  tl.Add(1.0, 3.0, 2);
  EXPECT_EQ(tl.At(0.0).level, 0);
  EXPECT_DOUBLE_EQ(tl.At(0.0).until, 1.0);
  EXPECT_EQ(tl.At(1.0).level, 2);
  EXPECT_DOUBLE_EQ(tl.At(1.0).until, 3.0);
  EXPECT_EQ(tl.At(2.999).level, 2);
  EXPECT_EQ(tl.At(3.0).level, 0);  // half-open: the end boundary is free
  EXPECT_EQ(tl.At(3.0).until, kInf);
  EXPECT_DOUBLE_EQ(tl.horizon(), 3.0);
}

TEST(IntervalTimeline, OverlapsSumTheirWeights) {
  IntervalTimeline tl;
  tl.Add(0.0, 4.0, 1);
  tl.Add(2.0, 6.0, 3);
  EXPECT_EQ(tl.At(1.0).level, 1);
  EXPECT_EQ(tl.At(2.0).level, 4);
  EXPECT_EQ(tl.At(4.0).level, 3);
  EXPECT_EQ(tl.At(6.0).level, 0);
}

TEST(IntervalTimeline, EmptyIntervalLeavesNoTrace) {
  IntervalTimeline tl;
  tl.Add(1.0, 1.0, 2);  // a phase closed at its own start
  EXPECT_EQ(tl.num_segments(), 0u);
  EXPECT_EQ(tl.At(1.0).level, 0);
  EXPECT_DOUBLE_EQ(tl.horizon(), 0.0);
}

TEST(IntervalTimeline, NestedAddNeverShrinksOccupancy) {
  // Regression for the old disjoint-map Insert: its left-extend wrote
  // `prev->second = end`, so inserting an interval nested inside an existing
  // one SHRANK the container. The step representation can only raise levels.
  IntervalTimeline tl;
  tl.Add(0.0, 10.0, 1);
  tl.Add(2.0, 4.0, 1);  // nested
  EXPECT_EQ(tl.At(3.0).level, 2);
  EXPECT_EQ(tl.At(5.0).level, 1);  // [4, 10) still busy
  EXPECT_EQ(tl.At(9.999).level, 1);
  EXPECT_DOUBLE_EQ(tl.FirstFit(1.0, 0.0), 10.0);
}

TEST(IntervalTimeline, AdjacentIntervalsCoalesce) {
  IntervalTimeline tl;
  tl.Add(0.0, 1.0, 1);
  tl.Add(1.0, 2.0, 1);  // back-to-back, same level
  EXPECT_EQ(tl.num_segments(), 2u);  // boundaries at 0 and 2 only
  EXPECT_EQ(tl.At(1.0).level, 1);
  EXPECT_DOUBLE_EQ(tl.FirstFit(0.5, 0.0), 2.0);
}

TEST(IntervalTimeline, FirstFitFindsEarliestGap) {
  IntervalTimeline tl;
  tl.Add(1.0, 2.0, 1);
  tl.Add(3.0, 4.0, 1);
  EXPECT_DOUBLE_EQ(tl.FirstFit(1.0, 0.0), 0.0);   // [0,1) holds exactly 1
  EXPECT_DOUBLE_EQ(tl.FirstFit(1.5, 0.0), 4.0);   // only the tail holds 1.5
  EXPECT_DOUBLE_EQ(tl.FirstFit(0.5, 1.5), 2.0);   // pushed out of [1,2)
  EXPECT_DOUBLE_EQ(tl.FirstFit(2.0, 3.5), 4.0);   // pushed out of [3,4)
  EXPECT_DOUBLE_EQ(tl.FirstFit(0.25, 2.25), 2.25);  // inside the middle gap
}

TEST(IntervalTimeline, FirstFitPastTheLastBoundaryIsFree) {
  IntervalTimeline tl;
  tl.Add(0.0, 5.0, 3);
  EXPECT_DOUBLE_EQ(tl.FirstFit(100.0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(tl.FirstFit(kInf, 1.0), 5.0);
}

TEST(IntervalTimeline, BoundKeepsSegmentCountCapped) {
  IntervalTimeline tl(/*max_segments=*/8);
  for (int i = 0; i < 64; ++i) {
    tl.Add(2.0 * i, 2.0 * i + 1.0, 1);  // 64 disjoint intervals
  }
  EXPECT_LE(tl.num_segments(), 8u);
  // Conservative: every originally-busy instant is still at level >= 1.
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(tl.At(2.0 * i + 0.5).level, 1) << "interval " << i;
  }
}

// The gap-absorption conservatism property: place the SAME random intervals
// into an effectively-uncapped timeline and into a tightly-capped one (whose
// Bound() keeps absorbing old gaps), then probe both with random requests.
// For every subsequent reservation the capped map must return a first-fit
// start — hence a finish — at or past the uncapped map's: absorbing gaps can
// only delay work, never speed it up.
TEST(IntervalTimeline, BoundedAbsorptionNeverFinishesAReservationEarlier) {
  IntervalTimeline capped(/*max_segments=*/16);
  IntervalTimeline uncapped(/*max_segments=*/1u << 20);
  std::mt19937 rng(0xC0FFEE);
  std::uniform_real_distribution<double> start_dist(0.0, 100.0);
  std::uniform_real_distribution<double> dur_dist(0.1, 3.0);
  for (int i = 0; i < 500; ++i) {
    const VTime start = start_dist(rng);
    const VTime dur = dur_dist(rng);
    uncapped.Add(start, start + dur, 1);
    capped.Add(start, start + dur, 1);
  }
  EXPECT_LE(capped.num_segments(), 16u);
  for (int i = 0; i < 300; ++i) {
    const VTime ready = start_dist(rng);
    const VTime dur = dur_dist(rng);
    const VTime s_unc = uncapped.FirstFit(dur, ready);
    const VTime s_cap = capped.FirstFit(dur, ready);
    ASSERT_GE(s_cap, s_unc) << "probe " << i << " (ready " << ready << ", dur "
                            << dur << ") fit earlier on the capped timeline";
  }
}

}  // namespace
}  // namespace hetex::sim
