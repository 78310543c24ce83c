#include "sim/interval_timeline.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(tl.num_segments(), 2u);
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

TEST(IntervalTimeline, ClearDropsEveryInterval) {
  IntervalTimeline tl;
  tl.Add(0.0, 4.0, 2);
  tl.Add(6.0, 8.0, 1);
  tl.Clear();
  EXPECT_EQ(tl.num_segments(), 0u);
  EXPECT_EQ(tl.At(1.0).level, 0);
  EXPECT_EQ(tl.At(1.0).until, kInf);
  EXPECT_DOUBLE_EQ(tl.FirstFit(3.0, 0.0), 0.0);
}

}  // namespace
}  // namespace hetex::sim
