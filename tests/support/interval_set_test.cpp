// Unit tests for postal::IntervalSet, the busy-port tracker behind the
// extension models' shared port-window checker (sched/port_check.hpp).
#include "support/interval_set.hpp"

#include <gtest/gtest.h>

namespace postal {
namespace {

TEST(IntervalSet, StartsEmpty) {
  const IntervalSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
}

TEST(IntervalSet, InsertDisjointSucceeds) {
  IntervalSet set;
  EXPECT_FALSE(set.insert(Rational(0), Rational(1)).has_value());
  EXPECT_FALSE(set.insert(Rational(2), Rational(3)).has_value());
  EXPECT_EQ(set.size(), 2u);
}

TEST(IntervalSet, HalfOpenIntervalsMayTouch) {
  IntervalSet set;
  EXPECT_FALSE(set.insert(Rational(0), Rational(1)).has_value());
  // [1, 2) starts exactly where [0, 1) ends: allowed in the postal model
  // (a processor may start sending the instant its previous send ends).
  EXPECT_FALSE(set.insert(Rational(1), Rational(2)).has_value());
  EXPECT_EQ(set.size(), 2u);
}

TEST(IntervalSet, OverlapFromLeftRejected) {
  IntervalSet set;
  ASSERT_FALSE(set.insert(Rational(1), Rational(2)).has_value());
  const auto clash = set.insert(Rational(1, 2), Rational(3, 2));
  ASSERT_TRUE(clash.has_value());
  EXPECT_EQ(clash->lo, Rational(1));
  EXPECT_EQ(clash->hi, Rational(2));
  EXPECT_EQ(set.size(), 1u) << "failed insert must not modify the set";
}

TEST(IntervalSet, OverlapFromRightRejected) {
  IntervalSet set;
  ASSERT_FALSE(set.insert(Rational(1), Rational(2)).has_value());
  EXPECT_TRUE(set.insert(Rational(3, 2), Rational(5, 2)).has_value());
}

TEST(IntervalSet, ContainedIntervalRejected) {
  IntervalSet set;
  ASSERT_FALSE(set.insert(Rational(0), Rational(10)).has_value());
  EXPECT_TRUE(set.insert(Rational(4), Rational(5)).has_value());
}

TEST(IntervalSet, SurroundingIntervalRejected) {
  IntervalSet set;
  ASSERT_FALSE(set.insert(Rational(4), Rational(5)).has_value());
  EXPECT_TRUE(set.insert(Rational(0), Rational(10)).has_value());
}

TEST(IntervalSet, RationalEndpointsExact) {
  IntervalSet set;
  // Receive windows at lambda = 5/2: [3/2, 5/2) and [5/2, 7/2) must abut.
  EXPECT_FALSE(set.insert(Rational(3, 2), Rational(5, 2)).has_value());
  EXPECT_FALSE(set.insert(Rational(5, 2), Rational(7, 2)).has_value());
  EXPECT_TRUE(set.insert(Rational(2), Rational(3)).has_value());
}

TEST(IntervalSet, EmptyIntervalThrows) {
  IntervalSet set;
  EXPECT_THROW(set.insert(Rational(1), Rational(1)), InvalidArgument);
  EXPECT_THROW(set.insert(Rational(2), Rational(1)), InvalidArgument);
}

TEST(IntervalSet, OverlapsQueryDoesNotInsert) {
  IntervalSet set;
  ASSERT_FALSE(set.insert(Rational(0), Rational(1)).has_value());
  EXPECT_TRUE(set.overlaps(Rational(1, 2), Rational(2)));
  EXPECT_FALSE(set.overlaps(Rational(1), Rational(2)));
  EXPECT_EQ(set.size(), 1u);
}

}  // namespace
}  // namespace postal
