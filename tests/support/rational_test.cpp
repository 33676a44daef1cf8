// Unit tests for postal::Rational: normalization, ordering, arithmetic,
// overflow detection, parsing, and formatting.
#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <unordered_set>

namespace postal {
namespace {

TEST(Rational, DefaultIsZero) {
  const Rational r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
  EXPECT_EQ(r, Rational(0));
}

TEST(Rational, IntegerConversionIsImplicit) {
  const Rational r = 7;
  EXPECT_EQ(r.num(), 7);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, NormalizesSignToNumerator) {
  const Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
  const Rational s(-3, -6);
  EXPECT_EQ(s.num(), 1);
  EXPECT_EQ(s.den(), 2);
}

TEST(Rational, ZeroNumeratorNormalizesDenominator) {
  const Rational r(0, 17);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), InvalidArgument);
}

TEST(Rational, AdditionExact) {
  EXPECT_EQ(Rational(1, 3) + Rational(1, 6), Rational(1, 2));
  EXPECT_EQ(Rational(5, 2) + Rational(5, 2), Rational(5));
  EXPECT_EQ(Rational(-1, 2) + Rational(1, 2), Rational(0));
}

TEST(Rational, SubtractionExact) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(1) - Rational(5, 2), Rational(-3, 2));
}

TEST(Rational, MultiplicationCrossReduces) {
  // Would overflow without cross-reduction.
  const std::int64_t big = 3'000'000'000;
  const Rational a(big, 7);
  const Rational b(7, big);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(Rational, DivisionExact) {
  EXPECT_EQ(Rational(5, 2) / Rational(5), Rational(1, 2));
  EXPECT_EQ(Rational(7) / Rational(1, 7), Rational(49));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1) / Rational(0), InvalidArgument);
}

TEST(Rational, AdditionOverflowThrows) {
  const Rational huge(std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(huge + huge, OverflowError);
}

TEST(Rational, MultiplicationOverflowThrows) {
  const Rational huge(std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(huge * huge, OverflowError);
}

TEST(Rational, NegationOfMinThrows) {
  const Rational min_val(std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(-min_val, OverflowError);
}

TEST(Rational, OrderingIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(5, 2), Rational(2));
  EXPECT_LE(Rational(2), Rational(2));
  // Cross products near 64-bit range must not overflow the comparison.
  const std::int64_t big = 4'000'000'000;
  EXPECT_LT(Rational(big, big + 1), Rational(big + 1, big + 2));
}

TEST(Rational, FloorCeilTrunc) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(7, 2).trunc(), 3);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(-7, 2).trunc(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
  EXPECT_EQ(Rational(-4).floor(), -4);
  EXPECT_EQ(Rational(-4).ceil(), -4);
}

TEST(Rational, ParseInteger) { EXPECT_EQ(Rational::parse("42"), Rational(42)); }

TEST(Rational, ParseFractionForm) {
  EXPECT_EQ(Rational::parse("5/2"), Rational(5, 2));
  EXPECT_EQ(Rational::parse("-5/2"), Rational(-5, 2));
  EXPECT_EQ(Rational::parse("6/4"), Rational(3, 2));
}

TEST(Rational, ParseDecimalForm) {
  EXPECT_EQ(Rational::parse("2.5"), Rational(5, 2));
  EXPECT_EQ(Rational::parse("0.25"), Rational(1, 4));
  EXPECT_EQ(Rational::parse("-1.5"), Rational(-3, 2));
  EXPECT_EQ(Rational::parse("3.0"), Rational(3));
}

TEST(Rational, ParseRejectsGarbage) {
  EXPECT_THROW(static_cast<void>(Rational::parse("")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(Rational::parse("abc")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(Rational::parse("1.")), InvalidArgument);
}

TEST(Rational, StrRoundTrips) {
  EXPECT_EQ(Rational(5, 2).str(), "5/2");
  EXPECT_EQ(Rational(4).str(), "4");
  EXPECT_EQ(Rational(-1, 3).str(), "-1/3");
  std::ostringstream oss;
  oss << Rational(15, 2);
  EXPECT_EQ(oss.str(), "15/2");
}

TEST(Rational, ToDoubleIsClose) {
  EXPECT_DOUBLE_EQ(Rational(5, 2).to_double(), 2.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 4).to_double(), -0.25);
}

TEST(Rational, HashEqualValuesCollide) {
  std::unordered_set<Rational> set;
  set.insert(Rational(1, 2));
  set.insert(Rational(2, 4));  // same value
  set.insert(Rational(3, 4));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(rmin(Rational(1, 2), Rational(1, 3)), Rational(1, 3));
  EXPECT_EQ(rmax(Rational(1, 2), Rational(1, 3)), Rational(1, 2));
  EXPECT_EQ(rmin(Rational(2), Rational(2)), Rational(2));
}

TEST(Rational, CompoundAssignmentChains) {
  Rational r(1, 2);
  r += Rational(1, 3);
  r -= Rational(1, 6);
  r *= Rational(3);
  r /= Rational(2);
  EXPECT_EQ(r, Rational(1));
}

TEST(Rational, RepeatedAdditionKeepsReducedForm) {
  Rational sum(0);
  for (int i = 0; i < 1000; ++i) sum += Rational(1, 8);
  EXPECT_EQ(sum, Rational(125));
  EXPECT_EQ(sum.den(), 1);
}

TEST(Rational, ParseStrRoundTripFuzz) {
  // str() -> parse() must be the identity for random reduced rationals.
  std::uint64_t state = 0x12345678;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto num = static_cast<std::int64_t>(next() % 2000001) - 1000000;
    const auto den = static_cast<std::int64_t>(next() % 999) + 1;
    const Rational r(num, den);
    EXPECT_EQ(Rational::parse(r.str()), r) << r.str();
  }
}

TEST(Rational, DecimalParseMatchesFractionParse) {
  EXPECT_EQ(Rational::parse("0.5"), Rational::parse("1/2"));
  EXPECT_EQ(Rational::parse("12.25"), Rational::parse("49/4"));
  EXPECT_EQ(Rational::parse("-0.125"), Rational::parse("-1/8"));
}

TEST(Rational, ComparisonNearOverflowSameDenominator) {
  // Same canonical denominator takes the numerator-compare fast path; it
  // must stay exact at the edges of the 64-bit range.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_LT(Rational(max - 5, 5), Rational(max, 5));
  EXPECT_GT(Rational(max, 5), Rational(max - 5, 5));
  EXPECT_EQ(Rational(max, 5) <=> Rational(max, 5), std::strong_ordering::equal);
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min() + 1;
  EXPECT_LT(Rational(lo, 3), Rational(lo + 3, 3));
}

TEST(Rational, ComparisonNearOverflowCrossProducts) {
  // Different denominators whose 64-bit cross products overflow must fall
  // through to the 128-bit compare, never to UB or a wrong sign.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_GT(Rational(max, 2), Rational(max - 2, 3));
  EXPECT_LT(Rational(max - 2, 3), Rational(max, 2));
  // max/(max-1) vs (max-1)/(max-2): both just above 1, second is larger.
  EXPECT_LT(Rational(max, max - 1), Rational(max - 1, max - 2));
  // Large negatives: x/3 > x/2 for negative x.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min() + 1;
  EXPECT_GT(Rational(lo, 3), Rational(lo, 2));
  EXPECT_LT(Rational(lo, 2), Rational(lo, 3));
}

TEST(Rational, ComparisonMatches128BitReferenceOnRandomBigValues) {
  std::uint64_t state = 0xC0FFEE;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  __extension__ using int128 = __int128;
  for (int i = 0; i < 2000; ++i) {
    // Magnitudes up to ~2^62 so cross products routinely overflow 64 bits.
    const auto a_num = static_cast<std::int64_t>(next() >> 2) - (1LL << 61);
    const auto a_den = static_cast<std::int64_t>(next() >> 3) + 1;
    const auto b_num = static_cast<std::int64_t>(next() >> 2) - (1LL << 61);
    const auto b_den = static_cast<std::int64_t>(next() >> 3) + 1;
    const Rational a(a_num, a_den);
    const Rational b(b_num, b_den);
    const int128 lhs = static_cast<int128>(a.num()) * b.den();
    const int128 rhs = static_cast<int128>(b.num()) * a.den();
    EXPECT_EQ(a < b, lhs < rhs) << a << " vs " << b;
    EXPECT_EQ(a == b, lhs == rhs) << a << " vs " << b;
    EXPECT_EQ(a > b, lhs > rhs) << a << " vs " << b;
  }
}

TEST(Rational, ParseDecimalTrailingZeros) {
  EXPECT_EQ(Rational::parse("2.50"), Rational(5, 2));
  EXPECT_EQ(Rational::parse("0.250"), Rational(1, 4));
  EXPECT_EQ(Rational::parse("3.000"), Rational(3));
}

TEST(Rational, ParseBareAndNegativeFractionalForms) {
  EXPECT_EQ(Rational::parse(".5"), Rational(1, 2));
  EXPECT_EQ(Rational::parse("-.5"), Rational(-1, 2));
  EXPECT_EQ(Rational::parse("-0.5"), Rational(-1, 2));
  EXPECT_EQ(Rational::parse("-2.25"), Rational(-9, 4));
}

TEST(Rational, ParseDecimalDigitLimit) {
  // 18 fractional digits is the last exactly-representable width...
  EXPECT_EQ(Rational::parse("0.000000000000000001"),
            Rational(1, 1'000'000'000'000'000'000));
  // ...19 must be rejected, not silently rounded.
  EXPECT_THROW(static_cast<void>(Rational::parse("0.0000000000000000001")),
               InvalidArgument);
}

TEST(Rational, ParseRejectsZeroDenominatorAndMalformedFraction) {
  EXPECT_THROW(static_cast<void>(Rational::parse("1/0")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(Rational::parse("1.-5")), InvalidArgument);
}

TEST(Rational, ParseReportsOverflowDistinctly) {
  EXPECT_THROW(static_cast<void>(Rational::parse("9223372036854775808")),
               OverflowError);
  EXPECT_THROW(static_cast<void>(Rational::parse("1/9223372036854775808")),
               OverflowError);
}

TEST(Rational, ParseMatchesTheWholeString) {
  // Each of these used to parse a prefix and drop the rest.
  for (const char* text : {"5/2abc", "1/2/3", "12abc", "0x10", "1.+5", " 5", "+5",
                           "5 ", "1.5/2", "1/2.5", "--5", "-", "1e5"}) {
    EXPECT_THROW(static_cast<void>(Rational::parse(text)), InvalidArgument) << text;
  }
}

TEST(Rational, ParseKeepsMagnitudesWithinInt64Max) {
  EXPECT_EQ(Rational::parse("9223372036854775807"), Rational(INT64_MAX));
  EXPECT_EQ(Rational::parse("-9223372036854775807"), Rational(-INT64_MAX));
  EXPECT_EQ(Rational::parse("-5/-2"), Rational(5, 2));
  EXPECT_EQ(Rational::parse("-92233720368547758.07"), Rational(-INT64_MAX, 100));
  // A magnitude of 2^63 or more is an overflow, never UB.
  for (const char* text : {"-9223372036854775808.5", "-9223372036854775808",
                           "-922337203685477580.8", "922337203685477580.8",
                           "1/-9223372036854775808"}) {
    EXPECT_THROW(static_cast<void>(Rational::parse(text)), OverflowError) << text;
  }
  EXPECT_THROW(static_cast<void>(Rational::parse(".-5")), InvalidArgument);
}

}  // namespace
}  // namespace postal
