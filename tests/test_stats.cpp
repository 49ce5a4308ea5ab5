#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.h"

namespace subsum::stats {
namespace {

TEST(Series, EmptyIsZero) {
  const Series s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Series, SingleValue) {
  Series s;
  s.add(7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Series, Moments) {
  Series s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Series, NegativeValues) {
  Series s;
  s.add(-3);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 3.0);
}

TEST(Series, StddevStableNearLargeMean) {
  // Regression for the naive sum-of-squares form: values clustered around
  // 1e9 with stddev 2 used to cancel catastrophically (sumsq/n - mean^2
  // loses ~17 significant digits), reporting garbage or 0. Welford keeps
  // full precision.
  Series s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(1e9 + v);
  EXPECT_NEAR(s.mean(), 1e9 + 5.0, 1e-3);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-6);
}

TEST(Fmt, CompactNumbers) {
  EXPECT_EQ(fmt(0), "0");
  EXPECT_EQ(fmt(1.5), "1.5");
  EXPECT_EQ(fmt(12345678), "1.235e+07");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  const std::string out = t.to_string();
  std::istringstream in(out);
  std::string header, rule, r1, r2;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, r1);
  std::getline(in, r2);
  // Column 2 starts at the same offset everywhere.
  const size_t col = header.find("value");
  EXPECT_NE(col, std::string::npos);
  EXPECT_EQ(r1.find('1'), col);
  EXPECT_EQ(r2.find("22"), col);
  EXPECT_EQ(rule.find('-'), 0u);
}

TEST(Table, RowfFormatsDoubles) {
  Table t({"x", "y"});
  t.rowf({1.0, 2.5});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(Table, ShortRowsTolerated) {
  Table t({"a", "b", "c"});
  t.row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

}  // namespace
}  // namespace subsum::stats
