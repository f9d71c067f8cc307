// Tests for the benchmark's statistics and schedule helpers (src/stats.hpp).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace {

using namespace perfbench;

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(supported_percentile(0).has_value());
  EXPECT_FALSE(supported_percentile(19).has_value());
  EXPECT_EQ(*supported_percentile(20), 50.0);
  EXPECT_EQ(*supported_percentile(99), 50.0);
  EXPECT_EQ(*supported_percentile(100), 90.0);
  EXPECT_EQ(*supported_percentile(200), 95.0);
  EXPECT_EQ(*supported_percentile(999), 95.0);
  EXPECT_EQ(*supported_percentile(1000), 99.0);
  EXPECT_EQ(*supported_percentile(9999), 99.0);
  EXPECT_EQ(*supported_percentile(10000), 99.9);
}

TEST(PercentileRule, P99WithheldBelowThousandSamples) {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i);
  EXPECT_FALSE(reported_percentile(v, 99.0).has_value());
  EXPECT_TRUE(reported_percentile(v, 95.0).has_value());
  v.push_back(999.0);
  ASSERT_TRUE(reported_percentile(v, 99.0).has_value());
  // Nearest rank: the 990th smallest of 0..999.
  EXPECT_EQ(*reported_percentile(v, 99.0), 989.0);
}

TEST(PercentileRule, NearestRankIgnoresInputOrder) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50.0), 3.0);
  EXPECT_EQ(percentile(v, 100.0), 5.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

TEST(Quartiles, MatchPythonStatisticsQuantilesExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const Quartiles q = quartiles(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const Quartiles three = quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.median, 2.0);
  EXPECT_DOUBLE_EQ(three.q3, 3.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Schedules, PoissonArrivalsAreReproducibleAndHaveTheRate) {
  mda::util::Rng a(42), b(42), c(43);
  const auto ta = poisson_arrivals(a, 200.0, 20.0);
  const auto tb = poisson_arrivals(b, 200.0, 20.0);
  const auto tc = poisson_arrivals(c, 200.0, 20.0);
  EXPECT_EQ(ta, tb);
  EXPECT_NE(ta, tc);
  // 4000 expected arrivals; 5 sigma is ~316.
  EXPECT_NEAR(double(ta.size()), 4000.0, 316.0);
  for (std::size_t i = 1; i < ta.size(); ++i) ASSERT_GT(ta[i], ta[i - 1]);
  EXPECT_LT(ta.back(), 20.0);
  mda::util::Rng d(1);
  EXPECT_TRUE(poisson_arrivals(d, 0.0, 5.0).empty());
}

TEST(Schedules, ZipfIsReproducibleAndRankOrdered) {
  const Zipf z(28, 1.1);
  mda::util::Rng a(7), b(7);
  std::vector<std::size_t> counts(28, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t ka = z.sample(a);
    ASSERT_EQ(ka, z.sample(b));
    ASSERT_LT(ka, 28u);
    ++counts[ka];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], counts[27]);
  // P(rank 0) = 1 / H(28, 1.1) ~ 0.291.
  EXPECT_NEAR(counts[0] / 20000.0, 0.291, 0.02);
}

/// Open loop at `rate` for `dur` seconds against a server answering each
/// request `service` seconds after the previous answer (or its due time).
void simulate(double rate, double service, double dur, std::vector<double>& due,
              std::vector<double>& done) {
  mda::util::Rng rng(3);
  due = poisson_arrivals(rng, rate, dur);
  done.clear();
  double free_at = 0.0;
  for (const double t : due) {
    free_at = std::max(free_at, t) + service;
    done.push_back(free_at);
  }
}

TEST(BacklogDetector, StableLoadIsNotGrowing) {
  std::vector<double> due, done;
  simulate(100.0, 0.005, 4.0, due, done);  // 50% utilisation
  EXPECT_FALSE(backlog_growing(due, done, 4.0));
}

TEST(BacklogDetector, OverloadIsGrowing) {
  std::vector<double> due, done;
  simulate(300.0, 0.005, 4.0, due, done);  // 150% utilisation
  EXPECT_TRUE(backlog_growing(due, done, 4.0));
}

TEST(BacklogDetector, UnansweredRequestsCountAsBacklog) {
  std::vector<double> due, done;
  simulate(100.0, 0.001, 3.0, due, done);
  EXPECT_FALSE(backlog_growing(due, done, 3.0));
  // Everything due in the last half never answered.
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (due[i] > 1.5) done[i] = INFINITY;
  }
  EXPECT_TRUE(backlog_growing(due, done, 3.0));
}

TEST(BacklogDetector, BacklogAtCountsDueAndUnanswered) {
  const std::vector<double> due{0.0, 1.0, 2.0};
  const std::vector<double> done{0.5, 3.0, INFINITY};
  EXPECT_EQ(backlog_at(due, done, 0.25), 1u);
  EXPECT_EQ(backlog_at(due, done, 0.75), 0u);
  EXPECT_EQ(backlog_at(due, done, 2.5), 2u);
  EXPECT_EQ(backlog_at(due, done, 10.0), 1u);
}

TEST(MaxSustainableRate, CrossesTheLimitOnALogLogFit) {
  // tail = 0.1 ms * rate: the 50 ms limit is crossed at 500 req/s.
  std::vector<RatePoint> pts;
  for (const double r : {100.0, 200.0, 400.0, 800.0}) {
    pts.push_back({r, 0.1 * r, false});
  }
  EXPECT_NEAR(max_sustainable_rate(pts, 50.0), 500.0, 1e-6);
  // Noise on single points moves the answer less than it moves them.
  pts[2].tail_ms *= 1.2;
  EXPECT_NEAR(max_sustainable_rate(pts, 50.0), 500.0, 40.0);
}

TEST(MaxSustainableRate, OverloadCapsTheAnswer) {
  std::vector<RatePoint> pts{{100.0, 10.0, false},
                             {200.0, 20.0, false},
                             {300.0, INFINITY, false},
                             {250.0, 25.0, true}};
  EXPECT_DOUBLE_EQ(max_sustainable_rate(pts, 50.0), 250.0);
}

TEST(MaxSustainableRate, ExtrapolatesAtMostTwiceTheTopRate) {
  std::vector<RatePoint> pts{{100.0, 1.0, false}, {200.0, 2.0, false}};
  EXPECT_DOUBLE_EQ(max_sustainable_rate(pts, 50.0), 400.0);
}

TEST(MaxSustainableRate, TooFewPointsFallBackToTheBestPass) {
  EXPECT_DOUBLE_EQ(max_sustainable_rate({{100.0, 10.0, false}}, 50.0), 100.0);
  EXPECT_DOUBLE_EQ(max_sustainable_rate({{100.0, 90.0, false}}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(max_sustainable_rate({}, 50.0), 0.0);
  // A flat tail gives no crossing either.
  EXPECT_DOUBLE_EQ(
      max_sustainable_rate({{100.0, 10.0, false}, {200.0, 10.0, false}}, 50.0),
      200.0);
}

}  // namespace
