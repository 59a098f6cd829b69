// Unit and property tests for src/util: RNG determinism and distribution
// sanity, summary statistics, CDFs, and table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cisp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::array<int, 7> counts{};
  for (int i = 0; i < 70000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ChanceProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Splitmix, IsDeterministicAndMixes) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Samples, BasicStatistics) {
  Samples s({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Samples, PercentileInterpolates) {
  Samples s({0.0, 10.0});
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

TEST(Samples, PercentileAfterIncrementalAdds) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  s.add(1000.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.percentile(50), Error);
  EXPECT_THROW(s.min(), Error);
}

TEST(Samples, PercentileRangeChecked) {
  Samples s({1.0});
  EXPECT_THROW(s.percentile(-1), Error);
  EXPECT_THROW(s.percentile(101), Error);
}

TEST(Samples, SelectPercentileIsBitIdenticalToTheSortedPercentile) {
  Rng rng(41);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 1591u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> values;
      for (std::size_t i = 0; i < n; ++i) {
        // Heavy ties (a coarse grid, zeros) and spread values.
        values.push_back(trial % 2 == 0 ? std::floor(rng.uniform(0.0, 5.0))
                                        : rng.normal(1.5, 0.4));
      }
      const Samples sorted(values);
      for (const double p : {0.0, 1.0, 37.5, 50.0, 99.0, 99.9, 100.0}) {
        std::vector<double> scratch = values;
        EXPECT_EQ(select_percentile(scratch, p), sorted.percentile(p))
            << "n=" << n << " p=" << p;
      }
    }
  }
  std::vector<double> empty;
  EXPECT_THROW((void)select_percentile(empty, 50.0), Error);
  std::vector<double> one = {2.0};
  EXPECT_THROW((void)select_percentile(one, 101.0), Error);
}

TEST(CountHistogram, IsBitIdenticalToSamplesOnIntegerValues) {
  Rng rng(43);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 2049u}) {
    for (int trial = 0; trial < 10; ++trial) {
      Samples samples;
      CountHistogram histogram;
      // Queue-length-like values: mostly small with heavy ties, a tail up
      // to a few hundred.
      const std::size_t top = trial % 2 == 0 ? 4 : 400;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t v = rng.uniform_index(top + 1);
        samples.add(static_cast<double>(v));
        histogram.add(v);
      }
      ASSERT_EQ(histogram.count(), samples.count());
      EXPECT_EQ(histogram.mean(), samples.mean()) << "n=" << n;
      EXPECT_EQ(histogram.median(), samples.median()) << "n=" << n;
      for (const double p : {0.0, 1.0, 37.5, 95.0, 99.9, 100.0}) {
        EXPECT_EQ(histogram.percentile(p), samples.percentile(p))
            << "n=" << n << " p=" << p;
      }
    }
  }
  CountHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.percentile(50.0), Error);
  EXPECT_THROW((void)empty.mean(), Error);
}

TEST(Cdf, MonotoneAndCovering) {
  Rng rng(31);
  Samples s;
  for (int i = 0; i < 5000; ++i) s.add(rng.normal(10.0, 2.0));
  const auto cdf = empirical_cdf(s, 32);
  ASSERT_GE(cdf.size(), 2u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].probability, cdf[i].probability);
  }
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  EXPECT_DOUBLE_EQ(cdf.front().value, s.min());
  EXPECT_DOUBLE_EQ(cdf.back().value, s.max());
}

TEST(OnlineStats, TracksMinMeanMax) {
  OnlineStats s;
  s.add(3.0);
  s.add(1.0);
  s.add(5.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(OnlineStats, EmptyMeanIsZeroAndMinMaxNaN) {
  OnlineStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(WeightedMean, WeightsApply) {
  WeightedMean m;
  m.add(1.0, 1.0);
  m.add(3.0, 3.0);
  EXPECT_DOUBLE_EQ(m.value(), 2.5);
  EXPECT_DOUBLE_EQ(m.total_weight(), 4.0);
}

TEST(WeightedMean, ZeroWeightThrows) {
  WeightedMean m;
  EXPECT_THROW((void)m.value(), Error);
}

TEST(Table, RendersAllCells) {
  Table t("demo", {"a", "b"});
  t.add_row({"1", "hello"});
  t.add_row_numeric({2.5, 3.25}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t("demo", {"x"});
  t.add_row({std::string("a,\"b\"")});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\n\"a,\"\"b\"\"\"\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), Error);
}

TEST(Fmt, FormatsNumbersAndMoney) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_money(0.81), "$0.81");
}

TEST(Error, RequireMacroCarriesMessage) {
  try {
    CISP_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace cisp
