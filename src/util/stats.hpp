#pragma once
// Summary statistics, percentiles and empirical CDFs used throughout the
// evaluation harness (every figure in the paper reports one of these).

#include <cstddef>
#include <string>
#include <vector>

namespace cisp {

/// Accumulates samples and answers summary queries. Percentile queries sort
/// an internal copy lazily; adding samples invalidates the cache.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values);

  void add(double value);
  void add_all(const std::vector<double>& values);

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const;
  /// Population variance / standard deviation.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Percentile in [0,100] with linear interpolation between order statistics.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
};

/// Samples of small non-negative integers (queue lengths) held as one
/// count per value: memory grows with the largest value, not with the
/// number of samples. mean() and percentile() return what Samples would
/// for the same values, bit for bit: the integer sum is exact in a double
/// below 2^53, and the percentile interpolates between the same order
/// statistics.
class CountHistogram {
 public:
  void add(std::size_t value);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const;
  /// Percentile in [0,100] with linear interpolation between order statistics.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  std::vector<std::size_t> counts_;  ///< counts_[v]: samples equal to v
  std::size_t count_ = 0;
  std::size_t sum_ = 0;
};

/// Samples(values).percentile(p), bit for bit, by selecting the two order
/// statistics it interpolates between instead of sorting: O(n) on
/// average. Reorders `values`, which must not be empty.
[[nodiscard]] double select_percentile(std::vector<double>& values, double p);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double probability = 0.0;  ///< P[X <= value]
};

/// Empirical CDF of the samples, downsampled to at most `max_points` evenly
/// spaced (in probability) points — convenient for printing figure series.
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(const Samples& samples,
                                                  std::size_t max_points = 64);

/// Streaming mean/min/max without storing samples (used by the simulator's
/// per-packet monitors where sample counts reach millions).
class OnlineStats {
 public:
  void add(double value) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Weighted mean helper (e.g., traffic-weighted stretch).
class WeightedMean {
 public:
  void add(double value, double weight) noexcept;
  [[nodiscard]] double value() const;
  [[nodiscard]] double total_weight() const noexcept { return weight_; }

 private:
  double acc_ = 0.0;
  double weight_ = 0.0;
};

}  // namespace cisp
