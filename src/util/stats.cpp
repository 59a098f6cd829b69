#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace cisp {

Samples::Samples(std::vector<double> values) : values_(std::move(values)) {
  sum_ = std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Samples::add(double value) {
  values_.push_back(value);
  sum_ += value;
  sorted_valid_ = false;
}

void Samples::add_all(const std::vector<double>& values) {
  for (double v : values) add(v);
}

double Samples::mean() const {
  CISP_REQUIRE(!values_.empty(), "mean of empty sample set");
  return sum_ / static_cast<double>(values_.size());
}

double Samples::variance() const {
  CISP_REQUIRE(!values_.empty(), "variance of empty sample set");
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values_.size());
}

double Samples::stddev() const { return std::sqrt(variance()); }

double Samples::min() const {
  CISP_REQUIRE(!values_.empty(), "min of empty sample set");
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  CISP_REQUIRE(!values_.empty(), "max of empty sample set");
  return *std::max_element(values_.begin(), values_.end());
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

namespace {

/// The interpolation both percentile paths share: linear between the
/// order statistics at the floor and ceiling of rank p/100 * (n-1).
/// `order(k)` returns the k-th smallest of the n values; it is asked for
/// the lower rank first.
template <typename Order>
double interpolate_rank(std::size_t n, double p, Order&& order) {
  CISP_REQUIRE(n > 0, "percentile of empty sample set");
  CISP_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (n == 1) return order(0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const double lo_value = order(lo);
  return lo_value * (1.0 - frac) + order(hi) * frac;
}

}  // namespace

double Samples::percentile(double p) const {
  if (!values_.empty()) ensure_sorted();
  return interpolate_rank(values_.size(), p,
                          [&](std::size_t k) { return sorted_[k]; });
}

double select_percentile(std::vector<double>& values, double p) {
  const auto at = [&](std::size_t k) {
    return values.begin() + static_cast<std::ptrdiff_t>(k);
  };
  std::size_t selected = values.size();  // none yet
  return interpolate_rank(values.size(), p, [&](std::size_t k) {
    if (selected < values.size() && k == selected + 1) {
      // Everything after the selected slot is >= it, so the next order
      // statistic is their minimum.
      return *std::min_element(at(k), values.end());
    }
    std::nth_element(values.begin(), at(k), values.end());
    selected = k;
    return values[k];
  });
}

void CountHistogram::add(std::size_t value) {
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  ++counts_[value];
  ++count_;
  sum_ += value;
}

double CountHistogram::mean() const {
  CISP_REQUIRE(count_ > 0, "mean of empty sample set");
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double CountHistogram::percentile(double p) const {
  return interpolate_rank(count_, p, [&](std::size_t k) {
    // The k-th smallest sample is the first value whose running count
    // passes k.
    std::size_t seen = 0;
    std::size_t v = 0;
    while (seen + counts_[v] <= k) seen += counts_[v++];
    return static_cast<double>(v);
  });
}

std::vector<CdfPoint> empirical_cdf(const Samples& samples,
                                    std::size_t max_points) {
  CISP_REQUIRE(max_points >= 2, "CDF needs at least two points");
  if (samples.empty()) return {};
  std::vector<double> sorted = samples.values();
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t points = std::min(max_points, n);
  std::vector<CdfPoint> cdf;
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // Evenly spaced ranks including both extremes.
    const std::size_t rank =
        (points == 1) ? n - 1 : i * (n - 1) / (points - 1);
    cdf.push_back({sorted[rank],
                   static_cast<double>(rank + 1) / static_cast<double>(n)});
  }
  return cdf;
}

void OnlineStats::add(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double OnlineStats::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double OnlineStats::min() const noexcept {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double OnlineStats::max() const noexcept {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

void WeightedMean::add(double value, double weight) noexcept {
  acc_ += value * weight;
  weight_ += weight;
}

double WeightedMean::value() const {
  CISP_REQUIRE(weight_ > 0.0, "weighted mean with zero total weight");
  return acc_ / weight_;
}

}  // namespace cisp
