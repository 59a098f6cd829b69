#pragma once
// Reading the library's own instrumentation back out of a traced phase:
// span wall time per root occurrence (one timeline.step, one
// traffic.packet) split into its named children and its self time, plus
// counter and histogram reads from the metrics registry.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Per-occurrence breakdown of one root span name.
struct RootBreakdown {
  /// Inclusive wall ms of each root occurrence, in collection order.
  std::vector<double> total_ms;
  /// Self ms (inclusive minus direct children) of each occurrence.
  std::vector<double> self_ms;
  /// Inclusive ms of every span name nested anywhere under an
  /// occurrence on the same thread, per occurrence.
  std::map<std::string, std::vector<double>> child_ms;

  [[nodiscard]] std::size_t size() const { return total_ms.size(); }
  /// Sum of a child's ms over occurrences [0, n) (0 when never seen).
  [[nodiscard]] double child_sum(const std::string& name,
                                 std::size_t n) const;
};

/// Breaks the collected trace down by occurrences of `root` (spans of
/// that name on any thread; nested spans of other threads are not
/// attributed to it).
RootBreakdown breakdown(std::string_view root);

/// Current value of a registry counter (0 when it was never created).
std::uint64_t counter_value(std::string_view name);
/// Sum of every counter whose name starts with `prefix`.
std::uint64_t counter_prefix_sum(std::string_view prefix);
/// Bucket-midpoint mean of a registry histogram (0 when empty): each
/// sample counts as the geometric midpoint of its bucket's bounds.
/// Call it only after the library created the histogram.
double histogram_mean(std::string_view name);

/// Turns metrics and tracing on with a clean slate.
void start_tracing();
/// Turns metrics (only) on with a clean slate.
void start_metrics();
/// Turns both off (collected data stays readable).
void stop_tracing();

}  // namespace perfbench
