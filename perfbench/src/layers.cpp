#include "layers.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double RootBreakdown::child_sum(const std::string& name,
                                std::size_t n) const {
  const auto it = child_ms.find(name);
  if (it == child_ms.end()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n && i < it->second.size(); ++i) {
    sum += it->second[i];
  }
  return sum;
}

RootBreakdown breakdown(std::string_view root) {
  struct Open {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t child_ns = 0;
  };
  RootBreakdown out;
  std::uint32_t tid = 0;
  std::vector<Open> stack;
  // Index of the root occurrence the current stack sits under, or -1.
  long current = -1;
  for (const cisp::obs::TraceEvent& event : cisp::obs::trace_events()) {
    if (event.tid != tid) {
      tid = event.tid;
      stack.clear();
      current = -1;
    }
    if (event.ph == 'B') {
      if (event.name == root && current < 0) {
        current = static_cast<long>(out.total_ms.size());
        out.total_ms.push_back(0.0);
        out.self_ms.push_back(0.0);
      }
      stack.push_back({event.name, event.ts_ns, 0});
    } else if (event.ph == 'E' && !stack.empty()) {
      const Open open = stack.back();
      stack.pop_back();
      const std::uint64_t dur = event.ts_ns - open.begin_ns;
      if (!stack.empty()) stack.back().child_ns += dur;
      if (current < 0) continue;
      const auto k = static_cast<std::size_t>(current);
      if (open.name == root && stack.empty()) {
        out.total_ms[k] = static_cast<double>(dur) / 1e6;
        out.self_ms[k] = static_cast<double>(dur - open.child_ns) / 1e6;
        current = -1;
      } else {
        auto& series = out.child_ms[open.name];
        series.resize(out.total_ms.size(), 0.0);
        series[k] += static_cast<double>(dur) / 1e6;
      }
    }
  }
  for (auto& [name, series] : out.child_ms) {
    series.resize(out.total_ms.size(), 0.0);
  }
  return out;
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& row : cisp::obs::metrics_snapshot()) {
    if (row.kind == "counter" && row.name == name) return row.count;
  }
  return 0;
}

std::uint64_t counter_prefix_sum(std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const auto& row : cisp::obs::metrics_snapshot()) {
    if (row.kind == "counter" && row.name.starts_with(prefix)) {
      sum += row.count;
    }
  }
  return sum;
}

double histogram_mean(std::string_view name) {
  // The registry hands back the existing instrument (its bounds win).
  const cisp::obs::Histogram& h = cisp::obs::histogram(name, {});
  const std::vector<std::uint64_t> counts = h.counts();
  double lower = 0.0;
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    // The overflow bucket counts as one more decade.
    const double upper = b < h.bounds().size() ? h.bounds()[b] : lower * 10;
    const double mid = lower > 0.0 ? std::sqrt(lower * upper) : upper / 2.0;
    weighted += static_cast<double>(counts[b]) * mid;
    total += static_cast<double>(counts[b]);
    lower = upper;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

void start_metrics() {
  cisp::obs::reset_metrics();
  cisp::obs::set_metrics_enabled(true);
}

void start_tracing() {
  start_metrics();
  cisp::obs::clear_trace();
  cisp::obs::set_trace_enabled(true);
}

void stop_tracing() {
  cisp::obs::set_trace_enabled(false);
  cisp::obs::set_metrics_enabled(false);
}

}  // namespace perfbench
