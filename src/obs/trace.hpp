#pragma once
// Phase tracing: Chrome trace-event JSON (the format chrome://tracing and
// Perfetto load directly) of executor task spans, solver phases, allocator
// rounds and scenario epochs. Spans are duration events — a "B" (begin)
// record at scope entry and a matching "E" (end) at exit on the same
// thread — plus "i" instants and "C" counter tracks (the alpha-fair KKT
// residual trajectory renders as a counter plot).
//
// Collection is per-thread: every thread appends to its own buffer (no
// shared mutable state on the hot path), buffers register once under a
// mutex, and write_chrome_trace() walks them thread by thread so B/E pairs
// stay matched and ordered within each tid. Tracing is OFF by default;
// disabled instruments cost one relaxed atomic load. A TraceSpan that
// began while tracing was enabled always writes its end event, so spans
// stay matched even across a mid-span disable.
//
// Like metrics (obs/metrics.hpp), tracing only observes: no experiment
// result can depend on whether a trace is being collected.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace cisp::obs {

/// Global tracing switch.
[[nodiscard]] bool trace_enabled() noexcept;
void set_trace_enabled(bool enabled) noexcept;

/// One collected event. `ph` is the Chrome trace phase: 'B'/'E' span
/// begin/end, 'i' instant, 'C' counter sample. Timestamps are nanoseconds
/// on the steady clock since the first event of the process (rendered as
/// microseconds in the JSON). Args carry at most a few numeric annotations
/// (task index, residual value, ...).
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'i';
  std::uint64_t ts_ns = 0;
  std::uint32_t tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// RAII duration span: records 'B' on construction when tracing is
/// enabled, and the matching 'E' on destruction (even if tracing was
/// disabled in between). The optional args are attached to the begin event.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string cat = "cisp");
  TraceSpan(std::string name, std::string cat, std::string arg_name,
            double arg_value);
  TraceSpan(std::string name, std::string cat,
            std::vector<std::pair<std::string, double>> args);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  std::string cat_;
  bool armed_ = false;
};

/// A point-in-time marker (cache hits, phase boundaries).
void trace_instant(std::string name, std::string cat = "cisp");
void trace_instant(std::string name, std::string cat, std::string arg_name,
                   double arg_value);

/// A counter sample: renders as a value-over-time track in Perfetto.
void trace_counter(std::string name, double value);

/// Names the calling thread in the trace ("M" metadata in the JSON).
void set_trace_thread_name(std::string name);

/// Discards every collected event (thread buffers stay registered).
void clear_trace();

/// All collected events, walked buffer by buffer (so events within one tid
/// are in collection order — B/E matched) with tids in registration order.
[[nodiscard]] std::vector<TraceEvent> trace_events();

/// Events dropped because a thread buffer hit its cap (bounded memory).
[[nodiscard]] std::uint64_t trace_dropped_events();

/// Writes the collected trace as a Chrome trace-event JSON document:
/// {"traceEvents": [...], "displayTimeUnit": "ms"}. Load it in Perfetto
/// (ui.perfetto.dev) or chrome://tracing.
void write_chrome_trace(std::ostream& os);

}  // namespace cisp::obs
