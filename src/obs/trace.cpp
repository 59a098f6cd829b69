#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>

namespace cisp::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};

/// Bounded per-thread buffer: traces of pathological runs (millions of
/// sweep tasks) cap out instead of exhausting memory; drops are counted.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string thread_name;
  std::vector<TraceEvent> events;
};

/// Registered thread buffers. Buffers are owned here and never destroyed
/// (threads may outlive a clear; the TLS pointer must stay valid), so a
/// leaked singleton keeps shutdown order trivial.
struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

TraceState& state() {
  static TraceState* instance = new TraceState;
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* tls = nullptr;
  if (tls == nullptr) {
    TraceState& st = state();
    std::lock_guard<std::mutex> lock(st.mutex);
    st.buffers.push_back(std::make_unique<ThreadBuffer>());
    tls = st.buffers.back().get();
    tls->tid = static_cast<std::uint32_t>(st.buffers.size());
  }
  return *tls;
}

std::uint64_t now_ns() {
  // Epoch = first call in the process, so timestamps are small and every
  // buffer shares one origin.
  static const auto epoch = std::chrono::steady_clock::now();
  const auto elapsed = std::chrono::steady_clock::now() - epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

void append(TraceEvent event) {
  ThreadBuffer& buffer = local_buffer();
  if (buffer.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

void json_escaped(std::ostream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xF] << hex[ch & 0xF];
        } else {
          os << ch;
        }
    }
  }
}

/// Renders a double for JSON: finite values via printf shortest-ish
/// representation, non-finite as null (JSON has no Infinity/NaN).
void json_number(std::ostream& os, double v) {
  if (!(v == v) || v > 1.7976931348623157e308 ||
      v < -1.7976931348623157e308) {
    os << "null";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  os << buffer;
}

}  // namespace

bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool enabled) noexcept {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string name, std::string cat)
    : name_(std::move(name)), cat_(std::move(cat)),
      armed_(trace_enabled()) {
  if (!armed_) return;
  append({name_, cat_, 'B', now_ns(), 0, {}});
}

TraceSpan::TraceSpan(std::string name, std::string cat, std::string arg_name,
                     double arg_value)
    : name_(std::move(name)), cat_(std::move(cat)),
      armed_(trace_enabled()) {
  if (!armed_) return;
  append({name_, cat_, 'B', now_ns(), 0,
          {{std::move(arg_name), arg_value}}});
}

TraceSpan::TraceSpan(std::string name, std::string cat,
                     std::vector<std::pair<std::string, double>> args)
    : name_(std::move(name)), cat_(std::move(cat)),
      armed_(trace_enabled()) {
  if (!armed_) return;
  append({name_, cat_, 'B', now_ns(), 0, std::move(args)});
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  // Matched even when tracing was flipped off mid-span: the begin event is
  // already in the buffer, so the end must land too.
  append({std::move(name_), std::move(cat_), 'E', now_ns(), 0, {}});
}

void trace_instant(std::string name, std::string cat) {
  if (!trace_enabled()) return;
  append({std::move(name), std::move(cat), 'i', now_ns(), 0, {}});
}

void trace_instant(std::string name, std::string cat, std::string arg_name,
                   double arg_value) {
  if (!trace_enabled()) return;
  append({std::move(name), std::move(cat), 'i', now_ns(), 0,
          {{std::move(arg_name), arg_value}}});
}

void trace_counter(std::string name, double value) {
  if (!trace_enabled()) return;
  append({std::move(name), "counter", 'C', now_ns(), 0,
          {{"value", value}}});
}

void set_trace_thread_name(std::string name) {
  ThreadBuffer& buffer = local_buffer();
  buffer.thread_name = std::move(name);
}

void clear_trace() {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (auto& buffer : st.buffers) buffer->events.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_events() {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  std::vector<TraceEvent> out;
  for (const auto& buffer : st.buffers) {
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::uint64_t trace_dropped_events() {
  return g_dropped.load(std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& os) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const TraceEvent& event,
                        const std::string& thread_name) {
    if (!first) os << ",\n ";
    first = false;
    os << "{\"name\": \"";
    json_escaped(os, event.name);
    os << "\", \"cat\": \"";
    json_escaped(os, event.cat);
    os << "\", \"ph\": \"" << event.ph << "\", \"ts\": ";
    // Chrome trace timestamps are microseconds (fractional allowed).
    json_number(os, static_cast<double>(event.ts_ns) / 1000.0);
    os << ", \"pid\": 1, \"tid\": " << event.tid;
    if (event.ph == 'i') os << ", \"s\": \"t\"";
    if (!event.args.empty() || event.ph == 'C') {
      os << ", \"args\": {";
      for (std::size_t a = 0; a < event.args.size(); ++a) {
        if (a) os << ", ";
        os << '"';
        json_escaped(os, event.args[a].first);
        os << "\": ";
        json_number(os, event.args[a].second);
      }
      os << '}';
    }
    os << '}';
    (void)thread_name;
  };
  for (const auto& buffer : st.buffers) {
    if (!buffer->thread_name.empty()) {
      if (!first) os << ",\n ";
      first = false;
      os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": "
         << buffer->tid << ", \"args\": {\"name\": \"";
      json_escaped(os, buffer->thread_name);
      os << "\"}}";
    }
    for (const TraceEvent& event : buffer->events) {
      emit(event, buffer->thread_name);
    }
  }
  os << "], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace cisp::obs
