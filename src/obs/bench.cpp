#include "obs/bench.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace cisp::obs {

namespace {

void json_escaped(std::ostream& os, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << ch;
    }
  }
}

/// A deliberately small recursive-descent JSON reader, enough for reports
/// written by write_bench_json (and hand-authored baselines in tests):
/// objects, arrays, strings, numbers, booleans. No unicode escapes.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    CISP_REQUIRE(pos_ < text_.size(), "bench json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    CISP_REQUIRE(peek() == ch,
                 std::string("bench json: expected '") + ch + "' at offset " +
                     std::to_string(pos_));
    ++pos_;
  }

  bool consume(char ch) {
    if (pos_ < text_.size() && peek() == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      CISP_REQUIRE(pos_ < text_.size(),
                   "bench json: unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') break;
      if (ch == '\\') {
        CISP_REQUIRE(pos_ < text_.size(),
                     "bench json: unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          default: out.push_back(esc); break;
        }
      } else {
        out.push_back(ch);
      }
    }
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    CISP_REQUIRE(pos_ > start, "bench json: expected number at offset " +
                                   std::to_string(start));
    return std::stod(text_.substr(start, pos_ - start));
  }

  bool parse_bool() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    CISP_REQUIRE(false, "bench json: expected boolean at offset " +
                            std::to_string(pos_));
    return false;
  }

  /// Skips any value (for unknown keys — forward compatibility).
  void skip_value() {
    const char ch = peek();
    if (ch == '"') {
      parse_string();
    } else if (ch == '{') {
      ++pos_;
      if (!consume('}')) {
        do {
          parse_string();
          expect(':');
          skip_value();
        } while (consume(','));
        expect('}');
      }
    } else if (ch == '[') {
      ++pos_;
      if (!consume(']')) {
        do {
          skip_value();
        } while (consume(','));
        expect(']');
      }
    } else if (ch == 't' || ch == 'f') {
      parse_bool();
    } else {
      parse_number();
    }
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

BenchEntry parse_entry(JsonReader& reader) {
  BenchEntry entry;
  reader.expect('{');
  if (!reader.consume('}')) {
    do {
      const std::string key = reader.parse_string();
      reader.expect(':');
      if (key == "name") {
        entry.name = reader.parse_string();
      } else if (key == "ns_per_op") {
        entry.ns_per_op = reader.parse_number();
      } else if (key == "reps") {
        entry.reps = static_cast<std::uint64_t>(reader.parse_number());
      } else {
        reader.skip_value();
      }
    } while (reader.consume(','));
    reader.expect('}');
  }
  CISP_REQUIRE(!entry.name.empty(), "bench json: entry without a name");
  return entry;
}

const char* status_label(BenchStatus status) {
  switch (status) {
    case BenchStatus::kOk: return "ok";
    case BenchStatus::kImprove: return "improve";
    case BenchStatus::kRegress: return "REGRESS";
    case BenchStatus::kUnresolved: return "unresolved";
    case BenchStatus::kAdded: return "added";
    case BenchStatus::kRemoved: return "removed";
  }
  return "?";
}

/// One side of a comparison: every kernel's ns/op across the side's
/// samples, in the first sample's kernel order. Throws when the side is
/// too small or its samples disagree on the kernel set.
struct Side {
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> ns;
};

Side collect_side(const std::vector<BenchReport>& samples, const char* label) {
  CISP_REQUIRE(samples.size() >= kMinBenchSamples,
               std::string("perf compare: ") + label + " has " +
                   std::to_string(samples.size()) + " sample(s), needs " +
                   std::to_string(kMinBenchSamples));
  Side side;
  for (const BenchEntry& entry : samples.front().entries) {
    CISP_REQUIRE(side.ns.emplace(entry.name, std::vector<double>{}).second,
                 std::string("perf compare: ") + label +
                     " lists kernel '" + entry.name + "' twice");
    side.order.push_back(entry.name);
  }
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto& entries = samples[s].entries;
    CISP_REQUIRE(entries.size() == side.order.size(),
                 std::string("perf compare: ") + label + " sample " +
                     std::to_string(s + 1) + " lists " +
                     std::to_string(entries.size()) + " kernels, sample 1 " +
                     std::to_string(side.order.size()));
    for (const BenchEntry& entry : entries) {
      const auto it = side.ns.find(entry.name);
      CISP_REQUIRE(it != side.ns.end() && it->second.size() == s,
                   std::string("perf compare: ") + label + " sample " +
                       std::to_string(s + 1) + " has a different kernel set (" +
                       entry.name + ")");
      it->second.push_back(entry.ns_per_op);
    }
  }
  return side;
}

double iqr(const Samples& ns) {
  return ns.percentile(75.0) - ns.percentile(25.0);
}

}  // namespace

void write_bench_json(std::ostream& os, const BenchReport& report) {
  os << "{\n  \"schema\": \"";
  json_escaped(os, report.schema);
  os << "\",\n  \"build\": \"";
  json_escaped(os, report.build);
  os << "\",\n  \"fast\": " << (report.fast ? "true" : "false")
     << ",\n  \"threads\": " << report.threads << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& entry = report.entries[i];
    char ns[64];
    std::snprintf(ns, sizeof(ns), "%.3f", entry.ns_per_op);
    os << "    {\"name\": \"";
    json_escaped(os, entry.name);
    os << "\", \"ns_per_op\": " << ns << ", \"reps\": " << entry.reps << "}";
    if (i + 1 < report.entries.size()) os << ',';
    os << '\n';
  }
  os << "  ]\n}\n";
}

BenchReport parse_bench_json(const std::string& text) {
  JsonReader reader(text);
  BenchReport report;
  report.schema.clear();
  reader.expect('{');
  if (!reader.consume('}')) {
    do {
      const std::string key = reader.parse_string();
      reader.expect(':');
      if (key == "schema") {
        report.schema = reader.parse_string();
      } else if (key == "build") {
        report.build = reader.parse_string();
      } else if (key == "fast") {
        report.fast = reader.parse_bool();
      } else if (key == "threads") {
        report.threads = static_cast<std::size_t>(reader.parse_number());
      } else if (key == "entries") {
        reader.expect('[');
        if (!reader.consume(']')) {
          do {
            report.entries.push_back(parse_entry(reader));
          } while (reader.consume(','));
          reader.expect(']');
        }
      } else {
        reader.skip_value();
      }
    } while (reader.consume(','));
    reader.expect('}');
  }
  CISP_REQUIRE(report.schema == kBenchSchema,
               "bench json: unsupported schema '" + report.schema +
                   "' (want " + std::string(kBenchSchema) + ")");
  return report;
}

std::vector<BenchComparison> compare_bench(
    const std::vector<BenchReport>& base,
    const std::vector<BenchReport>& head) {
  const Side base_side = collect_side(base, "base");
  const Side head_side = collect_side(head, "head");
  const bool fast = base.front().fast;
  for (const auto* side : {&base, &head}) {
    for (const BenchReport& sample : *side) {
      CISP_REQUIRE(sample.fast == fast,
                   "perf compare: samples mix fast and full runs");
    }
  }

  std::vector<BenchComparison> rows;
  for (const std::string& name : base_side.order) {
    const Samples base_ns(base_side.ns.at(name));
    BenchComparison row;
    row.name = name;
    row.base_median_ns = base_ns.median();
    row.base_iqr_ns = iqr(base_ns);
    const auto it = head_side.ns.find(name);
    if (it == head_side.ns.end()) {
      row.status = BenchStatus::kRemoved;
      rows.push_back(std::move(row));
      continue;
    }
    const Samples head_ns(it->second);
    row.head_median_ns = head_ns.median();
    row.head_iqr_ns = iqr(head_ns);
    const double gap = row.head_median_ns - row.base_median_ns;
    if (row.base_median_ns > 0.0) row.delta = gap / row.base_median_ns;
    if (std::abs(row.delta) <= kBenchThreshold) {
      row.status = BenchStatus::kOk;
    } else if (std::abs(gap) <= std::max(row.base_iqr_ns, row.head_iqr_ns)) {
      row.status = BenchStatus::kUnresolved;
    } else {
      row.status = gap > 0.0 ? BenchStatus::kRegress : BenchStatus::kImprove;
    }
    rows.push_back(std::move(row));
  }
  for (const std::string& name : head_side.order) {
    if (base_side.ns.count(name) != 0) continue;
    BenchComparison row;
    row.name = name;
    const Samples head_ns(head_side.ns.at(name));
    row.head_median_ns = head_ns.median();
    row.head_iqr_ns = iqr(head_ns);
    row.status = BenchStatus::kAdded;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::size_t render_bench_comparison(
    std::ostream& os, const std::vector<BenchComparison>& rows) {
  std::size_t name_width = 6;
  for (const BenchComparison& row : rows) {
    name_width = std::max(name_width, row.name.size());
  }
  os << std::left << std::setw(static_cast<int>(name_width + 2)) << "kernel"
     << std::right << std::setw(14) << "base med ns" << std::setw(10)
     << "base IQR" << std::setw(14) << "head med ns" << std::setw(10)
     << "head IQR" << std::setw(10) << "delta"
     << "  status\n";
  std::size_t regressions = 0;
  const auto percent_of = [](double part, double whole) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.1f%%",
                  whole > 0.0 ? part / whole * 100.0 : 0.0);
    return std::string(text);
  };
  for (const BenchComparison& row : rows) {
    const bool has_base = row.status != BenchStatus::kAdded;
    const bool has_head = row.status != BenchStatus::kRemoved;
    char base[32], head[32], delta[32];
    std::snprintf(base, sizeof(base), "%.1f", row.base_median_ns);
    std::snprintf(head, sizeof(head), "%.1f", row.head_median_ns);
    std::snprintf(delta, sizeof(delta), "%+.1f%%", row.delta * 100.0);
    os << std::left << std::setw(static_cast<int>(name_width + 2))
       << row.name << std::right << std::setw(14) << (has_base ? base : "-")
       << std::setw(10)
       << (has_base ? percent_of(row.base_iqr_ns, row.base_median_ns) : "-")
       << std::setw(14) << (has_head ? head : "-") << std::setw(10)
       << (has_head ? percent_of(row.head_iqr_ns, row.head_median_ns) : "-")
       << std::setw(10) << (has_base && has_head ? delta : "-") << "  "
       << status_label(row.status) << '\n';
    if (row.status == BenchStatus::kRegress) ++regressions;
  }
  return regressions;
}

}  // namespace cisp::obs
