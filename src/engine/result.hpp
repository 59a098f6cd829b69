#pragma once
// Structured experiment results: instead of printing, an experiment returns
// a ResultSet — named tables of typed cells plus free-form notes — and the
// report layer (engine/report.hpp) decides how to render it (pretty table,
// CSV, JSON). Because a ResultSet is plain data it can be serialized to the
// result cache, diffed across runs, and composed by downstream tooling.
//
// Cells are typed (real / integer / text) but carry their display precision
// so every sink renders a real the same way — the byte-identity contract of
// the sweep engine extends through rendering: the same ResultSet always
// renders to the same bytes.

#include <concepts>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace cisp::engine {

/// One typed table cell. Reals remember the precision they should render
/// with (the old per-cell `fmt(x, k)` calls), so rendering is deterministic
/// and the numeric value stays available for JSON / downstream analysis.
class Value {
 public:
  enum class Kind { Null, Real, Int, Text };

  Value() = default;
  template <std::floating_point T>
  Value(T v) : kind_(Kind::Real), real_(static_cast<double>(v)) {}
  template <std::integral T>
  Value(T v) : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  Value(std::string v) : kind_(Kind::Text), text_(std::move(v)) {}
  Value(const char* v) : kind_(Kind::Text), text_(v) {}

  /// A real with an explicit display precision (default is 3, matching the
  /// historical `fmt` default).
  [[nodiscard]] static Value real(double v, int precision);
  [[nodiscard]] static Value integer(std::int64_t v);
  [[nodiscard]] static Value text(std::string v);
  /// Money cell: renders as "$1.23" but keeps the raw amount.
  [[nodiscard]] static Value money(double usd, int precision = 2);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  /// Numeric view: the real/integer value; throws for Text/Null.
  [[nodiscard]] double as_real() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_text() const;
  [[nodiscard]] int precision() const noexcept { return precision_; }
  [[nodiscard]] bool is_money() const noexcept { return money_; }

  /// The cell rendered for tables and CSV (fixed precision for reals).
  [[nodiscard]] std::string rendered() const;

  [[nodiscard]] bool operator==(const Value& other) const;

 private:
  Kind kind_ = Kind::Null;
  double real_ = 0.0;
  std::int64_t int_ = 0;
  std::string text_;
  int precision_ = 3;
  bool money_ = false;
};

/// A named table of Value rows. `slug` is the stable machine name used for
/// CSV file naming and the cache; `title` is the human heading.
class ResultTable {
 public:
  ResultTable(std::string slug, std::string title,
              std::vector<std::string> columns);

  /// Appends a row; width must match the column count.
  ResultTable& row(std::vector<Value> cells);

  /// Marks a column as a wall-clock timing. Its cells render like any
  /// other, but operator== and diff_result_sets skip the column when
  /// either side marks it: timings vary between byte-identical runs.
  /// The by-name overload throws cisp::Error for an unknown column.
  ResultTable& mark_timing(const std::string& column);
  ResultTable& mark_timing(std::size_t col);
  [[nodiscard]] bool is_timing(std::size_t col) const noexcept {
    return col < timing_.size() && timing_[col];
  }

  [[nodiscard]] const std::string& slug() const noexcept { return slug_; }
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<Value>>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] const Value& at(std::size_t row, std::size_t col) const;

  [[nodiscard]] bool operator==(const ResultTable& other) const;

 private:
  std::string slug_;
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<bool> timing_;  ///< per column; sized with columns_
  std::vector<std::vector<Value>> rows_;
};

/// What an experiment returns: tables plus notes (the prose that used to be
/// printed after each figure — paper-shape commentary, ASCII maps, ...).
/// Tables live in a deque so references returned by add_table() stay valid
/// while later tables are added.
class ResultSet {
 public:
  /// Adds a table and returns a reference for row appending. Slugs must be
  /// unique within the set.
  ResultTable& add_table(std::string slug, std::string title,
                         std::vector<std::string> columns);
  /// Appends a free-form note (rendered by the pretty sink only).
  void note(std::string text);

  [[nodiscard]] const std::deque<ResultTable>& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }
  /// Lookup by slug; throws cisp::Error when absent.
  [[nodiscard]] const ResultTable& table(const std::string& slug) const;
  [[nodiscard]] bool has_table(const std::string& slug) const;

  /// True when the set carries no table rows at all (--require-rows).
  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t total_rows() const noexcept;

  /// Run provenance: who/what/when metadata stamped by the runner (build
  /// hash, seed, thread count, wall time, ...). Deliberately EXCLUDED from
  /// operator==, diff_result_sets and every render sink — provenance
  /// describes a run, not a result, so a cache entry produced at a
  /// different thread count still diffs byte-identical. Keys are stored in
  /// insertion order; set() replaces an existing key in place.
  void set_provenance(std::string key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  provenance() const noexcept {
    return provenance_;
  }
  /// Value for a provenance key, or "" when absent.
  [[nodiscard]] std::string provenance_value(const std::string& key) const;

  [[nodiscard]] bool operator==(const ResultSet& other) const;

 private:
  std::deque<ResultTable> tables_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> provenance_;
};

/// Serializes a ResultSet to the line-based `cisp-result-v1` format used by
/// the runner's result cache. Round-trips exactly: reals are written with
/// shortest round-trip representation plus their display precision.
void serialize(const ResultSet& set, std::ostream& os);

/// Parses the `cisp-result-v1` format; throws cisp::Error on malformed
/// input (including version mismatch, so stale caches self-invalidate).
[[nodiscard]] ResultSet deserialize(std::istream& is);

}  // namespace cisp::engine
