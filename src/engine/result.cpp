#include "engine/result.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace cisp::engine {

Value Value::real(double v, int precision) {
  Value value{v};
  value.precision_ = precision;
  return value;
}

Value Value::integer(std::int64_t v) { return Value{v}; }

Value Value::text(std::string v) { return Value{std::move(v)}; }

Value Value::money(double usd, int precision) {
  Value value{usd};
  value.precision_ = precision;
  value.money_ = true;
  return value;
}

double Value::as_real() const {
  if (kind_ == Kind::Real) return real_;
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  CISP_REQUIRE(false, "Value is not numeric");
  return 0.0;  // unreachable
}

std::int64_t Value::as_int() const {
  CISP_REQUIRE(kind_ == Kind::Int, "Value is not an integer");
  return int_;
}

const std::string& Value::as_text() const {
  CISP_REQUIRE(kind_ == Kind::Text, "Value is not text");
  return text_;
}

std::string Value::rendered() const {
  switch (kind_) {
    case Kind::Null:
      return "-";
    case Kind::Real:
      return money_ ? fmt_money(real_, precision_) : fmt(real_, precision_);
    case Kind::Int:
      return std::to_string(int_);
    case Kind::Text:
      return text_;
  }
  return {};
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null:
      return true;
    case Kind::Real:
      return real_ == other.real_ && precision_ == other.precision_ &&
             money_ == other.money_;
    case Kind::Int:
      return int_ == other.int_;
    case Kind::Text:
      return text_ == other.text_;
  }
  return false;
}

ResultTable::ResultTable(std::string slug, std::string title,
                         std::vector<std::string> columns)
    : slug_(std::move(slug)),
      title_(std::move(title)),
      columns_(std::move(columns)),
      timing_(columns_.size(), false) {
  CISP_REQUIRE(!slug_.empty(), "result table slug must be non-empty");
  CISP_REQUIRE(!columns_.empty(), "result table needs at least one column");
}

ResultTable& ResultTable::row(std::vector<Value> cells) {
  CISP_REQUIRE(cells.size() == columns_.size(),
               "row width does not match column count in table " + slug_);
  rows_.push_back(std::move(cells));
  return *this;
}

const Value& ResultTable::at(std::size_t row, std::size_t col) const {
  CISP_REQUIRE(row < rows_.size() && col < columns_.size(),
               "result table index out of range");
  return rows_[row][col];
}

ResultTable& ResultTable::mark_timing(const std::string& column) {
  const auto it = std::find(columns_.begin(), columns_.end(), column);
  CISP_REQUIRE(it != columns_.end(),
               "no column '" + column + "' in table " + slug_);
  return mark_timing(static_cast<std::size_t>(it - columns_.begin()));
}

ResultTable& ResultTable::mark_timing(std::size_t col) {
  CISP_REQUIRE(col < columns_.size(),
               "timing column out of range in table " + slug_);
  timing_[col] = true;
  return *this;
}

bool ResultTable::operator==(const ResultTable& other) const {
  if (slug_ != other.slug_ || title_ != other.title_ ||
      columns_ != other.columns_ || rows_.size() != other.rows_.size()) {
    return false;
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (is_timing(c) || other.is_timing(c)) continue;
      if (!(rows_[r][c] == other.rows_[r][c])) return false;
    }
  }
  return true;
}

ResultTable& ResultSet::add_table(std::string slug, std::string title,
                                  std::vector<std::string> columns) {
  CISP_REQUIRE(!has_table(slug), "duplicate result table slug: " + slug);
  tables_.emplace_back(std::move(slug), std::move(title), std::move(columns));
  return tables_.back();
}

void ResultSet::note(std::string text) { notes_.push_back(std::move(text)); }

const ResultTable& ResultSet::table(const std::string& slug) const {
  for (const auto& t : tables_) {
    if (t.slug() == slug) return t;
  }
  CISP_REQUIRE(false, "no result table with slug: " + slug);
  return tables_.front();  // unreachable
}

bool ResultSet::has_table(const std::string& slug) const {
  return std::any_of(tables_.begin(), tables_.end(),
                     [&](const auto& t) { return t.slug() == slug; });
}

void ResultSet::set_provenance(std::string key, std::string value) {
  CISP_REQUIRE(!key.empty(), "provenance key must be non-empty");
  for (auto& [k, v] : provenance_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  provenance_.emplace_back(std::move(key), std::move(value));
}

std::string ResultSet::provenance_value(const std::string& key) const {
  for (const auto& [k, v] : provenance_) {
    if (k == key) return v;
  }
  return {};
}

bool ResultSet::empty() const noexcept { return total_rows() == 0; }

std::size_t ResultSet::total_rows() const noexcept {
  std::size_t rows = 0;
  for (const auto& t : tables_) rows += t.row_count();
  return rows;
}

bool ResultSet::operator==(const ResultSet& other) const {
  return tables_ == other.tables_ && notes_ == other.notes_;
}

// ---------------------------------------------------------------------------
// Serialization: one record per line, "<tag> <payload>"; payload fields are
// tab-separated with backslash escaping for backslash / tab / newline, so
// arbitrary titles and notes (including the multi-line ASCII maps) survive.
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kMagic = "cisp-result-v1";

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    CISP_REQUIRE(i + 1 < s.size(), "dangling escape in result file");
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default:
        CISP_REQUIRE(false, "unknown escape in result file");
    }
  }
  return out;
}

std::vector<std::string> split_fields(const std::string& payload) {
  std::vector<std::string> fields;
  std::string current;
  bool escaped = false;
  for (const char ch : payload) {
    if (escaped) {
      current += ch;
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      current += ch;
      escaped = true;
    } else if (ch == '\t') {
      fields.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  fields.push_back(current);
  return fields;
}

std::string real_repr(double v) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  CISP_REQUIRE(ec == std::errc{}, "failed to format real");
  return std::string(buffer, end);
}

double parse_real(const std::string& s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  CISP_REQUIRE(ec == std::errc{} && ptr == s.data() + s.size(),
               "malformed real in result file: " + s);
  return v;
}

std::string cell_repr(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::Null:
      return "n:";
    case Value::Kind::Real:
      return std::string(value.is_money() ? "m" : "r") +
             std::to_string(value.precision()) + ":" +
             real_repr(value.as_real());
    case Value::Kind::Int:
      return "i:" + std::to_string(value.as_int());
    case Value::Kind::Text:
      return "t:" + value.as_text();  // field-level escaping happens later
  }
  return {};
}

Value parse_cell(const std::string& repr) {
  const auto colon = repr.find(':');
  CISP_REQUIRE(colon != std::string::npos, "malformed cell: " + repr);
  const std::string tag = repr.substr(0, colon);
  const std::string body = repr.substr(colon + 1);
  if (tag == "n") return Value{};
  if (tag == "i") {
    std::int64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(body.data(), body.data() + body.size(), v);
    CISP_REQUIRE(ec == std::errc{} && ptr == body.data() + body.size(),
                 "malformed integer cell: " + repr);
    return Value::integer(v);
  }
  if (tag == "t") return Value::text(body);
  CISP_REQUIRE(!tag.empty() && (tag[0] == 'r' || tag[0] == 'm'),
               "unknown cell tag: " + repr);
  const int precision = std::stoi(tag.substr(1));
  const double v = parse_real(body);
  return tag[0] == 'm' ? Value::money(v, precision)
                       : Value::real(v, precision);
}

}  // namespace

void serialize(const ResultSet& set, std::ostream& os) {
  os << kMagic << '\n';
  for (const auto& table : set.tables()) {
    os << "table " << escape(table.slug()) << '\t' << escape(table.title())
       << '\n';
    os << "columns";
    for (std::size_t c = 0; c < table.columns().size(); ++c) {
      os << (c ? "\t" : " ") << escape(table.columns()[c]);
    }
    os << '\n';
    // Timing marks are their own optional record, so a file written
    // before they existed still loads (its columns are all results).
    std::string timing;
    for (std::size_t c = 0; c < table.columns().size(); ++c) {
      if (table.is_timing(c)) {
        timing += timing.empty() ? ' ' : '\t';
        timing += std::to_string(c);
      }
    }
    if (!timing.empty()) os << "timing" << timing << '\n';
    for (const auto& row : table.rows()) {
      os << "row";
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << (c ? "\t" : " ") << escape(cell_repr(row[c]));
      }
      os << '\n';
    }
  }
  for (const auto& note : set.notes()) {
    os << "note " << escape(note) << '\n';
  }
  // Provenance records are optional metadata under the same magic: old
  // readers never see them (build-hash keying invalidates old cache
  // entries first), and they stay outside equality/diff by construction.
  for (const auto& [key, value] : set.provenance()) {
    os << "prov " << escape(key) << '\t' << escape(value) << '\n';
  }
  os << "end\n";
}

ResultSet deserialize(std::istream& is) {
  std::string line;
  CISP_REQUIRE(std::getline(is, line) && line == kMagic,
               "not a cisp-result-v1 file");
  ResultSet set;
  ResultTable* current = nullptr;
  bool ended = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const std::string tag = line.substr(0, space);
    const std::string payload =
        space == std::string::npos ? std::string{} : line.substr(space + 1);
    if (tag == "end") {
      ended = true;
      break;
    }
    if (tag == "table") {
      const auto fields = split_fields(payload);
      CISP_REQUIRE(fields.size() == 2, "malformed table record");
      // Columns arrive on the next record; create with a placeholder that
      // the columns record replaces.
      std::string next;
      CISP_REQUIRE(std::getline(is, next) && next.rfind("columns ", 0) == 0,
                   "table record not followed by columns");
      std::vector<std::string> columns;
      for (const auto& f : split_fields(next.substr(8))) {
        columns.push_back(unescape(f));
      }
      current = &set.add_table(unescape(fields[0]), unescape(fields[1]),
                               std::move(columns));
    } else if (tag == "row") {
      CISP_REQUIRE(current != nullptr, "row record before any table");
      std::vector<Value> cells;
      for (const auto& f : split_fields(payload)) {
        cells.push_back(parse_cell(unescape(f)));
      }
      current->row(std::move(cells));
    } else if (tag == "timing") {
      CISP_REQUIRE(current != nullptr, "timing record before any table");
      for (const auto& f : split_fields(payload)) {
        std::size_t col = 0;
        const auto [ptr, ec] =
            std::from_chars(f.data(), f.data() + f.size(), col);
        CISP_REQUIRE(ec == std::errc{} && ptr == f.data() + f.size(),
                     "malformed timing record: " + payload);
        current->mark_timing(col);
      }
    } else if (tag == "note") {
      set.note(unescape(payload));
    } else if (tag == "prov") {
      const auto fields = split_fields(payload);
      CISP_REQUIRE(fields.size() == 2, "malformed prov record");
      set.set_provenance(unescape(fields[0]), unescape(fields[1]));
    } else {
      CISP_REQUIRE(false, "unknown record tag in result file: " + tag);
    }
  }
  CISP_REQUIRE(ended, "truncated result file (missing end record)");
  return set;
}

}  // namespace cisp::engine
