#include "engine/diff.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace cisp::engine {

namespace {

bool reals_equal(double a, double b, const DiffOptions& options) {
  if (a == b) return true;  // covers same-sign inf
  if (std::isnan(a) && std::isnan(b)) return true;
  // A non-finite cell never matches a different value: inf * rel_tolerance
  // would otherwise swallow every finite counterpart.
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::abs(a - b) <=
         options.abs_tolerance +
             options.rel_tolerance * std::max(std::abs(a), std::abs(b));
}

/// Typed cell comparison: reals under tolerance, everything else exact.
/// A real's precision and money flag must match too: they change how the
/// cell renders in every table and CSV.
bool cells_equal(const Value& a, const Value& b, const DiffOptions& options) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::Null:
      return true;
    case Value::Kind::Real:
      return a.precision() == b.precision() && a.is_money() == b.is_money() &&
             reals_equal(a.as_real(), b.as_real(), options);
    case Value::Kind::Int:
      return a.as_int() == b.as_int();
    case Value::Kind::Text:
      return a.as_text() == b.as_text();
  }
  return false;
}

std::string rendered_or_kind(const Value& v) {
  if (v.is_null()) return "-";
  return v.rendered();
}

}  // namespace

DiffReport diff_result_sets(const ResultSet& a, const ResultSet& b,
                            const DiffOptions& options) {
  DiffReport report;

  for (const ResultTable& table_b : b.tables()) {
    if (!a.has_table(table_b.slug())) {
      report.structural.push_back("table '" + table_b.slug() +
                                  "' only in run B");
    }
  }
  for (const ResultTable& table_a : a.tables()) {
    if (!b.has_table(table_a.slug())) {
      report.structural.push_back("table '" + table_a.slug() +
                                  "' only in run A");
      continue;
    }
    const ResultTable& table_b = b.table(table_a.slug());
    if (table_a.title() != table_b.title()) {
      report.structural.push_back("table '" + table_a.slug() +
                                  "': title '" + table_a.title() +
                                  "' in A vs '" + table_b.title() +
                                  "' in B");
    }
    if (table_a.columns() != table_b.columns()) {
      report.structural.push_back("table '" + table_a.slug() +
                                  "': column mismatch");
      continue;
    }
    if (table_a.row_count() != table_b.row_count()) {
      report.structural.push_back(
          "table '" + table_a.slug() + "': " +
          std::to_string(table_a.row_count()) + " rows in A vs " +
          std::to_string(table_b.row_count()) + " in B");
    }
    const std::size_t rows =
        std::min(table_a.row_count(), table_b.row_count());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < table_a.columns().size(); ++c) {
        if (table_a.is_timing(c) || table_b.is_timing(c)) {
          ++report.timing_cells_skipped;
          continue;
        }
        ++report.cells_compared;
        const Value& cell_a = table_a.at(r, c);
        const Value& cell_b = table_b.at(r, c);
        if (cells_equal(cell_a, cell_b, options)) continue;
        ++report.differing_cells;
        if (report.cells.size() < options.max_differences) {
          report.cells.push_back(
              {table_a.slug() + "[" + std::to_string(r) + "][" +
                   std::to_string(c) + "] (" + table_a.columns()[c] + ")",
               rendered_or_kind(cell_a), rendered_or_kind(cell_b)});
        }
      }
    }
  }

  if (a.notes() != b.notes()) {
    report.structural.push_back("notes differ (" +
                                std::to_string(a.notes().size()) + " in A, " +
                                std::to_string(b.notes().size()) + " in B)");
  }
  return report;
}

void render_diff(const DiffReport& report, std::ostream& os) {
  for (const std::string& line : report.structural) {
    os << "[structure] " << line << '\n';
  }
  for (const CellDiff& cell : report.cells) {
    os << "[cell] " << cell.location << ": " << cell.a << " != " << cell.b
       << '\n';
  }
  if (report.differing_cells > report.cells.size()) {
    os << "... " << (report.differing_cells - report.cells.size())
       << " more differing cells\n";
  }
  os << report.cells_compared << " cells compared, "
     << report.differing_cells << " differ";
  if (report.timing_cells_skipped > 0) {
    os << ", " << report.timing_cells_skipped << " timing cells skipped";
  }
  if (report.identical()) {
    os << " — identical within tolerance";
  }
  os << '\n';
}

}  // namespace cisp::engine
