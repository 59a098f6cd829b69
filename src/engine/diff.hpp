#pragma once
// Cell-by-cell comparison of two ResultSets — the first piece of the
// cross-experiment composition story: because experiments return plain
// data (and the runner caches it), two runs can be diffed offline without
// re-executing anything. Tables are matched by slug, rows and columns by
// position; real cells compare under an absolute + relative tolerance so
// runs from different code versions (or backends) can be checked for
// agreement rather than byte identity.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/result.hpp"

namespace cisp::engine {

struct DiffOptions {
  /// Reals a, b count as equal when
  /// |a - b| <= abs_tolerance + rel_tolerance * max(|a|, |b|).
  /// Integers, text and null cells always compare exactly, and so do a
  /// real's display precision and money flag.
  double abs_tolerance = 0.0;
  double rel_tolerance = 0.0;
  /// Per-cell difference lines kept in the report (the counts are always
  /// complete; only the listing truncates).
  std::size_t max_differences = 50;
};

/// One differing cell.
struct CellDiff {
  std::string location;  ///< "table[row][col] (column name)"
  std::string a;
  std::string b;
};

struct DiffReport {
  std::size_t cells_compared = 0;
  std::size_t differing_cells = 0;
  /// Cells in columns either side marks as timing (ResultTable::
  /// mark_timing): never compared, only counted.
  std::size_t timing_cells_skipped = 0;
  /// Shape problems: tables present on one side only, title, column,
  /// row-count or note mismatches. Any entry means the sets are not comparable 1:1.
  std::vector<std::string> structural;
  std::vector<CellDiff> cells;  ///< truncated to max_differences

  [[nodiscard]] bool identical() const noexcept {
    return differing_cells == 0 && structural.empty();
  }
};

[[nodiscard]] DiffReport diff_result_sets(const ResultSet& a,
                                          const ResultSet& b,
                                          const DiffOptions& options = {});

/// Human-readable rendering (the `cisp_experiments diff` output).
void render_diff(const DiffReport& report, std::ostream& os);

}  // namespace cisp::engine
