#pragma once
// Dense two-phase primal simplex. Substitutes for the Gurobi LP engine in
// the paper's Step 2 (§3.2): solves the flow-LP relaxation used by the
// LP-rounding baseline.
//
// Scope: problems up to a few thousand variables/constraints, which covers
// the paper's small-instance regime (the paper itself reports that exact
// solvers stop scaling around 50 cities — reproducing that wall is part of
// Fig. 2) and the TE split LP (net/te/split.hpp).
//
// Pivot cost. The tableau is dense, but the LPs it serves are sparse, so a
// pivot does its work only where it can change a value:
//   - Sparse pivot row. After scaling, the pivot row's nonzero columns are
//     gathered once, and each row with a nonzero entry in the pivot column
//     is updated only at those columns. Every nonzero entry sees the same
//     operations in the same order as a dense update; at a zero column the
//     dense update would subtract a signed zero, which can flip the sign of
//     a zero but never changes a nonzero. No comparison or product the
//     solver makes depends on the sign of a zero, and the one column a
//     Solution reads (the rhs) is always updated in full, so status,
//     objective and x are bit-identical to the dense pivot.
//   - Phase-2 compaction. Artificial columns are only unused rows' padding
//     or phase-1 bookkeeping: phase 2 never prices, ratio-tests or extracts
//     them. Before phase 2 the tableau is compacted in place (no second
//     buffer) to [structural | slack | rhs]. Basis entries keep their
//     phase-1 column ids, so an artificial left basic on a redundant row
//     is still recognized (and still loses ratio-test ties on index).
//   - Row sharding. With SimplexOptions::threads != 1 and enough work in
//     a pivot (rows x pivot-row nonzeros over an internal cutoff), the row
//     updates run on a pool in contiguous chunks of rows. Each row's update
//     reads only the pivot row and writes only itself, so the result is
//     byte-identical at every thread count.
//
// Observability: each solve is an `lp.solve` trace span (rows/cols args)
// and adds to the `lp.pivots` and `lp.phase1_pivots` counters.

#include <cstddef>
#include <vector>

namespace cisp::lp {

enum class Sense { LessEq, GreaterEq, Equal };

struct Constraint {
  std::vector<double> coeffs;  ///< dense, size = num_vars
  Sense sense = Sense::LessEq;
  double rhs = 0.0;
};

/// minimize objective . x   subject to   constraints, x >= 0.
struct LinearProgram {
  std::size_t num_vars = 0;
  std::vector<double> objective;
  std::vector<Constraint> constraints;

  /// Convenience builders.
  void add_less_eq(std::vector<double> coeffs, double rhs);
  void add_greater_eq(std::vector<double> coeffs, double rhs);
  void add_equal(std::vector<double> coeffs, double rhs);
};

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;
};

struct SimplexOptions {
  std::size_t max_iterations = 200000;
  double tolerance = 1e-9;
  /// Workers for the pivot row updates: 1 = serial, 0 = all cores. The
  /// solution is byte-identical for every value.
  std::size_t threads = 1;
};

/// Solves the LP with two-phase primal simplex (Dantzig pricing with a
/// Bland fallback for anti-cycling).
[[nodiscard]] Solution solve(const LinearProgram& lp,
                             const SimplexOptions& options = {});

}  // namespace cisp::lp
