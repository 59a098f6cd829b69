#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "engine/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::lp {

void LinearProgram::add_less_eq(std::vector<double> coeffs, double rhs) {
  constraints.push_back({std::move(coeffs), Sense::LessEq, rhs});
}
void LinearProgram::add_greater_eq(std::vector<double> coeffs, double rhs) {
  constraints.push_back({std::move(coeffs), Sense::GreaterEq, rhs});
}
void LinearProgram::add_equal(std::vector<double> coeffs, double rhs) {
  constraints.push_back({std::move(coeffs), Sense::Equal, rhs});
}

namespace {

/// Row-update work (tableau rows x pivot-row nonzeros) below which a pivot
/// stays on the calling thread: under it, handing chunks to the pool costs
/// more than the multiply-adds it would spread.
constexpr std::size_t kShardedPivotWork = std::size_t{1} << 15;

/// Dense tableau with explicit basis bookkeeping.
class Tableau {
 public:
  Tableau(const LinearProgram& lp, const SimplexOptions& options)
      : options_(options), m_(lp.constraints.size()) {
    CISP_REQUIRE(lp.objective.size() == lp.num_vars,
                 "objective size mismatch");
    // Column layout: [structural | slack/surplus | artificial | rhs].
    n_struct_ = lp.num_vars;
    // One slack or surplus per inequality; one artificial per row whose
    // normalized sense is >= or =.
    for (const auto& c : lp.constraints) {
      if (c.sense != Sense::Equal) ++n_slack_;
      const bool flipped = c.rhs < 0.0;
      if (c.sense == Sense::Equal ||
          c.sense == (flipped ? Sense::LessEq : Sense::GreaterEq)) {
        ++n_art_;
      }
    }
    cols_ = n_struct_ + n_slack_ + n_art_ + 1;
    rows_.assign((m_ + 1) * cols_, 0.0);
    basis_.assign(m_, SIZE_MAX);

    std::size_t slack_cursor = 0;
    std::size_t art_cursor = 0;
    for (std::size_t r = 0; r < m_; ++r) {
      const Constraint& c = lp.constraints[r];
      CISP_REQUIRE(c.coeffs.size() == lp.num_vars,
                   "constraint width mismatch");
      double sign = 1.0;
      // Normalize to non-negative rhs.
      if (c.rhs < 0.0) sign = -1.0;
      for (std::size_t j = 0; j < n_struct_; ++j) {
        at(r, j) = sign * c.coeffs[j];
      }
      rhs(r) = sign * c.rhs;
      Sense sense = c.sense;
      if (sign < 0.0) {
        if (sense == Sense::LessEq) {
          sense = Sense::GreaterEq;
        } else if (sense == Sense::GreaterEq) {
          sense = Sense::LessEq;
        }
      }
      if (sense == Sense::LessEq) {
        const std::size_t col = n_struct_ + slack_cursor++;
        at(r, col) = 1.0;
        basis_[r] = col;  // slack is basic
      } else if (sense == Sense::GreaterEq) {
        const std::size_t col = n_struct_ + slack_cursor++;
        at(r, col) = -1.0;  // surplus
        const std::size_t art = n_struct_ + n_slack_ + art_cursor++;
        at(r, art) = 1.0;
        basis_[r] = art;
      } else {
        const std::size_t art = n_struct_ + n_slack_ + art_cursor++;
        at(r, art) = 1.0;
        basis_[r] = art;
      }
    }

    // A pool only pays when some pivot can cross the sharding cutoff.
    const std::size_t workers =
        options.threads == 0 ? engine::default_thread_count()
                             : options.threads;
    if (workers > 1 && (m_ + 1) * cols_ >= kShardedPivotWork) {
      pool_ = std::make_unique<engine::Executor>(workers);
    }
  }

  /// Phase 1: minimize the sum of artificials. Returns false if infeasible.
  bool phase1() {
    if (n_art_ == 0) return true;
    // Objective row: sum of artificial columns == sum of rows that have an
    // artificial basic variable (express in terms of non-basics).
    std::fill(obj_begin(), obj_end(), 0.0);
    for (std::size_t col = n_struct_ + n_slack_; col + 1 < cols_; ++col) {
      obj(col) = 1.0;
    }
    for (std::size_t r = 0; r < m_; ++r) {
      if (obj(basis_[r]) != 0.0) eliminate_basic(r);
    }
    if (!iterate()) return false;  // hit iteration limit -> treat as failure
    if (obj_value() > options_.tolerance) return false;  // infeasible
    // Drive any remaining artificial out of the basis.
    for (std::size_t r = 0; r < m_; ++r) {
      if (!is_artificial(basis_[r])) continue;
      bool pivoted = false;
      for (std::size_t j = 0; j < n_struct_ + n_slack_ && !pivoted; ++j) {
        if (std::fabs(at(r, j)) > options_.tolerance) {
          pivot(r, j);
          pivoted = true;
        }
      }
      // A row with no eligible pivot is redundant; leave the (zero-valued)
      // artificial basic — it can never become positive again because
      // phase 2 has no artificial column left to pivot on.
    }
    return true;
  }

  /// Phase 2: minimize the true objective. Returns solve status.
  SolveStatus phase2(const LinearProgram& lp) {
    drop_artificial_columns();
    std::fill(obj_begin(), obj_end(), 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) obj(j) = lp.objective[j];
    for (std::size_t r = 0; r < m_; ++r) {
      // A basic artificial has no column any more, and a zero cost anyway.
      if (!is_artificial(basis_[r]) && obj(basis_[r]) != 0.0) {
        eliminate_basic(r);
      }
    }
    if (!iterate()) {
      return unbounded_ ? SolveStatus::Unbounded : SolveStatus::IterationLimit;
    }
    return SolveStatus::Optimal;
  }

  [[nodiscard]] Solution extract(const LinearProgram& lp) const {
    Solution sol;
    sol.status = SolveStatus::Optimal;
    sol.x.assign(lp.num_vars, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < n_struct_) sol.x[basis_[r]] = rhs(r);
    }
    sol.objective = 0.0;
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      sol.objective += lp.objective[j] * sol.x[j];
    }
    return sol;
  }

  [[nodiscard]] std::size_t pivots() const { return pivots_; }

 private:
  [[nodiscard]] double* row(std::size_t r) { return &rows_[r * cols_]; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return rows_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return rows_[r * cols_ + c];
  }
  [[nodiscard]] double& rhs(std::size_t r) { return at(r, cols_ - 1); }
  [[nodiscard]] double rhs(std::size_t r) const { return at(r, cols_ - 1); }
  [[nodiscard]] double& obj(std::size_t c) { return at(m_, c); }
  [[nodiscard]] double obj(std::size_t c) const { return at(m_, c); }
  double* obj_begin() { return row(m_); }
  double* obj_end() { return obj_begin() + cols_; }
  [[nodiscard]] double obj_value() const { return -at(m_, cols_ - 1); }
  /// Basis entries keep their phase-1 column ids, so an artificial stays
  /// recognizable after its column is dropped.
  [[nodiscard]] bool is_artificial(std::size_t col) const {
    return col >= n_struct_ + n_slack_;
  }

  /// Subtracts multiples of row r from the objective row so the basic
  /// variable of row r has zero reduced cost.
  void eliminate_basic(std::size_t r) {
    const double factor = obj(basis_[r]);
    if (factor == 0.0) return;
    for (std::size_t c = 0; c < cols_; ++c) at(m_, c) -= factor * at(r, c);
  }

  /// Compacts the tableau in place to [structural | slack | rhs]. Phase 2
  /// never prices, ratio-tests or reads an artificial column, so dropping
  /// them changes no value it computes. Rows move front to back, and row
  /// r's new slot never reaches past its old one, so nothing unread is
  /// overwritten. The objective row is rebuilt by the caller.
  void drop_artificial_columns() {
    const std::size_t width = n_struct_ + n_slack_ + 1;
    if (width == cols_) return;
    for (std::size_t r = 0; r < m_; ++r) {
      const double* from = &rows_[r * cols_];
      double* to = &rows_[r * width];
      const double rhs_value = from[cols_ - 1];
      std::memmove(to, from, (width - 1) * sizeof(double));
      to[width - 1] = rhs_value;
    }
    cols_ = width;
    rows_.resize((m_ + 1) * width);
  }

  /// Gauss-Jordan pivot on (pr, pc). The scaled pivot row's nonzero
  /// columns are gathered once and every other row is updated only there:
  /// at a zero column the dense update would subtract a signed zero, which
  /// leaves every nonzero entry as it is. The rhs column is always updated,
  /// so even the sign of a zero rhs — the only zero a Solution can
  /// expose — matches the dense update. Rows are independent, so sharding
  /// them over the pool gives the same bytes at every thread count.
  void pivot(std::size_t pr, std::size_t pc) {
    ++pivots_;
    double* prow = row(pr);
    const double inv = 1.0 / prow[pc];
    const std::size_t rhs_col = cols_ - 1;
    nz_cols_.clear();
    nz_vals_.clear();
    for (std::size_t c = 0; c < cols_; ++c) {
      prow[c] *= inv;
      if (c != pc && (prow[c] != 0.0 || c == rhs_col)) {
        nz_cols_.push_back(c);
        nz_vals_.push_back(prow[c]);
      }
    }
    prow[pc] = 1.0;

    const std::size_t nnz = nz_cols_.size();
    const std::size_t* cols = nz_cols_.data();
    const double* vals = nz_vals_.data();
    const auto update_row = [&](std::size_t r) {
      if (r == pr) return;
      double* target = row(r);
      const double factor = target[pc];
      if (factor == 0.0) return;
      for (std::size_t k = 0; k < nnz; ++k) {
        target[cols[k]] -= factor * vals[k];
      }
      target[pc] = 0.0;
    };
    const std::size_t rows = m_ + 1;
    if (pool_ == nullptr || rows * nnz < kShardedPivotWork) {
      for (std::size_t r = 0; r < rows; ++r) update_row(r);
    } else {
      // parallel_for's default grain (~4 contiguous chunks per worker)
      // lets the other workers absorb a chunk when one is descheduled.
      engine::parallel_for(*pool_, rows, update_row);
    }
    basis_[pr] = pc;
  }

  /// Runs simplex iterations on the current objective row. Returns false on
  /// unboundedness or iteration limit (sets unbounded_ accordingly).
  bool iterate() {
    const std::size_t pivot_cols = cols_ - 1;
    for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
      const bool bland = iter > options_.max_iterations / 2;
      // Entering column: most negative reduced cost (Dantzig) or first
      // negative (Bland, guarantees termination).
      std::size_t entering = SIZE_MAX;
      double best = -options_.tolerance;
      for (std::size_t c = 0; c < pivot_cols; ++c) {
        const double reduced = obj(c);
        if (reduced < best) {
          entering = c;
          if (bland) break;
          best = reduced;
        }
      }
      if (entering == SIZE_MAX) return true;  // optimal
      // Leaving row: min ratio test (Bland tie-break on basis index).
      std::size_t leaving = SIZE_MAX;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m_; ++r) {
        const double a = at(r, entering);
        if (a > options_.tolerance) {
          const double ratio = rhs(r) / a;
          if (ratio < best_ratio - options_.tolerance ||
              (ratio < best_ratio + options_.tolerance &&
               (leaving == SIZE_MAX || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == SIZE_MAX) {
        unbounded_ = true;
        return false;
      }
      pivot(leaving, entering);
    }
    return false;  // iteration limit
  }

  SimplexOptions options_;
  std::size_t m_ = 0;
  std::size_t n_struct_ = 0;
  std::size_t n_slack_ = 0;
  std::size_t n_art_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> rows_;
  std::vector<std::size_t> basis_;
  /// The scaled pivot row's nonzero columns and values (pivot scratch).
  std::vector<std::size_t> nz_cols_;
  std::vector<double> nz_vals_;
  std::unique_ptr<engine::Executor> pool_;
  std::size_t pivots_ = 0;
  bool unbounded_ = false;
};

}  // namespace

Solution solve(const LinearProgram& lp, const SimplexOptions& options) {
  CISP_REQUIRE(lp.num_vars > 0, "LP without variables");
  const obs::TraceSpan span(
      "lp.solve", "lp",
      {{"rows", static_cast<double>(lp.constraints.size())},
       {"cols", static_cast<double>(lp.num_vars)}});
  static obs::Counter& pivot_counter = obs::counter("lp.pivots");
  static obs::Counter& phase1_counter = obs::counter("lp.phase1_pivots");
  Tableau tableau(lp, options);
  const bool feasible = tableau.phase1();
  const std::size_t phase1_pivots = tableau.pivots();
  phase1_counter.add(phase1_pivots);
  Solution sol;
  if (!feasible) {
    pivot_counter.add(phase1_pivots);
    sol.status = SolveStatus::Infeasible;
    return sol;
  }
  const SolveStatus status = tableau.phase2(lp);
  pivot_counter.add(tableau.pivots());
  if (status != SolveStatus::Optimal) {
    sol.status = status;
    return sol;
  }
  return tableau.extract(lp);
}

}  // namespace cisp::lp
