// Unit and property tests for src/lp: simplex on known LPs, degenerate and
// infeasible/unbounded cases, randomized verification against brute-force
// vertex enumeration, the pivot's determinism contracts on TE-shaped LPs
// (bit-identical at every thread count, pinned to a golden checksum of the
// dense-pivot solver).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::lp {
namespace {

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};  // minimize the negation
  lp.add_less_eq({1.0, 0.0}, 4.0);
  lp.add_less_eq({0.0, 2.0}, 12.0);
  lp.add_less_eq({3.0, 2.0}, 18.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
}

TEST(Simplex, GreaterEqAndEqualityConstraints) {
  // min x + 2y st x + y = 10, x >= 3  => x=10? No: y >= 0, so x=10,y=0
  // would violate x>=3? It satisfies it. obj = 10. But x + 2y with y=0 and
  // x=10 -> 10; alternative x=3,y=7 -> 17. Optimal: x=10.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 2.0};
  lp.add_equal({1.0, 1.0}, 10.0);
  lp.add_greater_eq({1.0, 0.0}, 3.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 10.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.add_less_eq({1.0}, 1.0);
  lp.add_greater_eq({1.0}, 2.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::Infeasible);

  // Inconsistent equalities: phase 1 ends with an artificial above zero.
  LinearProgram equalities;
  equalities.num_vars = 2;
  equalities.objective = {1.0, 1.0};
  equalities.add_equal({1.0, 1.0}, 1.0);
  equalities.add_equal({1.0, 1.0}, 2.0);
  EXPECT_EQ(solve(equalities).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};  // maximize x with no upper bound
  lp.add_greater_eq({1.0}, 0.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::Unbounded);

  // x - y = 1 starts on an artificial, so phase 2 runs on the compacted
  // tableau and finds y unbounded there.
  LinearProgram equality;
  equality.num_vars = 2;
  equality.objective = {0.0, -1.0};
  equality.add_equal({1.0, -1.0}, 1.0);
  EXPECT_EQ(solve(equality).status, SolveStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x <= -5  <=>  x >= 5.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.add_less_eq({-1.0}, -5.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -1.0};
  lp.add_less_eq({1.0, 0.0}, 1.0);
  lp.add_less_eq({0.0, 1.0}, 1.0);
  lp.add_less_eq({1.0, 1.0}, 2.0);  // redundant at the optimum
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2 plants (supply 20, 30) x 2 markets (demand 25, 25); costs
  // [[2,3],[4,1]]. Optimal: x11=20, x21=5, x22=25 -> 40+20+25 = 85.
  LinearProgram lp;
  lp.num_vars = 4;  // x11 x12 x21 x22
  lp.objective = {2.0, 3.0, 4.0, 1.0};
  lp.add_less_eq({1.0, 1.0, 0.0, 0.0}, 20.0);
  lp.add_less_eq({0.0, 0.0, 1.0, 1.0}, 30.0);
  lp.add_equal({1.0, 0.0, 1.0, 0.0}, 25.0);
  lp.add_equal({0.0, 1.0, 0.0, 1.0}, 25.0);
  const auto sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 85.0, 1e-6);
}

/// Brute force over constraint-intersection vertices for 2-variable LPs.
double brute_force_2d(const LinearProgram& lp) {
  std::vector<std::pair<double, double>> candidates = {{0.0, 0.0}};
  // Intersections of all constraint boundary pairs (incl. axes).
  std::vector<std::array<double, 3>> lines;  // a x + b y = c
  for (const auto& cons : lp.constraints) {
    lines.push_back({cons.coeffs[0], cons.coeffs[1], cons.rhs});
  }
  lines.push_back({1.0, 0.0, 0.0});
  lines.push_back({0.0, 1.0, 0.0});
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1];
      if (std::fabs(det) < 1e-9) continue;
      const double x = (lines[i][2] * lines[j][1] - lines[j][2] * lines[i][1]) / det;
      const double y = (lines[i][0] * lines[j][2] - lines[j][0] * lines[i][2]) / det;
      candidates.push_back({x, y});
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [x, y] : candidates) {
    if (x < -1e-9 || y < -1e-9) continue;
    bool feasible = true;
    for (const auto& cons : lp.constraints) {
      const double lhs = cons.coeffs[0] * x + cons.coeffs[1] * y;
      if (cons.sense == Sense::LessEq && lhs > cons.rhs + 1e-7) feasible = false;
      if (cons.sense == Sense::GreaterEq && lhs < cons.rhs - 1e-7) feasible = false;
      if (cons.sense == Sense::Equal && std::fabs(lhs - cons.rhs) > 1e-7)
        feasible = false;
    }
    if (feasible) {
      best = std::min(best, lp.objective[0] * x + lp.objective[1] * y);
    }
  }
  return best;
}

TEST(Simplex, RandomTwoVarLpsMatchBruteForceProperty) {
  Rng rng(61);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LinearProgram lp;
    lp.num_vars = 2;
    lp.objective = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const int n_cons = 2 + static_cast<int>(rng.uniform_index(4));
    for (int c = 0; c < n_cons; ++c) {
      // Only <= with positive coefficients + a box keeps things bounded.
      lp.add_less_eq({rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)},
                     rng.uniform(1.0, 20.0));
    }
    lp.add_less_eq({1.0, 0.0}, 50.0);
    lp.add_less_eq({0.0, 1.0}, 50.0);
    const auto sol = solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    const double reference = brute_force_2d(lp);
    EXPECT_NEAR(sol.objective, reference, 1e-6);
    ++solved;
  }
  EXPECT_EQ(solved, 200);
}

// ---------------------------------------------------------------------------
// TE-shaped LPs (net/te/split.cpp's formulation): the workload the sparse,
// row-sharded pivot is built for.
// ---------------------------------------------------------------------------

/// minimize U + tiebreak . x  s.t.  sum_c x_pc = 1 per pair, and per edge
/// sum rate_p/cap_e x_pc - U <= -bg_e/cap_e. Most edges carry background
/// load (negative rhs, so the row flips to >= and needs an artificial);
/// the rest have rhs -0.0, as split.cpp writes for an idle edge.
LinearProgram te_shaped_lp(std::uint64_t seed, std::size_t pairs,
                           std::size_t edges) {
  constexpr std::size_t kCandidates = 4;
  Rng rng(seed);
  LinearProgram lp;
  lp.num_vars = 1 + pairs * kCandidates;
  lp.objective.assign(lp.num_vars, 0.0);
  lp.objective[0] = 1.0;
  std::vector<double> cap(edges);
  std::vector<double> background(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    cap[e] = rng.uniform(5.0, 20.0);
    background[e] = rng.uniform_index(5) == 0 ? 0.0 : rng.uniform(0.0, 10.0);
  }
  std::vector<std::vector<double>> capacity_rows(
      edges, std::vector<double>(lp.num_vars, 0.0));
  for (auto& row : capacity_rows) row[0] = -1.0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const double rate = rng.uniform(0.5, 3.0);
    std::vector<double> convexity(lp.num_vars, 0.0);
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const std::size_t var = 1 + p * kCandidates + c;
      convexity[var] = 1.0;
      lp.objective[var] = 1e-6 * rng.uniform(1.0, 2.5);
      const std::size_t hops = 2 + rng.uniform_index(4);
      for (std::size_t h = 0; h < hops; ++h) {
        const std::size_t e = rng.uniform_index(edges);
        capacity_rows[e][var] += rate / cap[e];
      }
    }
    lp.add_equal(std::move(convexity), 1.0);
  }
  for (std::size_t e = 0; e < edges; ++e) {
    lp.add_less_eq(std::move(capacity_rows[e]), -background[e] / cap[e]);
  }
  return lp;
}

/// Bit-level fingerprint of a solution: status, objective and every x.
std::uint64_t solution_checksum(const Solution& sol) {
  std::uint64_t h =
      hash_combine(0x6c70u, static_cast<std::uint64_t>(sol.status));
  h = hash_combine(h, std::bit_cast<std::uint64_t>(sol.objective));
  for (const double v : sol.x) {
    h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

// Sized so that about a quarter of the pivots at 4 threads cross the
// simplex's sharding cutoff.
constexpr std::uint64_t kTeLpSeeds[] = {11, 12, 13};
constexpr std::size_t kTeLpPairs = 120;
constexpr std::size_t kTeLpEdges = 150;

TEST(SimplexTeShaped, BitIdenticalAtEveryThreadCount) {
  for (const std::uint64_t seed : kTeLpSeeds) {
    const LinearProgram lp = te_shaped_lp(seed, kTeLpPairs, kTeLpEdges);
    const Solution reference = solve(lp);
    ASSERT_EQ(reference.status, SolveStatus::Optimal);
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      SimplexOptions options;
      options.threads = threads;
      const Solution sol = solve(lp, options);
      EXPECT_EQ(sol.status, reference.status);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.objective),
                std::bit_cast<std::uint64_t>(reference.objective));
      ASSERT_EQ(sol.x.size(), reference.x.size());
      for (std::size_t j = 0; j < sol.x.size(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sol.x[j]),
                  std::bit_cast<std::uint64_t>(reference.x[j]))
            << "x[" << j << "]";
      }
    }
  }
}

TEST(SimplexTeShaped, MatchesTheDensePivotGoldenChecksum) {
  // Pinned from the dense-pivot solver this one replaced (every row
  // updated at every column, artificial columns kept through phase 2):
  // the sparse, compacted, sharded pivot must reproduce its solutions bit
  // for bit. The value assumes IEEE doubles without fused multiply-add
  // contraction (the x86-64 baseline both CI compilers target).
  constexpr std::uint64_t kGolden = 0x6850216e30326647ull;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SimplexOptions options;
    options.threads = threads;
    std::uint64_t checksum = 0;
    for (const std::uint64_t seed : kTeLpSeeds) {
      checksum = hash_combine(
          checksum, solution_checksum(solve(
                        te_shaped_lp(seed, kTeLpPairs, kTeLpEdges), options)));
    }
    EXPECT_EQ(checksum, kGolden);
  }
}

TEST(SimplexTeShaped, CountsPivotsAndTracesTheSolveWithoutChangingIt) {
  const LinearProgram lp = te_shaped_lp(11, 20, 30);
  const Solution plain = solve(lp);
  obs::reset_metrics();
  obs::clear_trace();
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const Solution observed = solve(lp);
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(solution_checksum(observed), solution_checksum(plain));
  const std::uint64_t pivots = obs::counter("lp.pivots").value();
  const std::uint64_t phase1 = obs::counter("lp.phase1_pivots").value();
  EXPECT_GT(phase1, 0u);  // the convexity rows start on artificials
  EXPECT_GT(pivots, phase1);
  bool traced = false;
  for (const obs::TraceEvent& event : obs::trace_events()) {
    if (event.name != "lp.solve" || event.ph != 'B') continue;
    traced = true;
    ASSERT_EQ(event.args.size(), 2u);
    EXPECT_EQ(event.args[0].first, "rows");
    EXPECT_EQ(event.args[0].second, 50.0);
    EXPECT_EQ(event.args[1].first, "cols");
    EXPECT_EQ(event.args[1].second, 81.0);
  }
  EXPECT_TRUE(traced);
  obs::clear_trace();
  obs::reset_metrics();
}

TEST(Simplex, RedundantEqualityKeepsItsArtificialBasicThroughPhase2) {
  // The second equality is twice the first, so phase 1 cannot drive one
  // artificial out (its row is zero on every structural and slack
  // column): phase 2 runs on the compacted tableau with an artificial
  // column id still in the basis.
  // max x + 3y  s.t. x + y = 2, 2x + 2y = 4, y <= 1.5, x >= 0.2
  //   => y = 1.5, x = 0.5, objective -5 (minimizing the negation).
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -3.0};
  lp.add_equal({1.0, 1.0}, 2.0);
  lp.add_equal({2.0, 2.0}, 4.0);
  lp.add_less_eq({0.0, 1.0}, 1.5);
  lp.add_greater_eq({1.0, 0.0}, 0.2);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -5.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 0.5, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.5, 1e-9);
}

TEST(Simplex, TinyIterationBudgetReportsIterationLimit) {
  // The textbook LP needs more than one pivot; with only <= rows there is
  // no phase 1, so the budget runs out in phase 2.
  LinearProgram lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};
  lp.add_less_eq({1.0, 0.0}, 4.0);
  lp.add_less_eq({0.0, 2.0}, 12.0);
  lp.add_less_eq({3.0, 2.0}, 18.0);
  SimplexOptions options;
  options.max_iterations = 1;
  EXPECT_EQ(solve(lp, options).status, SolveStatus::IterationLimit);
  options.max_iterations = 10;
  EXPECT_EQ(solve(lp, options).status, SolveStatus::Optimal);
}

}  // namespace
}  // namespace cisp::lp
