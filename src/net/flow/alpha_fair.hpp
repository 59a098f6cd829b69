#pragma once
// Weighted alpha-fair rate allocation over installed routes — the elastic
// (TCP-like) counterpart of the max-min allocator. The allocation solves
//
//   maximize  sum_f w_f * U_alpha(x_f)   s.t.  route loads <= capacities,
//                                              0 <= x_f <= demand_f
//
// with U_1(x) = log x (proportional fairness, what TCP-style congestion
// control approximates) and U_alpha(x) = x^(1-alpha) / (1-alpha) otherwise.
// alpha interpolates the classic fairness family: alpha -> 0 approaches
// throughput maximization, alpha = 1 is proportional fairness, and
// alpha -> infinity recovers max-min fairness — a non-finite (or huge)
// alpha dispatches to max_min_allocate exactly, so the limit is available
// byte-for-byte, not only asymptotically.
//
// Algorithm: dual (link-price) ascent. Each iteration computes every
// flow's demand-capped rate from its path price sum, re-prices every link
// from its load with an exponentiated-gradient step, and stops when the
// worst capacity/complementary-slackness residual is below tolerance. The
// final iterate is then made feasible (per-flow scale-down against any
// residual overload) and Pareto-efficient (a demand-capped max-min fill of
// the leftover capacity), so the returned allocation never oversubscribes
// a link and never strands capacity a flow still wants.
//
// The allocator is serial and deterministic: the iteration count and the
// returned bytes are a pure function of the input. Parallelism belongs to
// the sweep across independent cells, not to one allocation.

#include <cstddef>
#include <vector>

#include "net/flow/max_min.hpp"
#include "net/routing.hpp"

namespace cisp::net::flow {

struct ElasticOptions {
  /// Fairness exponent (> 0). 1 = proportional fairness; values >=
  /// kMaxMinAlpha (or +infinity) dispatch to the exact max-min allocator.
  double alpha = 1.0;
  /// Dual-ascent iteration cap. The feasibility/fill cleanup makes the
  /// result usable even when the cap is hit before `tolerance`.
  std::size_t max_iterations = 6000;
  /// Relative residual (capacity violation / complementary slackness) at
  /// which the price iteration stops.
  double tolerance = 1e-4;
  /// Optional warm state carried across solves (nullptr = cold start).
  /// Reuses the incidence structure when the paths are unchanged and
  /// seeds the dual prices from the previous solve; the final prices are
  /// written back. Warm results satisfy the same `tolerance` residual as
  /// cold results but are NOT byte-identical (the iterate path differs).
  /// In the max-min limit the state is forwarded to max_min_allocate,
  /// whose warm results ARE byte-identical. Must outlive the call.
  WarmState* warm = nullptr;
};

/// Alphas at or above this are treated as the max-min limit.
inline constexpr double kMaxMinAlpha = 64.0;

/// Computes the weighted alpha-fair allocation of `demand_bps` flows over
/// their (pinned) paths against the view's edge capacities, which must be
/// finite and non-negative (cisp::Error otherwise, at every alpha).
/// `weights[f]` scales flow f's utility (pass {} for unweighted); the
/// elastic traffic backend weights each aggregated pair by its user count
/// so fairness is per-user, not per-pair. Weights vanish in the alpha -> infinity limit
/// (w^(1/alpha) -> 1), matching the unweighted max-min dispatch.
[[nodiscard]] Allocation alpha_fair_allocate(
    const SimTopologyView& view, const std::vector<graphs::Path>& paths,
    const std::vector<double>& demand_bps, const std::vector<double>& weights,
    const ElasticOptions& options = {});

}  // namespace cisp::net::flow
