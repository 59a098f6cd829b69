#pragma once
// Weighted multipath route sets through the fluid allocators — the one
// realization path of both fluid backends and the streaming timeline.
// The allocators (max_min, alpha_fair) are path-per-flow machines; pairs
// are realized by EXPANSION: each (pair, weighted path) becomes one
// subflow whose offered rate is the pair's rate times the path's weight,
// the unchanged allocators run over the subflows (per-slot-write
// discipline untouched, so allocations stay byte-identical at every
// thread count), and the result folds back to pair grain. A single path
// is a weight-1 set (net::single_path_routes) and realizes exactly like
// the path itself: rate * 1.0 and users * 1.0 are exact, and a pair with
// one subflow takes its path latency directly.
//
// Fairness semantics note (documented, deliberate): max-min over subflows
// is not max-min over pairs — a pair split two ways owns two claims at
// the water level. The elastic backend compensates exactly: subflow
// utility weights are users * split_weight, so a pair's total weight is
// its user count regardless of how it splits. Denied pairs (empty route
// set entries) expand to no subflows and deliver zero.
//
// Zero-rate pairs keep their subflows (at zero demand) — pair and
// subflow indices stay stable across in-place demand rewrites, which is
// what lets a streaming timeline reuse warm allocator incidence across
// epochs.

#include <cstdint>
#include <vector>

#include "net/flow/alpha_fair.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/flow/max_min.hpp"
#include "net/flow/monitors.hpp"

namespace cisp::net::flow {

/// One pair's route set expanded into allocator-grain subflows.
struct SubflowExpansion {
  /// Subflow paths (graph-edge-pinned), demand-major order: pair 0's
  /// weighted paths first, then pair 1's, ...
  std::vector<graphs::Path> paths;
  /// Offered rate per subflow: pair rate * path weight, bps.
  std::vector<double> demand_bps;
  /// Elastic utility weight per subflow: max(1, pair users) * weight.
  std::vector<double> weights;
  /// Subflow -> pair index.
  std::vector<std::uint32_t> pair_of;
  std::size_t pair_count = 0;
};

/// Expands a demand matrix against its multipath route set, moving the
/// paths out of `routes` (callers holding a fresh set move it in, so no
/// path is copied). Requires one route-set entry per pair; weights must
/// be positive and finite (they are NOT renormalized here — the optimizer
/// owns that invariant) and paths non-empty. Empty entries (denied pairs)
/// expand to nothing.
[[nodiscard]] SubflowExpansion expand_multipath(const DemandMatrix& demands,
                                                net::MultipathRouteSet routes);

/// Folds a subflow allocation back to pair grain: per-pair rate is the
/// sum of the pair's subflow rates; edge loads and round counters pass
/// through unchanged. Bottleneck edges exist per subflow only, so the
/// folded result's bottleneck_edge is empty.
[[nodiscard]] Allocation fold_subflows(const SubflowExpansion& expansion,
                                       Allocation subflow_allocation);

/// Per-pair outcomes of a subflow allocation, in demand-matrix order. A
/// pair with one subflow takes that path's latency (edge weights summed
/// in path order); a split pair's latency is the delivered-rate-weighted
/// mean over its subflows — offered-rate-weighted when the pair delivered
/// nothing. Stretch divides by the direct geodesic latency at c (1 when
/// that is zero); denied pairs report latency and stretch 0.
[[nodiscard]] std::vector<PairOutcome> multipath_pair_outcomes(
    const SimTopologyView& view, const SubflowExpansion& expansion,
    const DemandMatrix& demands, const Allocation& subflow_allocation,
    const DirectKmFn& direct_km);

/// What realizing a demand matrix over a route set produced.
struct Realization {
  /// Pair-grain allocation (fold_subflows of the subflow allocation).
  Allocation allocation;
  std::vector<PairOutcome> pairs;
  FlowLevelStats stats;
};

/// Realizes `demands` over `routes` on `view`: expand into subflows,
/// alpha_fair_allocate them (alpha = +infinity is the max-min backend),
/// per-pair outcomes, fold to pair grain, summarize. With no subflows at
/// all (every pair denied) no allocator runs and every edge carries 0.
[[nodiscard]] Realization realize(const SimTopologyView& view,
                                  const DemandMatrix& demands,
                                  net::MultipathRouteSet routes,
                                  const ElasticOptions& options,
                                  const DirectKmFn& direct_km);

}  // namespace cisp::net::flow
