#pragma once
// Weighted multipath route sets through the fluid allocators. The
// allocators (max_min, alpha_fair) are path-per-flow machines; multipath
// pairs are realized by EXPANSION: each (pair, weighted path) becomes one
// subflow whose offered rate is the pair's rate times the path's weight,
// the unchanged allocators run over the subflows (per-slot-write
// discipline untouched, so allocations stay byte-identical at every
// thread count), and the result folds back to pair grain.
//
// Fairness semantics note (documented, deliberate): max-min over subflows
// is not max-min over pairs — a pair split two ways owns two claims at
// the water level. The elastic backend compensates exactly: subflow
// utility weights are users * split_weight, so a pair's total weight is
// its user count regardless of how it splits. Denied pairs (empty route
// set entries) expand to no subflows and deliver zero, mirroring the
// single-path override convention.
//
// Zero-rate pairs keep their subflows (at zero demand) — pair and
// subflow indices stay stable across in-place demand rewrites, which is
// what lets a streaming timeline reuse warm allocator incidence across
// epochs.

#include <cstdint>
#include <vector>

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

/// Expands a demand matrix against its multipath route set. Requires one
/// route-set entry per pair; weights must be positive and finite (they
/// are NOT renormalized here — the optimizer owns that invariant) and
/// paths non-empty. Empty entries (denied pairs) expand to nothing.
[[nodiscard]] SubflowExpansion expand_multipath(
    const DemandMatrix& demands, const net::MultipathRouteSet& routes);

/// Folds a subflow allocation back to pair grain: per-pair rate is the
/// sum of the pair's subflow rates; edge loads and round counters pass
/// through unchanged. Bottleneck edges exist per subflow only, so the
/// folded result's bottleneck_edge is empty.
[[nodiscard]] Allocation fold_subflows(const SubflowExpansion& expansion,
                                       const Allocation& subflow_allocation);

/// Per-pair outcomes of a subflow allocation (the multipath counterpart
/// of pair_outcomes). A pair's latency is the delivered-rate-weighted
/// mean over its subflows — offered-rate-weighted when the pair
/// delivered nothing — and its stretch divides by the direct geodesic
/// latency at c, exactly like the single-path monitors.
[[nodiscard]] std::vector<PairOutcome> multipath_pair_outcomes(
    const SimTopologyView& view, const SubflowExpansion& expansion,
    const DemandMatrix& demands, const Allocation& subflow_allocation,
    const DirectKmFn& direct_km);

}  // namespace cisp::net::flow
