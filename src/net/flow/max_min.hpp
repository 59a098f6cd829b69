#pragma once
// Max-min fair rate allocation over installed routes — the fluid
// counterpart of running CBR sources through the packet simulator. The
// classic progressive-filling algorithm: raise every unfrozen flow's rate
// at the same water level; when a link saturates, freeze the flows
// crossing it at their current rate (they are bottlenecked there); when a
// flow reaches its offered demand, freeze it too (demand-capped max-min).
// Terminates after at most flows + edges rounds.
//
// The fill is event-driven. Every unfrozen flow sits exactly at the
// running water level (the same sum of round increments), so no round
// touches the flows: the next demand event is the smallest unfrozen
// demand in a once-sorted list, and a frozen flow's rate is the level at
// its freeze. The edge side runs over a compacted list of edges that an
// unfrozen flow still crosses. Cost: O(F log F) for the sort, plus
// O(rounds x live edges) for the per-round edge passes, plus
// O(sum of path lengths) for incidence, freezing and the final loads.
// The fill is serial (no sharding) and deterministic: it reproduces the
// round-by-round fill's bytes, rounds and bottleneck count exactly.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/routing.hpp"

namespace cisp::net::flow {

/// Epoch-to-epoch allocator state for streaming timelines. Holds the
/// per-flow edge sequences and the edge -> flows incidence derived from
/// one (graph, paths) pair — the dominant setup cost of a solve — plus
/// the alpha-fair dual prices of the previous solve. A fingerprint over
/// the path node/edge sequences guards reuse: a warm state whose paths no
/// longer match is silently rebuilt, so the result NEVER depends on the
/// caller invalidating the cache correctly. Warm-started max-min results
/// are byte-identical to cold starts (the progressive fill re-runs on
/// the cached structure); warm-started alpha-fair results satisfy the
/// same KKT residual as cold starts (only the price seed changes).
struct WarmState {
  /// Incidence cache (structure only — no rates are carried over).
  std::vector<std::vector<graphs::EdgeId>> flow_edges;
  std::vector<std::vector<std::uint32_t>> edge_flows;
  std::uint64_t incidence_key = 0;
  bool has_incidence = false;
  /// Dual prices of the previous alpha-fair solve, in its normalized
  /// units. Seeding the next solve from these replaces the cold all-ones
  /// start; convergence is still driven to the same residual.
  std::vector<double> price;
  bool has_price = false;
  /// Solves that reused the cached incidence (observability + tests).
  std::size_t incidence_reuses = 0;
};

struct AllocatorOptions {
  /// Optional warm state carried across solves (nullptr = cold start).
  /// Must outlive the call; the allocator updates it in place.
  WarmState* warm = nullptr;
};

/// Allocation::bottleneck_edge entry of a flow that no edge froze: it was
/// demand-capped or offered nothing.
inline constexpr graphs::EdgeId kNoBottleneck =
    std::numeric_limits<graphs::EdgeId>::max();

struct Allocation {
  /// Max-min fair rate per flow (same order as the input paths), bps.
  /// Never exceeds the flow's offered demand beyond rounding: a
  /// demand-capped flow takes the water level, which can land an ulp
  /// above its demand.
  std::vector<double> rate_bps;
  /// Allocated load per graph edge, bps (sum of its flows' rates).
  std::vector<double> edge_load_bps;
  /// Progressive-filling rounds executed. For the alpha-fair allocator
  /// this is the SUM of dual iterations and Pareto fill rounds (the
  /// historical meaning); the parts are broken out below.
  std::size_t rounds = 0;
  /// Edges that saturated and froze at least one flow.
  std::size_t bottleneck_edges = 0;
  /// Per flow, the lowest-index saturated edge that froze it, or
  /// kNoBottleneck when no edge did (the flow reached its demand). Filled by
  /// max_min_allocate (and alpha-fair's max-min dispatch) only: alpha-fair
  /// results below kMaxMinAlpha and pair-grain folds of subflow
  /// allocations leave it empty.
  std::vector<graphs::EdgeId> bottleneck_edge;
  /// Dual-ascent price iterations (alpha-fair only; 0 for pure max-min).
  std::size_t dual_iterations = 0;
  /// Progressive-filling rounds (max-min itself, or the alpha-fair
  /// leftover-capacity Pareto fill).
  std::size_t fill_rounds = 0;
};

/// Computes the demand-capped max-min fair allocation of `demand_bps`
/// flows over their (pinned) paths against the view's edge capacities,
/// which must be finite and non-negative (cisp::Error otherwise).
/// `paths[f]` must be routable; its edge sequence is taken from
/// `paths[f].edges` when pinned (compute_routes pins them) and resolved
/// via path_edges() otherwise.
[[nodiscard]] Allocation max_min_allocate(
    const SimTopologyView& view, const std::vector<graphs::Path>& paths,
    const std::vector<double>& demand_bps,
    const AllocatorOptions& options = {});

namespace detail {

/// Fingerprint of the (graph shape, paths, demand-positivity) triple that
/// determines an allocator's incidence structure. `demand_gated` selects
/// the alpha-fair flavor, whose edge -> flows lists skip zero-demand
/// flows (max-min keeps them); the two flavors never collide on a key.
[[nodiscard]] std::uint64_t warm_incidence_key(
    const SimTopologyView& view, const std::vector<graphs::Path>& paths,
    const std::vector<double>& demand_bps, bool demand_gated);

/// Returns `state` filled with the incidence for (view, paths): reuses
/// the cached structure when the fingerprint matches, rebuilds otherwise.
/// Validates that every path is routable on the build path (a cache hit
/// already validated the identical paths).
void ensure_incidence(const SimTopologyView& view,
                      const std::vector<graphs::Path>& paths,
                      const std::vector<double>& demand_bps,
                      bool demand_gated, WarmState& state);

}  // namespace detail

}  // namespace cisp::net::flow
