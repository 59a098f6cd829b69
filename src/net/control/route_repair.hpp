#pragma once
// The failure-reactive half of the control plane: incremental route repair
// over a degraded LinkPlan, with a stretch-bounded detour policy.
//
// PR 5 documented why this exists: with latency-shortest routes pinned on
// the *intact* plan, a cut MW trunk rations surviving trunks while parallel
// fiber idles — unserved traffic is non-monotone in failed links. The
// repairer closes that gap without paying a full route recompute per
// failure draw:
//
//   * The baseline is one shortest-path tree per distinct demand source
//     over the intact plan (the same trees compute_routes builds). Link
//     deltas (down/up/capacity-derate) MASK edges of that one graph — the
//     graph is never rebuilt, so node/edge ids are stable across the whole
//     delta sequence.
//   * A delta batch only recomputes the trees it can affect: a downed link
//     matters to a tree iff one of its arcs is a tree edge
//     (parent_edge[to] == eid); a restored link matters iff it could relax
//     a label (dist[from] + w <= dist[to] — NON-strict, because an
//     equal-length arc can still become the final parent through an
//     intermediate relaxation).
//   * Pairs are re-evaluated iff their source tree was recomputed or their
//     current route is off its baseline path (off-baseline routes depend
//     on capacities/topology beyond the tree, so they stay dirty until
//     they return to baseline). Everything else is untouched — which is
//     what makes thousands of draws cheap.
//
// The route of a pair is a pure function of (plan, link state, policy):
// `apply` after any delta sequence yields byte-identical routes to
// `full_recompute` on the same cumulative state; tests pin this. Repair
// is serial: a batch costs a fraction of a millisecond, so parallelism
// belongs to the sweep across failure draws and weather hours.
//
// Detour policy: a pair whose tree path left its baseline chooses among up
// to `candidates` masked Yen paths, keeps only those with stretch (path
// latency over geodesic latency at c) within `max_stretch`, and picks the
// one with the fattest degraded bottleneck — this is the capacity-aware
// step that sends displaced demand to idle fiber instead of re-saturating
// surviving MW trunks. If no candidate fits the bound the pair is DENIED
// (served zero; the availability metric counts it), which exposes the
// stretch/availability frontier as an experiment axis.
//
// Congestion rebalance: the per-pair detour step cannot see that a
// SURVIVING trunk became oversubscribed by everyone else's reroutes (load
// is a global property — the root of PR 5's non-monotonicity). So every
// repair ends with a deterministic serial pass over the full route set:
// pairs crossing an edge whose offered load exceeds its degraded capacity
// move to the min-latency path whose every edge has residual capacity for
// the pair's full rate, stretch bound still enforced; pairs with no such
// path stay put and are rationed by the allocator. The pass is a pure
// function of the post-repair routes, so incremental/oracle equivalence
// is preserved.

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/dijkstra.hpp"
#include "net/builder.hpp"
#include "net/flow/monitors.hpp"

namespace cisp::net::control {

/// One link-state change relative to the baseline LinkPlan. Links are
/// identified by their index into the plan's link list; the plan itself is
/// never mutated.
struct LinkDelta {
  std::size_t link = 0;
  /// false: the link carries no traffic (both arcs masked out).
  bool up = true;
  /// Degraded fraction of nominal capacity in [0, 1] (adaptive modulation
  /// under rain). Latency is unaffected — MW derate changes rate, not
  /// distance.
  double capacity_factor = 1.0;
};

/// Current state of one link (the cumulative effect of applied deltas).
struct LinkState {
  bool up = true;
  double capacity_factor = 1.0;

  /// The capacity multiplier the link carries: its derate when up, 0 when
  /// down.
  [[nodiscard]] double effective_factor() const noexcept {
    return up ? capacity_factor : 0.0;
  }
};

/// Detour admission policy for pairs displaced from their baseline path.
struct DetourPolicy {
  /// A repaired route is admitted only while path latency / geodesic
  /// latency at c stays within this bound; otherwise the pair is denied.
  double max_stretch = std::numeric_limits<double>::infinity();
  /// Number of masked Yen candidates considered for a displaced pair
  /// (1 = just the tree path, no capacity-aware choice).
  std::size_t candidates = 3;
};

/// The repaired route of one demand pair.
struct PairRoute {
  /// Graph-edge-pinned path over the intact-plan view; empty when denied.
  graphs::Path path;
  double latency_s = 0.0;  ///< path propagation latency (0 when denied)
  double stretch = 0.0;    ///< latency over geodesic-at-c (0 when denied)
  bool detoured = false;   ///< route differs from the baseline path
  bool denied = false;     ///< no admissible route under the policy
};

/// What one `apply` batch touched (obs counters mirror these).
struct RepairStats {
  std::size_t sources = 0;          ///< distinct demand sources overall
  std::size_t touched_sources = 0;  ///< trees recomputed this batch
  std::size_t touched_pairs = 0;    ///< pairs re-evaluated this batch
  std::size_t changed_pairs = 0;    ///< pairs whose route actually changed
  std::size_t rebalanced_pairs = 0;  ///< pairs moved off congested edges
  std::size_t detoured_pairs = 0;   ///< current off-baseline (served) pairs
  std::size_t denied_pairs = 0;     ///< current denied pairs
};

class RouteRepairer {
 public:
  /// Every demand must be routable on the intact plan (same contract as
  /// compute_routes). The repairer keeps no reference to `plan`.
  RouteRepairer(const LinkPlan& plan, std::vector<TrafficDemand> demands,
                DetourPolicy policy, flow::DirectKmFn direct_km);

  /// Applies a batch of link deltas and repairs affected routes. Returns
  /// what the batch touched. Deltas referencing out-of-range links or
  /// factors outside [0, 1] throw.
  RepairStats apply(const std::vector<LinkDelta>& deltas);

  /// Restores the intact baseline (all links up at full capacity).
  void reset();

  [[nodiscard]] const std::vector<PairRoute>& routes() const {
    return routes_;
  }
  [[nodiscard]] const std::vector<LinkState>& link_state() const {
    return state_;
  }
  /// The routable view of the INTACT plan (downed links are masked, not
  /// removed — pair paths index into this graph).
  [[nodiscard]] const SimTopologyView& view() const { return topo_.view; }

  /// Per-demand paths, empty = denied (net::single_path_routes turns them
  /// into TrafficRunOptions::routes).
  [[nodiscard]] std::vector<graphs::Path> traffic_paths() const;
  /// Per-duplex-link capacity factors for
  /// TrafficRunOptions::capacity_factor (0 for downed links).
  [[nodiscard]] std::vector<double> capacity_factors() const;

  /// The equivalence oracle: routes on the cumulative `state`, computed
  /// from scratch (fresh Dijkstra per source, every pair evaluated). Tests
  /// pin `apply(...deltas...).routes() == full_recompute(...)` exactly.
  [[nodiscard]] static std::vector<PairRoute> full_recompute(
      const LinkPlan& plan, const std::vector<TrafficDemand>& demands,
      const DetourPolicy& policy, const flow::DirectKmFn& direct_km,
      const std::vector<LinkState>& state);

 private:
  void evaluate_pairs(const std::vector<std::size_t>& dirty);

  TopologyView topo_;
  std::vector<TrafficDemand> demands_;
  DetourPolicy policy_;
  flow::DirectKmFn direct_km_;

  std::vector<LinkState> state_;
  std::vector<graphs::NodeId> sources_;      ///< distinct demand sources
  std::vector<std::size_t> source_slot_;     ///< per demand -> sources_ idx
  std::vector<graphs::ShortestPathTree> trees_;     ///< current, per source
  std::vector<graphs::Path> baseline_paths_;        ///< per demand, pinned
  std::vector<PairRoute> routes_;                   ///< per demand, current
  std::vector<char> on_baseline_;                   ///< per demand
};

}  // namespace cisp::net::control
