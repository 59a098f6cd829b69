#pragma once
// Static routing schemes of §5: latency-shortest paths (the design
// default), min-max link utilization (the classic ISP traffic-engineering
// objective), and throughput-optimal routing (via max concurrent flow).
// Routes are computed offline from the demand set and installed as
// per-(src,dst) next hops.

#include <vector>

#include "graph/graph.hpp"
#include "net/node.hpp"

namespace cisp::net {

enum class RoutingScheme {
  ShortestPath,
  MinMaxUtilization,
  ThroughputOptimal,
};

[[nodiscard]] const char* to_string(RoutingScheme scheme);

struct TrafficDemand {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double rate_bps = 0.0;
};

/// The routable view of a simulated network: a latency graph whose edges
/// map to simulator links, plus per-edge capacities.
struct SimTopologyView {
  graphs::Graph latency_graph{0};          ///< weights: seconds
  std::vector<std::size_t> edge_to_link;   ///< graph edge -> Network link id
  std::vector<double> capacity_bps;        ///< per graph edge
};

struct RoutingResult {
  /// Demand-weighted mean one-way path latency (propagation only), s.
  double mean_path_latency_s = 0.0;
  /// Predicted max link utilization when all demands run at full rate.
  double max_link_utilization = 0.0;
  /// Paths per demand (same order as the input demand list). Every path
  /// has its graph-edge sequence pinned (paths.edges filled).
  std::vector<graphs::Path> paths;
};

/// One weighted member of a pair's multipath route set.
struct WeightedPath {
  /// Graph-edge-pinned path over the run's view (same pinning contract
  /// as RoutingResult::paths).
  graphs::Path path;
  /// Fraction of the pair's offered rate carried here; a pair's weights
  /// are positive and sum to 1.
  double weight = 1.0;
};

/// Per-demand weighted route sets — the one route value the fluid
/// backends accept (TrafficRunOptions::routes, the timeline's epochs).
/// The TE split optimizer (net/te/split.hpp) emits them directly; single
/// paths (shortest routing, repaired routes, racing winners) enter
/// through single_path_routes(). An EMPTY per-pair list marks a denied
/// pair: its demand is offered, never allocated, and delivers zero.
struct MultipathRouteSet {
  std::vector<std::vector<WeightedPath>> pair_paths;
};

/// One path per demand as a route set: each non-empty path becomes its
/// pair's only member at weight 1 (rate * 1.0 is exact, so a weight-1
/// set realizes byte-identically to the path). An EMPTY path — a pair
/// the control plane denied — becomes an empty set.
[[nodiscard]] MultipathRouteSet single_path_routes(
    std::vector<graphs::Path> paths);

/// Resolves the graph-edge sequence of a path: the pinned `path.edges`
/// when present, otherwise the minimum-weight arc between each
/// consecutive node pair. Throws when a hop has no edge.
[[nodiscard]] std::vector<graphs::EdgeId> path_edges(
    const graphs::Graph& graph, const graphs::Path& path);

/// Computes paths for all demands under `scheme` over the routable view —
/// no Network required, so both traffic backends share it (the flow
/// backend feeds the paths straight into the max-min allocator). Every
/// demand must be routable.
[[nodiscard]] RoutingResult compute_routes(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands,
    RoutingScheme scheme);

/// compute_routes + installs the per-(src,dst) next hops into the network
/// nodes (the packet backend's wiring step).
RoutingResult install_routes(Network& network, const SimTopologyView& view,
                             const std::vector<TrafficDemand>& demands,
                             RoutingScheme scheme);

}  // namespace cisp::net
