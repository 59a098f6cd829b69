#include "net/routing.hpp"

#include <algorithm>
#include <cmath>

#include "graph/dijkstra.hpp"
#include "graph/ksp.hpp"
#include <queue>
#include <tuple>
#include "util/error.hpp"

namespace cisp::net {

const char* to_string(RoutingScheme scheme) {
  switch (scheme) {
    case RoutingScheme::ShortestPath:
      return "shortest-path";
    case RoutingScheme::MinMaxUtilization:
      return "min-max-utilization";
    case RoutingScheme::ThroughputOptimal:
      return "throughput-optimal";
  }
  return "unknown";
}

namespace {

/// Finds the graph edge used between consecutive path nodes (cheapest arc).
graphs::EdgeId edge_between(const graphs::Graph& g, graphs::NodeId a,
                            graphs::NodeId b) {
  graphs::EdgeId best = graphs::kNoEdge;
  for (const graphs::EdgeId eid : g.out_edges(a)) {
    if (g.edge(eid).to == b &&
        (best == graphs::kNoEdge ||
         g.edge(eid).weight < g.edge(best).weight)) {
      best = eid;
    }
  }
  CISP_REQUIRE(best != graphs::kNoEdge, "path uses a non-existent edge");
  return best;
}

std::vector<graphs::Path> shortest_paths(const SimTopologyView& view,
                                         const std::vector<TrafficDemand>& demands) {
  // One Dijkstra per distinct source.
  std::vector<graphs::Path> paths(demands.size());
  std::vector<int> done(view.latency_graph.node_count(), -1);
  std::vector<graphs::ShortestPathTree> trees;
  for (std::size_t d = 0; d < demands.size(); ++d) {
    const auto src = static_cast<graphs::NodeId>(demands[d].src);
    if (done[src] < 0) {
      done[src] = static_cast<int>(trees.size());
      trees.push_back(graphs::dijkstra(view.latency_graph, src));
    }
    paths[d] = graphs::extract_path(
        view.latency_graph, trees[done[src]],
        static_cast<graphs::NodeId>(demands[d].dst));
  }
  return paths;
}

std::vector<graphs::Path> min_max_util_paths(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands) {
  // Greedy CSPF: biggest demands first, each choosing among its few
  // shortest (latency) candidate paths the one minimizing the resulting
  // maximum link utilization; latency breaks ties. Demands in the long
  // tail (< 0.5% of the largest) stay on their shortest path — they cannot
  // move the maximum and Yen on every one of O(n^2) demands is wasteful.
  std::vector<std::size_t> order(demands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a].rate_bps > demands[b].rate_bps;
  });
  double max_rate = 0.0;
  for (const auto& d : demands) max_rate = std::max(max_rate, d.rate_bps);
  auto sp = shortest_paths(view, demands);
  std::vector<double> load(view.latency_graph.edge_count(), 0.0);
  std::vector<graphs::Path> paths(demands.size());
  for (const std::size_t d : order) {
    if (demands[d].rate_bps < 0.005 * max_rate) {
      paths[d] = std::move(sp[d]);
      for (std::size_t i = 0; i + 1 < paths[d].nodes.size(); ++i) {
        const auto eid = edge_between(view.latency_graph, paths[d].nodes[i],
                                      paths[d].nodes[i + 1]);
        load[eid] += demands[d].rate_bps;
      }
      continue;
    }
    const auto candidates = graphs::yen_ksp(
        view.latency_graph, static_cast<graphs::NodeId>(demands[d].src),
        static_cast<graphs::NodeId>(demands[d].dst), 4);
    CISP_REQUIRE(!candidates.empty(), "demand is unroutable");
    double best_util = graphs::kUnreachable;
    std::size_t best = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      double worst = 0.0;
      const auto& p = candidates[c];
      for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
        const auto eid =
            edge_between(view.latency_graph, p.nodes[i], p.nodes[i + 1]);
        worst = std::max(worst, (load[eid] + demands[d].rate_bps) /
                                    view.capacity_bps[eid]);
      }
      if (worst < best_util - 1e-12) {
        best_util = worst;
        best = c;
      }
    }
    paths[d] = candidates[best];
    for (std::size_t i = 0; i + 1 < paths[d].nodes.size(); ++i) {
      const auto eid = edge_between(view.latency_graph, paths[d].nodes[i],
                                    paths[d].nodes[i + 1]);
      load[eid] += demands[d].rate_bps;
    }
  }
  return paths;
}

std::vector<graphs::Path> throughput_optimal_paths(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands) {
  // Widest-path routing: every flow takes the path maximizing its
  // bottleneck capacity (ties broken by latency) — the classical per-flow
  // throughput-optimal rule. It steers traffic onto the fattest (fiber)
  // links, buying load headroom at a latency premium, which is exactly the
  // trade the paper reports for its throughput-optimal scheme.
  const auto& g = view.latency_graph;
  const std::size_t n = g.node_count();
  std::vector<graphs::Path> paths(demands.size());
  std::vector<int> tree_of(n, -1);

  struct WidestTree {
    std::vector<double> width;
    std::vector<double> latency;
    std::vector<graphs::EdgeId> parent;
  };
  std::vector<WidestTree> trees;

  const auto build_tree = [&](graphs::NodeId src) {
    WidestTree tree;
    tree.width.assign(n, 0.0);
    tree.latency.assign(n, graphs::kUnreachable);
    tree.parent.assign(n, graphs::kNoEdge);
    tree.width[src] = graphs::kUnreachable;
    tree.latency[src] = 0.0;
    using Entry = std::tuple<double, double, graphs::NodeId>;  // -w, lat, v
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    pq.push({-tree.width[src], 0.0, src});
    while (!pq.empty()) {
      const auto [neg_width, lat, node] = pq.top();
      pq.pop();
      if (-neg_width < tree.width[node] ||
          (-neg_width == tree.width[node] && lat > tree.latency[node])) {
        continue;  // stale
      }
      for (const graphs::EdgeId eid : g.out_edges(node)) {
        const auto& edge = g.edge(eid);
        const double w = std::min(tree.width[node], view.capacity_bps[eid]);
        const double l = lat + edge.weight;
        if (w > tree.width[edge.to] ||
            (w == tree.width[edge.to] && l < tree.latency[edge.to])) {
          tree.width[edge.to] = w;
          tree.latency[edge.to] = l;
          tree.parent[edge.to] = eid;
          pq.push({-w, l, edge.to});
        }
      }
    }
    return tree;
  };

  for (std::size_t d = 0; d < demands.size(); ++d) {
    const auto src = static_cast<graphs::NodeId>(demands[d].src);
    if (tree_of[src] < 0) {
      tree_of[src] = static_cast<int>(trees.size());
      trees.push_back(build_tree(src));
    }
    const WidestTree& tree = trees[tree_of[src]];
    graphs::NodeId node = static_cast<graphs::NodeId>(demands[d].dst);
    if (tree.parent[node] == graphs::kNoEdge && node != src) continue;
    graphs::Path path;
    path.length = tree.latency[node];
    path.nodes.push_back(node);
    while (node != src) {
      const auto eid = tree.parent[node];
      path.edges.push_back(eid);
      node = g.edge(eid).from;
      path.nodes.push_back(node);
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.edges.begin(), path.edges.end());
    paths[d] = std::move(path);
  }
  return paths;
}

}  // namespace

std::vector<graphs::EdgeId> path_edges(const graphs::Graph& graph,
                                       const graphs::Path& path) {
  std::vector<graphs::EdgeId> edges;
  if (path.nodes.size() < 2) return edges;
  const bool pinned = path.edges.size() + 1 == path.nodes.size();
  edges.reserve(path.nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    edges.push_back(pinned ? path.edges[i]
                           : edge_between(graph, path.nodes[i],
                                          path.nodes[i + 1]));
  }
  return edges;
}

MultipathRouteSet single_path_routes(std::vector<graphs::Path> paths) {
  MultipathRouteSet routes;
  routes.pair_paths.resize(paths.size());
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (paths[f].empty()) continue;
    routes.pair_paths[f].push_back({std::move(paths[f]), 1.0});
  }
  return routes;
}

RoutingResult compute_routes(const SimTopologyView& view,
                             const std::vector<TrafficDemand>& demands,
                             RoutingScheme scheme) {
  CISP_REQUIRE(view.edge_to_link.size() == view.latency_graph.edge_count() &&
                   view.capacity_bps.size() == view.latency_graph.edge_count(),
               "view arrays inconsistent");

  RoutingResult result;
  switch (scheme) {
    case RoutingScheme::ShortestPath:
      result.paths = shortest_paths(view, demands);
      break;
    case RoutingScheme::MinMaxUtilization:
      result.paths = min_max_util_paths(view, demands);
      break;
    case RoutingScheme::ThroughputOptimal:
      result.paths = throughput_optimal_paths(view, demands);
      break;
  }

  std::vector<double> load(view.latency_graph.edge_count(), 0.0);
  double weighted_latency = 0.0;
  double total_rate = 0.0;
  for (std::size_t d = 0; d < demands.size(); ++d) {
    auto& path = result.paths[d];
    CISP_REQUIRE(!path.empty(), "demand is unroutable");
    auto edges = path_edges(view.latency_graph, path);
    double latency = 0.0;
    for (const graphs::EdgeId eid : edges) {
      latency += view.latency_graph.edge(eid).weight;
      load[eid] += demands[d].rate_bps;
    }
    path.edges = std::move(edges);  // pin, so consumers never re-resolve
    weighted_latency += latency * demands[d].rate_bps;
    total_rate += demands[d].rate_bps;
  }
  result.mean_path_latency_s =
      total_rate > 0.0 ? weighted_latency / total_rate : 0.0;
  for (std::size_t e = 0; e < load.size(); ++e) {
    result.max_link_utilization =
        std::max(result.max_link_utilization, load[e] / view.capacity_bps[e]);
  }
  return result;
}

void install_paths(Network& network, const SimTopologyView& view,
                   const std::vector<TrafficDemand>& demands,
                   const RoutingResult& routes,
                   const std::vector<std::size_t>& subset) {
  CISP_REQUIRE(view.latency_graph.node_count() == network.node_count(),
               "view/network size mismatch");
  for (const std::size_t d : subset) {
    const auto& path = routes.paths[d];
    CISP_REQUIRE(path.edges.size() + 1 == path.nodes.size() ||
                     path.nodes.size() < 2,
                 "install_paths needs pinned path edges");
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      // Install the route at the hop's source node.
      network.node(path.nodes[i])
          .set_route(demands[d].src, demands[d].dst,
                     &network.link(view.edge_to_link[path.edges[i]]));
    }
  }
}

RoutingResult install_routes(Network& network, const SimTopologyView& view,
                             const std::vector<TrafficDemand>& demands,
                             RoutingScheme scheme) {
  RoutingResult result = compute_routes(view, demands, scheme);
  std::vector<std::size_t> all(demands.size());
  for (std::size_t d = 0; d < all.size(); ++d) all[d] = d;
  install_paths(network, view, demands, result, all);
  return result;
}

}  // namespace cisp::net
