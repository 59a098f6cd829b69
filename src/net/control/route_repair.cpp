#include "net/control/route_repair.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "geo/latlon.hpp"
#include "graph/ksp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::net::control {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Duplex link of a graph arc: view_from_plan appends arcs 2i, 2i+1 for
/// plan link i.
std::size_t link_of_edge(graphs::EdgeId eid) { return eid / 2; }

graphs::EdgeMask make_mask(const std::vector<LinkState>& state) {
  return [&state](graphs::EdgeId eid) { return state[link_of_edge(eid)].up; };
}

/// Path extraction that also pins the tree's parent arcs — extract_path
/// alone leaves `edges` empty, and min-weight hop resolution would happily
/// pick a DOWNED MW arc parallel to the fiber arc the tree actually used.
graphs::Path extract_pinned(const graphs::Graph& graph,
                            const graphs::ShortestPathTree& tree,
                            graphs::NodeId target) {
  graphs::Path path = graphs::extract_path(graph, tree, target);
  if (path.empty()) return path;
  path.edges.reserve(path.nodes.size() - 1);
  for (graphs::NodeId node = target; node != tree.source;
       node = graph.edge(tree.parent_edge[node]).from) {
    path.edges.push_back(tree.parent_edge[node]);
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

/// Resolves each hop of a node path to its minimum-weight UP arc (ties to
/// the lowest edge id). The Yen candidates come back without pinned edges;
/// every hop has an up arc by construction (the search ran under the mask).
void pin_up_edges(const graphs::Graph& graph, graphs::Path& path,
                  const graphs::EdgeMask& mask) {
  path.edges.clear();
  path.edges.reserve(path.nodes.empty() ? 0 : path.nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    graphs::EdgeId best = graphs::kNoEdge;
    double best_weight = std::numeric_limits<double>::infinity();
    for (const graphs::EdgeId eid : graph.out_edges(path.nodes[i])) {
      if (!mask(eid)) continue;
      const graphs::Edge& e = graph.edge(eid);
      if (e.to == path.nodes[i + 1] && e.weight < best_weight) {
        best_weight = e.weight;
        best = eid;
      }
    }
    CISP_REQUIRE(best != graphs::kNoEdge, "candidate hop has no up arc");
    path.edges.push_back(best);
  }
}

double pinned_latency_s(const SimTopologyView& view,
                        const graphs::Path& path) {
  double latency = 0.0;
  for (const graphs::EdgeId eid : path.edges) {
    latency += view.latency_graph.edge(eid).weight;
  }
  return latency;
}

double degraded_bottleneck_bps(const SimTopologyView& view,
                               const std::vector<LinkState>& state,
                               const graphs::Path& path) {
  double bottleneck = std::numeric_limits<double>::infinity();
  for (const graphs::EdgeId eid : path.edges) {
    bottleneck =
        std::min(bottleneck, view.capacity_bps[eid] *
                                 state[link_of_edge(eid)].capacity_factor);
  }
  return bottleneck;
}

bool same_route(const graphs::Path& a, const graphs::Path& b) {
  return a.edges == b.edges && a.nodes == b.nodes;
}

/// The pure per-pair route function of (view, tree, link state, policy) —
/// shared verbatim by the incremental path and the full-recompute oracle,
/// so equivalence is about WHICH pairs get re-evaluated, not arithmetic.
PairRoute evaluate_pair(const SimTopologyView& view,
                        const graphs::ShortestPathTree& tree,
                        const TrafficDemand& demand,
                        const graphs::Path& baseline,
                        const DetourPolicy& policy,
                        const std::vector<LinkState>& state,
                        const flow::DirectKmFn& direct_km, bool* on_baseline) {
  const graphs::EdgeMask mask = make_mask(state);
  const graphs::Path tree_path =
      extract_pinned(view.latency_graph, tree, demand.dst);
  const double direct_s =
      direct_km(demand.src, demand.dst) / geo::kSpeedOfLightKmPerS;
  const auto stretch_of = [&](double latency_s) {
    return direct_s > 0.0 ? latency_s / direct_s : 1.0;
  };

  PairRoute route;
  *on_baseline = same_route(tree_path, baseline);
  if (*on_baseline) {
    // Undisturbed pair: keep the design route, admission is stretch only
    // (an intact path can still exceed a tight experimental bound).
    route.path = tree_path;
    route.latency_s = pinned_latency_s(view, route.path);
    route.stretch = stretch_of(route.latency_s);
    if (route.stretch > policy.max_stretch) {
      route = PairRoute{};
      route.denied = true;
    }
    return route;
  }

  // Displaced pair: choose among masked Yen candidates within the stretch
  // bound, maximizing the degraded bottleneck — displaced demand should
  // land on idle fiber, not re-saturate a surviving MW trunk.
  std::vector<graphs::Path> candidates;
  if (policy.candidates <= 1) {
    if (!tree_path.empty()) candidates.push_back(tree_path);
  } else {
    candidates = graphs::yen_ksp(view.latency_graph, demand.src, demand.dst,
                                 policy.candidates, mask);
    for (graphs::Path& candidate : candidates) {
      pin_up_edges(view.latency_graph, candidate, mask);
    }
  }

  bool found = false;
  double best_bottleneck = -1.0;
  double best_latency = std::numeric_limits<double>::infinity();
  for (const graphs::Path& candidate : candidates) {
    const double latency_s = pinned_latency_s(view, candidate);
    const double stretch = stretch_of(latency_s);
    if (stretch > policy.max_stretch) continue;
    const double bottleneck = degraded_bottleneck_bps(view, state, candidate);
    if (!found || bottleneck > best_bottleneck ||
        (bottleneck == best_bottleneck && latency_s < best_latency)) {
      found = true;
      best_bottleneck = bottleneck;
      best_latency = latency_s;
      route.path = candidate;
      route.latency_s = latency_s;
      route.stretch = stretch;
    }
  }
  route.detoured = found;
  if (!found) {
    route = PairRoute{};
    route.denied = true;
  }
  return route;
}

/// Deterministic congestion rebalance, run after every repair step over the
/// FULL route set. Failures displace demand onto surviving trunks that the
/// per-pair detour step cannot see are oversubscribed (load is a global
/// property); pairs crossing an edge whose offered load exceeds its
/// degraded capacity are moved — in ascending pair order, serially, so the
/// result is thread-count-invariant — to the minimum-latency path over
/// edges with enough residual capacity for the pair's full rate, if one
/// exists within the stretch bound. This is a pure function of the
/// post-repair route set, so the incremental path and the full-recompute
/// oracle stay byte-identical: both feed it the same routes (proved by the
/// tree/dirty-pair argument above) and it is deterministic.
///
/// A congested pair's current path is never re-selected: with own rate r
/// removed, feasibility needs cap - (load - r) >= r, i.e. cap >= load,
/// which the congested edge violates by definition.
std::size_t rebalance_congested(const SimTopologyView& view,
                                const std::vector<LinkState>& state,
                                const std::vector<TrafficDemand>& demands,
                                const std::vector<graphs::Path>& baselines,
                                const DetourPolicy& policy,
                                const flow::DirectKmFn& direct_km,
                                std::vector<PairRoute>& routes,
                                std::vector<char>* on_baseline) {
  const graphs::Graph& graph = view.latency_graph;
  const auto capacity = [&](graphs::EdgeId eid) {
    return view.capacity_bps[eid] * state[link_of_edge(eid)].capacity_factor;
  };
  std::vector<double> load(view.capacity_bps.size(), 0.0);
  for (std::size_t p = 0; p < demands.size(); ++p) {
    for (const graphs::EdgeId eid : routes[p].path.edges) {
      load[eid] += demands[p].rate_bps;
    }
  }

  std::size_t moved = 0;
  for (std::size_t p = 0; p < demands.size(); ++p) {
    PairRoute& route = routes[p];
    const double rate = demands[p].rate_bps;
    if (route.denied || route.path.empty() || rate <= 0.0) continue;
    bool congested = false;
    for (const graphs::EdgeId eid : route.path.edges) {
      if (load[eid] > capacity(eid)) {
        congested = true;
        break;
      }
    }
    if (!congested) continue;

    for (const graphs::EdgeId eid : route.path.edges) load[eid] -= rate;
    const graphs::EdgeMask feasible = [&](graphs::EdgeId eid) {
      return state[link_of_edge(eid)].up &&
             capacity(eid) - load[eid] >= rate;
    };
    const auto tree = graphs::dijkstra(graph, demands[p].src, feasible);
    graphs::Path candidate = extract_pinned(graph, tree, demands[p].dst);
    if (!candidate.empty()) {
      const double latency_s = pinned_latency_s(view, candidate);
      const double direct_s = direct_km(demands[p].src, demands[p].dst) /
                              geo::kSpeedOfLightKmPerS;
      const double stretch = direct_s > 0.0 ? latency_s / direct_s : 1.0;
      if (stretch <= policy.max_stretch) {
        route.path = std::move(candidate);
        route.latency_s = latency_s;
        route.stretch = stretch;
        const bool home = same_route(route.path, baselines[p]);
        route.detoured = !home;
        if (on_baseline != nullptr) (*on_baseline)[p] = home ? 1 : 0;
        ++moved;
      }
    }
    // Re-add the pair's load along whichever path it ended up on; later
    // pairs see the updated picture.
    for (const graphs::EdgeId eid : route.path.edges) load[eid] += rate;
  }
  return moved;
}

}  // namespace

RouteRepairer::RouteRepairer(const LinkPlan& plan,
                             std::vector<TrafficDemand> demands,
                             DetourPolicy policy, flow::DirectKmFn direct_km)
    : topo_(view_from_plan(plan)),
      demands_(std::move(demands)),
      policy_(policy),
      direct_km_(std::move(direct_km)) {
  CISP_REQUIRE(direct_km_ != nullptr, "RouteRepairer needs a direct_km fn");
  CISP_REQUIRE(policy_.candidates >= 1, "detour candidates must be >= 1");
  state_.assign(plan.links.size(), LinkState{});

  std::vector<std::size_t> slot_of_node(plan.node_count, kNoSlot);
  source_slot_.reserve(demands_.size());
  for (const TrafficDemand& demand : demands_) {
    CISP_REQUIRE(demand.src < plan.node_count && demand.dst < plan.node_count,
                 "demand endpoint out of range");
    if (slot_of_node[demand.src] == kNoSlot) {
      slot_of_node[demand.src] = sources_.size();
      sources_.push_back(demand.src);
    }
    source_slot_.push_back(slot_of_node[demand.src]);
  }

  trees_.resize(sources_.size());
  const graphs::EdgeMask mask = make_mask(state_);
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    trees_[s] = graphs::dijkstra(topo_.view.latency_graph, sources_[s], mask);
  }

  baseline_paths_.reserve(demands_.size());
  for (std::size_t p = 0; p < demands_.size(); ++p) {
    graphs::Path baseline = extract_pinned(
        topo_.view.latency_graph, trees_[source_slot_[p]], demands_[p].dst);
    CISP_REQUIRE(!baseline.empty(), "demand unroutable on the intact plan");
    baseline_paths_.push_back(std::move(baseline));
  }

  routes_.resize(demands_.size());
  on_baseline_.assign(demands_.size(), 1);
  std::vector<std::size_t> all(demands_.size());
  for (std::size_t p = 0; p < all.size(); ++p) all[p] = p;
  evaluate_pairs(all);
  rebalance_congested(topo_.view, state_, demands_, baseline_paths_, policy_,
                      direct_km_, routes_, &on_baseline_);
}

void RouteRepairer::evaluate_pairs(const std::vector<std::size_t>& dirty) {
  for (const std::size_t p : dirty) {
    bool on_baseline = false;
    routes_[p] = evaluate_pair(topo_.view, trees_[source_slot_[p]],
                               demands_[p], baseline_paths_[p], policy_,
                               state_, direct_km_, &on_baseline);
    on_baseline_[p] = on_baseline ? 1 : 0;
  }
}

RepairStats RouteRepairer::apply(const std::vector<LinkDelta>& deltas) {
  const obs::TraceSpan span("control.repair", "control", "deltas",
                            static_cast<double>(deltas.size()));
  std::vector<std::size_t> downed;
  std::vector<std::size_t> restored;
  bool state_changed = false;
  for (const LinkDelta& delta : deltas) {
    CISP_REQUIRE(delta.link < state_.size(), "link delta out of range");
    CISP_REQUIRE(
        delta.capacity_factor >= 0.0 && delta.capacity_factor <= 1.0,
        "capacity factor must be in [0, 1]");
    LinkState& link = state_[delta.link];
    if (link.up != delta.up || link.capacity_factor != delta.capacity_factor) {
      state_changed = true;
    }
    if (link.up && !delta.up) downed.push_back(delta.link);
    if (!link.up && delta.up) restored.push_back(delta.link);
    link.up = delta.up;
    link.capacity_factor = delta.capacity_factor;
  }

  // Calm epoch: routes are a pure function of the cumulative state, so a
  // batch that changes nothing (weather pipelines emit plenty of those)
  // can return without touching a tree, a pair, or the rebalance pass.
  if (!state_changed) {
    RepairStats stats;
    stats.sources = sources_.size();
    for (const PairRoute& route : routes_) {
      if (route.denied) ++stats.denied_pairs;
      else if (route.detoured) ++stats.detoured_pairs;
    }
    obs::counter("control.repair.batches").add(1);
    return stats;
  }

  // A tree is affected by a downed link iff one of its arcs is a tree edge;
  // by a restored link iff an arc could relax a label. The restored test
  // is deliberately NON-strict: an equal-length arc can become the final
  // parent through an intermediate relaxation, and `inf <= inf` keeps
  // chains of restored links that re-connect an unreachable region marked.
  const graphs::Graph& graph = topo_.view.latency_graph;
  std::vector<std::size_t> affected;
  std::vector<char> tree_touched(sources_.size(), 0);
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const graphs::ShortestPathTree& tree = trees_[s];
    bool hit = false;
    for (const std::size_t link : downed) {
      for (const graphs::EdgeId eid :
           {static_cast<graphs::EdgeId>(2 * link),
            static_cast<graphs::EdgeId>(2 * link + 1)}) {
        if (tree.parent_edge[graph.edge(eid).to] == eid) hit = true;
      }
      if (hit) break;
    }
    for (const std::size_t link : restored) {
      if (hit) break;
      for (const graphs::EdgeId eid :
           {static_cast<graphs::EdgeId>(2 * link),
            static_cast<graphs::EdgeId>(2 * link + 1)}) {
        const graphs::Edge& e = graph.edge(eid);
        if (tree.dist[e.from] + e.weight <= tree.dist[e.to]) hit = true;
      }
    }
    if (hit) {
      affected.push_back(s);
      tree_touched[s] = 1;
    }
  }

  const graphs::EdgeMask mask = make_mask(state_);
  for (const std::size_t s : affected) {
    trees_[s] = graphs::dijkstra(graph, sources_[s], mask);
  }

  // Dirty = pairs whose tree changed + pairs currently off their baseline
  // path (their route depends on capacities/topology beyond the tree, so
  // they stay dirty until they return home). On-baseline pairs with an
  // untouched tree are provably unchanged and are skipped — the saving
  // that makes thousands of draws cheap.
  std::vector<std::size_t> dirty;
  std::vector<PairRoute> before;
  for (std::size_t p = 0; p < demands_.size(); ++p) {
    if (tree_touched[source_slot_[p]] || !on_baseline_[p]) {
      dirty.push_back(p);
      before.push_back(routes_[p]);
    }
  }
  evaluate_pairs(dirty);

  RepairStats stats;
  stats.sources = sources_.size();
  stats.touched_sources = affected.size();
  stats.touched_pairs = dirty.size();
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const PairRoute& now = routes_[dirty[i]];
    if (!same_route(now.path, before[i].path) ||
        now.denied != before[i].denied) {
      ++stats.changed_pairs;
    }
  }
  // Global pass: changed_pairs above counts the repair step only; moves
  // here (which may touch pairs the repair step skipped) are reported
  // separately. Moved pairs leave/return to baseline, which keeps them in
  // next batch's dirty set via on_baseline_.
  stats.rebalanced_pairs =
      rebalance_congested(topo_.view, state_, demands_, baseline_paths_,
                          policy_, direct_km_, routes_, &on_baseline_);
  for (const PairRoute& route : routes_) {
    if (route.denied) ++stats.denied_pairs;
    else if (route.detoured) ++stats.detoured_pairs;
  }

  obs::counter("control.repair.batches").add(1);
  obs::counter("control.repair.touched_sources").add(stats.touched_sources);
  obs::counter("control.repair.touched_pairs").add(stats.touched_pairs);
  obs::counter("control.repair.changed_pairs").add(stats.changed_pairs);
  obs::counter("control.repair.rebalanced_pairs").add(stats.rebalanced_pairs);
  return stats;
}

void RouteRepairer::reset() {
  std::vector<LinkDelta> deltas;
  deltas.reserve(state_.size());
  for (std::size_t link = 0; link < state_.size(); ++link) {
    const LinkState& s = state_[link];
    if (!s.up || s.capacity_factor != 1.0) {
      deltas.push_back(LinkDelta{link, true, 1.0});
    }
  }
  if (!deltas.empty()) apply(deltas);
}

std::vector<graphs::Path> RouteRepairer::traffic_paths() const {
  std::vector<graphs::Path> paths;
  paths.reserve(routes_.size());
  for (const PairRoute& route : routes_) paths.push_back(route.path);
  return paths;
}

std::vector<double> RouteRepairer::capacity_factors() const {
  std::vector<double> factors;
  factors.reserve(state_.size());
  for (const LinkState& link : state_) {
    factors.push_back(link.effective_factor());
  }
  return factors;
}

std::vector<PairRoute> RouteRepairer::full_recompute(
    const LinkPlan& plan, const std::vector<TrafficDemand>& demands,
    const DetourPolicy& policy, const flow::DirectKmFn& direct_km,
    const std::vector<LinkState>& state) {
  CISP_REQUIRE(state.size() == plan.links.size(),
               "link state / plan size mismatch");
  const TopologyView topo = view_from_plan(plan);
  const graphs::EdgeMask intact_mask = nullptr;
  const graphs::EdgeMask mask = make_mask(state);

  // Fresh per-source trees over the intact plan (baselines) and over the
  // degraded state — no incrementality anywhere.
  std::vector<std::size_t> slot_of_node(plan.node_count, kNoSlot);
  std::vector<graphs::NodeId> sources;
  std::vector<std::size_t> source_slot;
  source_slot.reserve(demands.size());
  for (const TrafficDemand& demand : demands) {
    if (slot_of_node[demand.src] == kNoSlot) {
      slot_of_node[demand.src] = sources.size();
      sources.push_back(demand.src);
    }
    source_slot.push_back(slot_of_node[demand.src]);
  }
  std::vector<graphs::ShortestPathTree> baseline_trees(sources.size());
  std::vector<graphs::ShortestPathTree> degraded_trees(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    baseline_trees[s] =
        graphs::dijkstra(topo.view.latency_graph, sources[s], intact_mask);
    degraded_trees[s] =
        graphs::dijkstra(topo.view.latency_graph, sources[s], mask);
  }

  std::vector<graphs::Path> baselines;
  std::vector<PairRoute> routes;
  baselines.reserve(demands.size());
  routes.reserve(demands.size());
  for (std::size_t p = 0; p < demands.size(); ++p) {
    graphs::Path baseline =
        extract_pinned(topo.view.latency_graph, baseline_trees[source_slot[p]],
                       demands[p].dst);
    CISP_REQUIRE(!baseline.empty(), "demand unroutable on the intact plan");
    bool on_baseline = false;
    routes.push_back(evaluate_pair(topo.view, degraded_trees[source_slot[p]],
                                   demands[p], baseline, policy, state,
                                   direct_km, &on_baseline));
    baselines.push_back(std::move(baseline));
  }
  rebalance_congested(topo.view, state, demands, baselines, policy, direct_km,
                      routes, nullptr);
  return routes;
}

}  // namespace cisp::net::control
