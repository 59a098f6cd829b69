#include "net/control/candidate_racing.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net::control {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// extract_path with the tree's arcs pinned — the fiber fallback must
/// stay on fiber even where a parallel MW arc is cheaper, so min-weight
/// hop resolution is not an option.
graphs::Path extract_pinned(const graphs::Graph& graph,
                            const graphs::ShortestPathTree& tree,
                            graphs::NodeId target) {
  graphs::Path path;
  if (!tree.reached(target)) return path;
  path.length = tree.dist[target];
  graphs::NodeId node = target;
  path.nodes.push_back(node);
  while (node != tree.source) {
    const graphs::EdgeId eid = tree.parent_edge[node];
    path.edges.push_back(eid);
    node = graph.edge(eid).from;
    path.nodes.push_back(node);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

void tally(RacingReport& report) {
  for (const RaceOutcome& out : report.outcomes) {
    switch (out.winner) {
      case RaceWinner::Microwave:
        ++report.mw_winners;
        break;
      case RaceWinner::Fiber:
        ++report.fiber_winners;
        break;
      case RaceWinner::None:
        ++report.failed_pairs;
        break;
    }
  }
}

}  // namespace

const char* to_string(RaceWinner winner) {
  switch (winner) {
    case RaceWinner::Microwave:
      return "microwave";
    case RaceWinner::Fiber:
      return "fiber";
    case RaceWinner::None:
      return "none";
  }
  return "unknown";
}

std::vector<graphs::Path> RacingReport::traffic_paths() const {
  std::vector<graphs::Path> paths;
  paths.reserve(outcomes.size());
  for (const RaceOutcome& out : outcomes) paths.push_back(out.path);
  return paths;
}

CandidateRacer::CandidateRacer(const LinkPlan& plan,
                               std::vector<TrafficDemand> demands,
                               RacingOptions options)
    : link_count_(plan.links.size()),
      topo_(view_from_plan(plan)),
      demands_(std::move(demands)),
      options_(options) {
  CISP_REQUIRE(options_.stagger_s >= 0.0 && options_.retry_s >= 0.0,
               "racing timers must be non-negative");
  CISP_REQUIRE(options_.max_attempts >= 1,
               "racing needs at least one attempt per candidate");
  edge_is_mw_.assign(topo_.view.latency_graph.edge_count(), 0);
  for (const std::size_t eid : topo_.mw_edges) edge_is_mw_[eid] = 1;

  // Fiber fallbacks: one masked Dijkstra per distinct source, arcs
  // pinned from the tree.
  const graphs::EdgeMask fiber_only = [this](graphs::EdgeId eid) {
    return edge_is_mw_[eid] == 0;
  };
  fiber_paths_.resize(demands_.size());
  fiber_latency_s_.assign(demands_.size(), 0.0);
  std::vector<graphs::NodeId> sources;
  std::vector<std::size_t> tree_of(demands_.size(), 0);
  for (std::size_t f = 0; f < demands_.size(); ++f) {
    const graphs::NodeId src = demands_[f].src;
    const auto it = std::find(sources.begin(), sources.end(), src);
    if (it == sources.end()) {
      tree_of[f] = sources.size();
      sources.push_back(src);
    } else {
      tree_of[f] = static_cast<std::size_t>(it - sources.begin());
    }
  }
  std::vector<graphs::ShortestPathTree> trees(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    trees[s] = graphs::dijkstra(topo_.view.latency_graph, sources[s],
                                fiber_only);
  }
  for (std::size_t f = 0; f < demands_.size(); ++f) {
    fiber_paths_[f] = extract_pinned(topo_.view.latency_graph,
                                     trees[tree_of[f]], demands_[f].dst);
    fiber_latency_s_[f] = fiber_paths_[f].length;
  }
}

RaceOutcome CandidateRacer::race_pair(std::size_t pair,
                                      const std::vector<PairRoute>& routes,
                                      const std::vector<LinkState>& state)
    const {
  RaceOutcome out;
  const PairRoute& mw = routes[pair];
  const bool has_mw = !mw.denied && !mw.path.empty();

  // MW handshake success probability: the worst capacity factor along
  // the route's MW hops (the weakest link delivers — or drops — the
  // handshake). Fiber hops of a mixed route never fail.
  double mw_success = 1.0;
  double mw_latency_s = 0.0;
  if (has_mw) {
    mw_latency_s = mw.latency_s;
    for (const graphs::EdgeId eid :
         net::path_edges(topo_.view.latency_graph, mw.path)) {
      if (!edge_is_mw_[eid]) continue;
      const LinkState& ls = state[topo_.view.edge_to_link[eid] / 2];
      mw_success = std::min(ls.up ? ls.capacity_factor : 0.0, mw_success);
    }
  }

  // One Rng per pair: a pair's outcome never depends on the other pairs,
  // and only the MW candidate consumes draws.
  Rng rng(hash_combine(options_.seed, pair));
  double mw_done_s = kNever;
  if (has_mw) {
    for (std::size_t attempt = 0; attempt < options_.max_attempts;
         ++attempt) {
      ++out.mw_attempts;
      if (rng.chance(mw_success)) {
        mw_done_s = static_cast<double>(attempt) * options_.retry_s +
                    2.0 * mw_latency_s;
        break;
      }
    }
  }
  double fiber_done_s = kNever;
  if (!fiber_paths_[pair].empty()) {
    // Fiber never degrades: its first (staggered) attempt completes.
    out.fiber_attempts = 1;
    fiber_done_s = options_.stagger_s + 2.0 * fiber_latency_s_[pair];
  }

  if (mw_done_s <= fiber_done_s && mw_done_s < kNever) {
    out.winner = RaceWinner::Microwave;
    out.path = mw.path;
    out.decision_s = mw_done_s;
  } else if (fiber_done_s < kNever) {
    out.winner = RaceWinner::Fiber;
    out.path = fiber_paths_[pair];
    out.decision_s = fiber_done_s;
  }
  return out;
}

RacingReport CandidateRacer::race(const std::vector<PairRoute>& routes,
                                  const std::vector<LinkState>& state) const {
  CISP_REQUIRE(routes.size() == demands_.size(),
               "racing needs one repaired route per demand");
  CISP_REQUIRE(state.size() == link_count_,
               "racing needs one link state per plan link");
  RacingReport report;
  report.outcomes.resize(demands_.size());
  for (std::size_t f = 0; f < demands_.size(); ++f) {
    report.outcomes[f] = race_pair(f, routes, state);
    if ((routes[f].denied || routes[f].path.empty()) &&
        report.outcomes[f].winner == RaceWinner::Fiber) {
      ++report.recovered_pairs;
    }
  }
  tally(report);
  return report;
}

}  // namespace cisp::net::control
