#include "net/flow/multipath.hpp"

#include <cmath>

#include "geo/latlon.hpp"
#include "util/error.hpp"

namespace cisp::net::flow {

SubflowExpansion expand_multipath(const DemandMatrix& demands,
                                  net::MultipathRouteSet routes) {
  CISP_REQUIRE(routes.pair_paths.size() == demands.pairs().size(),
               "multipath route set must cover every demand pair");
  SubflowExpansion out;
  out.pair_count = demands.pairs().size();
  std::size_t subflows = 0;
  for (const auto& set : routes.pair_paths) subflows += set.size();
  out.paths.reserve(subflows);
  out.demand_bps.reserve(subflows);
  out.weights.reserve(subflows);
  out.pair_of.reserve(subflows);
  for (std::size_t f = 0; f < routes.pair_paths.size(); ++f) {
    const PairDemand& pair = demands.pairs()[f];
    double weight_sum = 0.0;
    for (const net::WeightedPath& wp : routes.pair_paths[f]) {
      weight_sum += wp.weight;
    }
    CISP_REQUIRE(routes.pair_paths[f].empty() ||
                     std::abs(weight_sum - 1.0) <= 1e-6,
                 "a pair's multipath split weights must sum to 1");
    for (net::WeightedPath& wp : routes.pair_paths[f]) {
      CISP_REQUIRE(!wp.path.empty(),
                   "multipath route set entries must be non-empty paths "
                   "(denied pairs have an empty SET, not an empty path)");
      CISP_REQUIRE(std::isfinite(wp.weight) && wp.weight > 0.0,
                   "multipath split weights must be positive and finite");
      out.paths.push_back(std::move(wp.path));
      out.demand_bps.push_back(pair.rate_bps * wp.weight);
      out.weights.push_back(
          static_cast<double>(std::max<std::uint64_t>(1, pair.users)) *
          wp.weight);
      out.pair_of.push_back(static_cast<std::uint32_t>(f));
    }
  }
  return out;
}

Allocation fold_subflows(const SubflowExpansion& expansion,
                         Allocation subflow_allocation) {
  CISP_REQUIRE(subflow_allocation.rate_bps.size() == expansion.paths.size(),
               "subflow allocation does not match the expansion");
  const std::vector<double> subflow_rates =
      std::move(subflow_allocation.rate_bps);
  Allocation out = std::move(subflow_allocation);
  out.rate_bps.assign(expansion.pair_count, 0.0);
  out.bottleneck_edge.clear();
  for (std::size_t s = 0; s < expansion.paths.size(); ++s) {
    out.rate_bps[expansion.pair_of[s]] += subflow_rates[s];
  }
  return out;
}

std::vector<PairOutcome> multipath_pair_outcomes(
    const SimTopologyView& view, const SubflowExpansion& expansion,
    const DemandMatrix& demands, const Allocation& subflow_allocation,
    const DirectKmFn& direct_km) {
  CISP_REQUIRE(subflow_allocation.rate_bps.size() == expansion.paths.size(),
               "subflow allocation does not match the expansion");
  std::vector<PairOutcome> out(demands.pairs().size());
  std::vector<std::uint32_t> subflows(out.size(), 0);
  std::vector<double> latency_acc(out.size(), 0.0);
  std::vector<double> offered_latency_acc(out.size(), 0.0);
  std::vector<double> offered_acc(out.size(), 0.0);
  for (std::size_t s = 0; s < expansion.paths.size(); ++s) {
    double latency_s = 0.0;
    for (const graphs::EdgeId eid :
         net::path_edges(view.latency_graph, expansion.paths[s])) {
      latency_s += view.latency_graph.edge(eid).weight;
    }
    const std::size_t f = expansion.pair_of[s];
    const double delivered = subflow_allocation.rate_bps[s];
    ++subflows[f];
    out[f].latency_s = latency_s;  // final for a single-subflow pair
    out[f].delivered_bps += delivered;
    latency_acc[f] += latency_s * delivered;
    offered_latency_acc[f] += latency_s * expansion.demand_bps[s];
    offered_acc[f] += expansion.demand_bps[s];
  }
  for (std::size_t f = 0; f < out.size(); ++f) {
    const PairDemand& pair = demands.pairs()[f];
    out[f].src = pair.src;
    out[f].dst = pair.dst;
    out[f].users = pair.users;
    out[f].offered_bps = pair.rate_bps;
    // One subflow keeps its path latency as is: (l * d) / d misses l by
    // an ulp in ~9% of draws.
    if (subflows[f] > 1) {
      if (out[f].delivered_bps > 0.0) {
        out[f].latency_s = latency_acc[f] / out[f].delivered_bps;
      } else {
        out[f].latency_s = offered_acc[f] > 0.0
                               ? offered_latency_acc[f] / offered_acc[f]
                               : 0.0;
      }
    }
    const double direct_s =
        direct_km(pair.src, pair.dst) / geo::kSpeedOfLightKmPerS;
    out[f].stretch = direct_s > 0.0 ? out[f].latency_s / direct_s : 1.0;
  }
  return out;
}

Realization realize(const SimTopologyView& view, const DemandMatrix& demands,
                    net::MultipathRouteSet routes,
                    const ElasticOptions& options,
                    const DirectKmFn& direct_km) {
  const SubflowExpansion expansion =
      expand_multipath(demands, std::move(routes));
  Allocation subflow_allocation;
  if (expansion.paths.empty()) {
    subflow_allocation.edge_load_bps.assign(view.capacity_bps.size(), 0.0);
  } else {
    subflow_allocation =
        alpha_fair_allocate(view, expansion.paths, expansion.demand_bps,
                            expansion.weights, options);
  }
  Realization out;
  out.pairs = multipath_pair_outcomes(view, expansion, demands,
                                      subflow_allocation, direct_km);
  out.allocation = fold_subflows(expansion, std::move(subflow_allocation));
  out.stats = summarize(view, out.pairs, out.allocation);
  return out;
}

}  // namespace cisp::net::flow
