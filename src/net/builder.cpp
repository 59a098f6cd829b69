#include "net/builder.hpp"

#include <algorithm>

#include "geo/latlon.hpp"
#include "net/flow/demand_matrix.hpp"
#include "util/error.hpp"

namespace cisp::net {

LinkPlan plan_links(const design::DesignInput& input,
                    const design::CapacityPlan& plan,
                    const BuildOptions& options) {
  CISP_REQUIRE(options.rate_scale > 0.0, "rate scale must be positive");
  const std::size_t n = input.site_count();

  LinkPlan out;
  out.node_count = n;

  // MW links: aggregated capacity = series^2 * unit (the k^2 rule).
  for (const auto& link : plan.links) {
    const double capacity_bps = static_cast<double>(link.series) *
                                static_cast<double>(link.series) *
                                options.series_unit_gbps * 1e9 *
                                options.rate_scale;
    const double latency_s =
        input.candidates()[link.candidate_index].mw_km /
        geo::kSpeedOfLightKmPerS;
    out.links.push_back({static_cast<std::uint32_t>(link.site_a),
                         static_cast<std::uint32_t>(link.site_b), capacity_bps,
                         latency_s, options.mw_queue_packets, true});
  }

  // Fiber mesh: nearest neighbors by fiber distance (plus a chain along
  // the nearest-neighbor order to guarantee connectivity).
  std::vector<std::vector<bool>> fiber_added(n, std::vector<bool>(n, false));
  const double fiber_bps = options.fiber_gbps * 1e9 * options.rate_scale;
  const auto add_fiber = [&](std::size_t a, std::size_t b) {
    if (a == b || fiber_added[a][b]) return;
    fiber_added[a][b] = fiber_added[b][a] = true;
    const double latency_s =
        input.fiber_effective_km(a, b) / geo::kSpeedOfLightKmPerS;
    out.links.push_back({static_cast<std::uint32_t>(a),
                         static_cast<std::uint32_t>(b), fiber_bps, latency_s,
                         options.fiber_queue_packets, false});
  };
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::size_t> order;
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a) order.push_back(b);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return input.fiber_effective_km(a, x) < input.fiber_effective_km(a, y);
    });
    const std::size_t neighbors =
        std::min(options.fiber_neighbors, order.size());
    for (std::size_t k = 0; k < neighbors; ++k) add_fiber(a, order[k]);
  }
  // Connectivity backstop: chain sites in index order.
  for (std::size_t a = 0; a + 1 < n; ++a) add_fiber(a, a + 1);

  return out;
}

TopologyView view_from_plan(const LinkPlan& plan) {
  TopologyView out;
  out.view.latency_graph = graphs::Graph(plan.node_count);
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const PlannedLink& link = plan.links[i];
    const std::size_t before = out.view.latency_graph.edge_count();
    out.view.latency_graph.add_edge(link.a, link.b, link.latency_s);
    out.view.edge_to_link.push_back(2 * i);
    out.view.capacity_bps.push_back(link.rate_bps);
    out.view.latency_graph.add_edge(link.b, link.a, link.latency_s);
    out.view.edge_to_link.push_back(2 * i + 1);
    out.view.capacity_bps.push_back(link.rate_bps);
    if (link.is_mw) {
      out.mw_edges.push_back(before);
      out.mw_edges.push_back(before + 1);
    }
  }
  return out;
}

SimInstance build_sim(const design::DesignInput& input,
                      const design::CapacityPlan& plan,
                      const BuildOptions& options) {
  return build_sim_from_plan(plan_links(input, plan, options));
}

SimInstance build_sim_from_plan(const LinkPlan& links) {
  SimInstance instance;
  instance.sim = std::make_unique<Simulator>();
  instance.network = std::make_unique<Network>(*instance.sim,
                                              links.node_count);
  for (const PlannedLink& link : links.links) {
    instance.network->add_duplex_link(link.a, link.b, link.rate_bps,
                                      link.latency_s, link.queue_packets);
  }
  TopologyView topo = view_from_plan(links);
  instance.view = std::move(topo.view);
  instance.mw_edges = std::move(topo.mw_edges);
  return instance;
}

std::vector<TrafficDemand> demands_from_traffic(
    const std::vector<std::vector<double>>& traffic, double aggregate_gbps,
    double rate_scale) {
  return flow::DemandMatrix::from_traffic(traffic, aggregate_gbps, rate_scale)
      .to_demands();
}

std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_workload(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    Time start, Time stop, std::uint64_t seed) {
  for (std::size_t node = 0; node < instance.network->node_count(); ++node) {
    install_udp_sink(*instance.network, static_cast<std::uint32_t>(node),
                     instance.monitor);
  }
  std::vector<std::unique_ptr<UdpCbrSource>> sources;
  Rng rng(seed);
  for (std::size_t d = 0; d < demands.size(); ++d) {
    const TrafficDemand& demand = demands[d];
    // Skip demands so small they would not emit a packet in the window.
    const double window_bytes =
        demand.rate_bps / 8.0 * std::max(0.0, stop - start);
    if (window_bytes < kUdpPacketBytes) continue;
    sources.push_back(std::make_unique<UdpCbrSource>(
        *instance.network, instance.monitor, static_cast<std::uint32_t>(d),
        demand.src, demand.dst, demand.rate_bps));
    sources.back()->start(start, stop, rng());
  }
  return sources;
}

}  // namespace cisp::net
