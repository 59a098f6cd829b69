#include "net/traffic_model.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "geo/latlon.hpp"
#include "net/flow/multipath.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::net {

const char* to_string(TrafficBackend backend) {
  switch (backend) {
    case TrafficBackend::Packet:
      return "packet";
    case TrafficBackend::Flow:
      return "flow";
    case TrafficBackend::Elastic:
      return "elastic";
  }
  return "unknown";
}

TrafficBackend parse_traffic_backend(std::string_view text) {
  if (text == "packet") return TrafficBackend::Packet;
  if (text == "flow") return TrafficBackend::Flow;
  if (text == "elastic") return TrafficBackend::Elastic;
  CISP_REQUIRE(false, "unknown traffic backend '" + std::string(text) +
                          "' (expected: packet, flow, elastic)");
  return TrafficBackend::Packet;  // unreachable
}

namespace {

/// Path propagation latency in seconds.
double path_latency_s(const SimTopologyView& view, const graphs::Path& path) {
  double latency = 0.0;
  for (const graphs::EdgeId eid : path_edges(view.latency_graph, path)) {
    latency += view.latency_graph.edge(eid).weight;
  }
  return latency;
}

class PacketTrafficModel final : public TrafficModel {
 public:
  PacketTrafficModel(const design::DesignInput& input,
                     const design::CapacityPlan& plan,
                     const BuildOptions& build)
      : input_(input), plan_(plan), build_(build) {}

  [[nodiscard]] TrafficBackend backend() const noexcept override {
    return TrafficBackend::Packet;
  }

  [[nodiscard]] TrafficReport run(const flow::DemandMatrix& demands,
                                  const TrafficRunOptions& options) override {
    CISP_REQUIRE(!options.routes && options.capacity_factor.empty(),
                 "route and capacity overrides are fluid-only");
    const obs::TraceSpan span("traffic.packet", "traffic", "flows",
                              static_cast<double>(demands.flow_count()));
    const LinkPlan plan =
        options.plan ? *options.plan : plan_links(input_, plan_, build_);
    SimInstance instance = build_sim_from_plan(plan);
    const auto demand_list = demands.to_demands();
    const RoutingResult routes = install_routes(
        *instance.network, instance.view, demand_list, options.scheme);
    const auto sources = attach_udp_workload(
        instance, demand_list, 0.0, options.sim_duration_s, options.seed);
    instance.sim->run_until(options.sim_duration_s + options.drain_s);
    const FlowMonitor& monitor = instance.monitor;

    TrafficReport report;
    report.stats.backend = TrafficBackend::Packet;
    report.stats.flows = demands.flow_count();
    report.stats.users = demands.total_users();
    report.stats.mean_delay_s = monitor.mean_delay_s();
    report.stats.loss_rate = monitor.loss_rate();
    report.stats.mean_path_latency_s = routes.mean_path_latency_s;
    report.stats.predicted_max_utilization = routes.max_link_utilization;

    // Per-pair breakdown from the measured flow stats: delivered rate via
    // the packet delivery ratio, latency measured when any packet arrived.
    const auto& flows = monitor.flows();
    double stretch_acc = 0.0;
    for (std::size_t f = 0; f < demands.pairs().size(); ++f) {
      const flow::PairDemand& pair = demands.pairs()[f];
      flow::PairOutcome row;
      row.src = pair.src;
      row.dst = pair.dst;
      row.users = pair.users;
      row.offered_bps = pair.rate_bps;
      row.latency_s = path_latency_s(instance.view, routes.paths[f]);
      const auto it = flows.find(static_cast<std::uint32_t>(f));
      if (it != flows.end() && it->second.sent_packets > 0) {
        row.delivered_bps =
            pair.rate_bps *
            static_cast<double>(it->second.received_packets) /
            static_cast<double>(it->second.sent_packets);
        if (it->second.received_packets > 0) {
          row.latency_s = it->second.delay_s.mean();
        }
      } else {
        // Below the one-packet emission threshold: attach_udp_workload
        // never simulated this pair, and the monitor's loss_rate excludes
        // it too. Count it delivered at propagation latency so tiny pairs
        // do not read as congestion loss.
        row.delivered_bps = pair.rate_bps;
      }
      const double direct_s =
          input_.geodesic_km(row.src, row.dst) / geo::kSpeedOfLightKmPerS;
      row.stretch = direct_s > 0.0 ? row.latency_s / direct_s : 1.0;
      report.stats.offered_bps += row.offered_bps;
      report.stats.delivered_bps += row.delivered_bps;
      stretch_acc += row.stretch * row.delivered_bps;
      report.stats.max_stretch =
          std::max(report.stats.max_stretch, row.stretch);
      report.pairs.push_back(row);
    }
    // mean_delay_s stays the monitor's per-packet mean (the historical
    // figure quantity); the pair-weighted mean is recoverable from the
    // breakdown.
    if (report.stats.delivered_bps > 0.0) {
      report.stats.mean_stretch = stretch_acc / report.stats.delivered_bps;
    }
    return report;
  }

 private:
  const design::DesignInput& input_;
  const design::CapacityPlan& plan_;
  BuildOptions build_;
};

/// Stale-route guard: a timeline re-submitting last epoch's routes
/// against this epoch's plan would otherwise walk out-of-range edge ids
/// straight into UB. Every path must be pinned over THIS run's graph:
/// edge ids in range, each edge connecting its consecutive nodes,
/// endpoints matching the demand pair.
void validate_one_override_path(const SimTopologyView& view,
                                const TrafficDemand& demand,
                                const graphs::Path& path) {
  const std::size_t nodes = view.latency_graph.node_count();
  const std::size_t edges = view.latency_graph.edge_count();
  CISP_REQUIRE(path.nodes.front() == demand.src &&
                   path.nodes.back() == demand.dst,
               "route override endpoints do not match the demand pair");
  for (const graphs::NodeId n : path.nodes) {
    CISP_REQUIRE(n < nodes,
                 "route override references a node outside the run's plan");
  }
  if (path.edges.empty()) return;  // unpinned: resolved per hop later
  CISP_REQUIRE(path.edges.size() + 1 == path.nodes.size(),
               "route override path has inconsistent edge pinning");
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    const graphs::EdgeId eid = path.edges[i];
    CISP_REQUIRE(eid < edges,
                 "route override references an edge outside the run's plan");
    const graphs::Edge& edge = view.latency_graph.edge(eid);
    CISP_REQUIRE(edge.from == path.nodes[i] && edge.to == path.nodes[i + 1],
                 "route override path is stale for the run's plan");
  }
}

/// The stale-route guard over a whole route set: one entry per pair,
/// every member path non-empty and pinned over THIS run's graph.
void validate_route_set(const SimTopologyView& view,
                        const std::vector<TrafficDemand>& demand_list,
                        const MultipathRouteSet& routes) {
  CISP_REQUIRE(routes.pair_paths.size() == demand_list.size(),
               "route set must cover every demand pair");
  for (std::size_t f = 0; f < routes.pair_paths.size(); ++f) {
    for (const WeightedPath& wp : routes.pair_paths[f]) {
      CISP_REQUIRE(!wp.path.empty(),
                   "route set entries must be non-empty paths");
      validate_one_override_path(view, demand_list[f], wp.path);
    }
  }
}

/// The fluid backends: max-min (Flow) and weighted alpha-fair (Elastic)
/// share everything — same plan, same route set, same realization; Flow
/// is the alpha = +infinity allocation.
class FluidTrafficModel final : public TrafficModel {
 public:
  FluidTrafficModel(TrafficBackend backend, const design::DesignInput& input,
                    const design::CapacityPlan& plan,
                    const BuildOptions& build)
      : backend_(backend), input_(input), plan_(plan), build_(build) {}

  [[nodiscard]] TrafficBackend backend() const noexcept override {
    return backend_;
  }

  [[nodiscard]] TrafficReport run(const flow::DemandMatrix& demands,
                                  const TrafficRunOptions& options) override {
    const obs::TraceSpan span(
        backend_ == TrafficBackend::Elastic ? "traffic.elastic"
                                            : "traffic.flow",
        "traffic", "flows", static_cast<double>(demands.flow_count()));
    TopologyView topo =
        options.plan ? view_from_plan(*options.plan)
                     : view_from_plan(plan_links(input_, plan_, build_));
    if (!options.capacity_factor.empty()) {
      // Weather derates: per-duplex-link factors scale the edge
      // capacities of the run's plan in place (latency is untouched).
      const std::vector<double>& factors = options.capacity_factor;
      CISP_REQUIRE(factors.size() * 2 == topo.view.capacity_bps.size(),
                   "capacity factors must cover every plan link");
      for (const double factor : factors) {
        CISP_REQUIRE(factor >= 0.0 && factor <= 1.0,
                     "capacity factor must be in [0, 1]");
      }
      for (std::size_t e = 0; e < topo.view.capacity_bps.size(); ++e) {
        topo.view.capacity_bps[e] *= factors[topo.view.edge_to_link[e] / 2];
      }
    }
    const auto demand_list = demands.to_demands();
    MultipathRouteSet routes =
        options.routes ? *options.routes
                       : single_path_routes(
                             compute_routes(topo.view, demand_list,
                                            options.scheme)
                                 .paths);
    validate_route_set(topo.view, demand_list, routes);

    // Offline predictions at offered load: every subflow at its full
    // offered rate (pair rate * weight), denied pairs carry nothing.
    TrafficReport report;
    {
      std::vector<double> load_bps(topo.view.capacity_bps.size(), 0.0);
      double latency_acc = 0.0;
      double rate_acc = 0.0;
      for (std::size_t f = 0; f < routes.pair_paths.size(); ++f) {
        for (const WeightedPath& wp : routes.pair_paths[f]) {
          const double rate = demand_list[f].rate_bps * wp.weight;
          double latency_s = 0.0;
          for (const graphs::EdgeId eid :
               path_edges(topo.view.latency_graph, wp.path)) {
            latency_s += topo.view.latency_graph.edge(eid).weight;
            load_bps[eid] += rate;
          }
          latency_acc += latency_s * rate;
          rate_acc += rate;
        }
      }
      report.stats.mean_path_latency_s =
          rate_acc > 0.0 ? latency_acc / rate_acc : 0.0;
      for (std::size_t e = 0; e < load_bps.size(); ++e) {
        if (topo.view.capacity_bps[e] <= 0.0) continue;
        report.stats.predicted_max_utilization =
            std::max(report.stats.predicted_max_utilization,
                     load_bps[e] / topo.view.capacity_bps[e]);
      }
    }

    flow::ElasticOptions elastic;
    elastic.alpha = backend_ == TrafficBackend::Elastic
                        ? options.alpha
                        : std::numeric_limits<double>::infinity();
    flow::Realization realized = flow::realize(
        topo.view, demands, std::move(routes), elastic,
        [this](std::uint32_t s, std::uint32_t t) {
          return input_.geodesic_km(s, t);
        });
    const flow::FlowLevelStats& stats = realized.stats;
    report.pairs = std::move(realized.pairs);
    report.stats.backend = backend_;
    report.stats.flows = stats.flows;
    report.stats.users = stats.users;
    report.stats.offered_bps = stats.offered_bps;
    report.stats.delivered_bps = stats.delivered_bps;
    report.stats.loss_rate = stats.loss_rate;
    report.stats.mean_delay_s = stats.mean_delay_s;
    report.stats.mean_stretch = stats.mean_stretch;
    report.stats.max_stretch = stats.max_stretch;
    report.stats.mean_link_utilization = stats.mean_link_utilization;
    report.stats.max_link_utilization = stats.max_link_utilization;
    report.stats.allocation_rounds = stats.allocation_rounds;
    return report;
  }

 private:
  TrafficBackend backend_;
  const design::DesignInput& input_;
  const design::CapacityPlan& plan_;
  BuildOptions build_;
};

}  // namespace

std::unique_ptr<TrafficModel> make_traffic_model(
    TrafficBackend backend, const design::DesignInput& input,
    const design::CapacityPlan& plan, const BuildOptions& build) {
  if (backend == TrafficBackend::Flow || backend == TrafficBackend::Elastic) {
    return std::make_unique<FluidTrafficModel>(backend, input, plan, build);
  }
  return std::make_unique<PacketTrafficModel>(input, plan, build);
}

}  // namespace cisp::net
