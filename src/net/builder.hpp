#pragma once
// Builds traffic-model substrates from a designed cISP topology (§5):
// nodes are the routing sites; built MW links carry their provisioned
// aggregate capacity (parallel tower series aggregated, per the paper's
// simulation methodology); fiber is modeled as a high-capacity mesh.
// Capacities and demands can be scaled down together — utilization, the
// quantity the experiments sweep, is preserved.
//
// The build is split in two layers so both traffic backends share one
// topology definition (the TrafficModel seam, net/traffic_model.hpp):
//   plan_links()      -> LinkPlan: backend-neutral duplex-link list
//   view_from_plan()  -> SimTopologyView: the routable graph (flow backend
//                        stops here — no Network, no per-packet state)
//   build_sim()       -> SimInstance: the packet simulator wired up

#include <memory>

#include "design/capacity.hpp"
#include "design/problem.hpp"
#include "net/monitors.hpp"
#include "net/routing.hpp"
#include "net/udp.hpp"

namespace cisp::net {

struct BuildOptions {
  /// Multiplied into every capacity AND every demand: keeps utilization
  /// identical while cutting the packet count (default 1/10th scale).
  double rate_scale = 0.1;
  double series_unit_gbps = 1.0;
  /// Fiber links are effectively uncapped (the paper treats fiber
  /// bandwidth as plentiful).
  double fiber_gbps = 400.0;
  std::size_t mw_queue_packets = 200;
  std::size_t fiber_queue_packets = 20000;
  /// Fiber mesh degree: each site gets fiber links to this many nearest
  /// (by fiber distance) other sites, plus enough to stay connected. Keeps
  /// the simulated graph sparse while preserving fiber path latencies
  /// within a few percent.
  std::size_t fiber_neighbors = 6;
};

/// One duplex link of the planned substrate, before any backend commits to
/// a representation (packet Network link vs flow-level capacitated edge).
struct PlannedLink {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double rate_bps = 0.0;
  double latency_s = 0.0;
  std::size_t queue_packets = 0;
  bool is_mw = false;
};

/// The backend-neutral substrate: every duplex link the topology carries.
struct LinkPlan {
  std::size_t node_count = 0;
  std::vector<PlannedLink> links;
};

/// Expands the designed topology + capacity plan into the duplex-link list
/// both backends build from (MW links with k^2 capacity, fiber
/// nearest-neighbor mesh plus a connectivity chain).
[[nodiscard]] LinkPlan plan_links(const design::DesignInput& input,
                                  const design::CapacityPlan& plan,
                                  const BuildOptions& options = {});

/// The routable view of a planned substrate. `edge_to_link` is filled with
/// the link ids a Network built from the same plan would assign (duplex
/// link i becomes network links 2i and 2i+1), so the view is identical
/// whether or not a Network exists. `mw_edges` lists the graph edges that
/// are MW links (for per-technology stats).
struct TopologyView {
  SimTopologyView view;
  std::vector<std::size_t> mw_edges;
};

[[nodiscard]] TopologyView view_from_plan(const LinkPlan& plan);

/// A runnable packet simulation instance (owns simulator + network wiring).
struct SimInstance {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Network> network;
  SimTopologyView view;
  FlowMonitor monitor;
  /// Graph-edge indices that are MW links (for per-technology stats).
  std::vector<std::size_t> mw_edges;
};

/// Builds nodes/links from the designed topology + capacity plan.
[[nodiscard]] SimInstance build_sim(const design::DesignInput& input,
                                    const design::CapacityPlan& plan,
                                    const BuildOptions& options = {});

/// Wires the packet simulator directly from an explicit LinkPlan — the
/// entry point for scenarios that mutate the plan (failure models cutting
/// links) before any backend commits to a representation.
[[nodiscard]] SimInstance build_sim_from_plan(const LinkPlan& plan);

/// Expands a traffic matrix into per-ordered-pair demands totalling
/// `aggregate_gbps * rate_scale`.
[[nodiscard]] std::vector<TrafficDemand> demands_from_traffic(
    const std::vector<std::vector<double>>& traffic, double aggregate_gbps,
    double rate_scale);

/// Installs sinks on all nodes and attaches one UDP CBR source per demand
/// (flow id = demand index) running from `start` to `stop`. Phase seeds
/// are drawn from `seed` in demand order; demands too small to emit a
/// packet in the window get no source and draw nothing. Returns the
/// sources (kept alive by the caller for the run's duration).
[[nodiscard]] std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_workload(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    Time start, Time stop, std::uint64_t seed);

}  // namespace cisp::net
