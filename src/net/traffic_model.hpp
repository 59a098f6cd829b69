#pragma once
// The TrafficModel seam (§5): one interface over two ways of realizing a
// demand matrix on a designed cISP.
//
//   Packet backend — the discrete-event simulator: UDP CBR sources, real
//   queues, measured delay/loss. Fidelity reference; cost grows with the
//   packet count, capping instances at thousands of endpoints. One run is
//   one serial simulator; parallelism belongs to the sweep across cells.
//
//   Flow backend — fluid max-min fair rate allocation over the same
//   topology and routes (src/net/flow/): no per-packet state, so
//   millions of aggregated users fit in memory. Latency is analytic path
//   propagation; loss is the unserved demand fraction.
//
//   Elastic backend — fluid weighted alpha-fair allocation (TCP-like:
//   alpha = 1 is the proportional fairness congestion control
//   approximates; alpha -> infinity recovers max-min exactly). Each
//   aggregated pair is weighted by its user count, so fairness is
//   per-user rather than per-pair.
//
// All backends load the SAME DemandMatrix over the SAME LinkPlan and
// routing scheme, which is the fidelity contract the flow tests pin down:
// on instances small enough for packets, the backends agree on mean
// delay/stretch within a documented tolerance (queueing + serialization
// below saturation are the residual). Scenarios that degrade the
// substrate (failure models) hand a mutated LinkPlan through
// TrafficRunOptions::plan and every backend builds from it.
//
// The fluid backends take one route value: a MultipathRouteSet. Scheme
// routes, repaired single paths and TE splits all become one, and one
// realization (flow::realize) allocates it — max-min is alpha-fair at
// alpha = +infinity, which the allocator dispatches to exactly.

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/builder.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/flow/monitors.hpp"

namespace cisp::net {

enum class TrafficBackend {
  Packet,
  Flow,
  Elastic,
};

[[nodiscard]] const char* to_string(TrafficBackend backend);
/// Parses "packet" / "flow" / "elastic"; throws cisp::Error on anything
/// else.
[[nodiscard]] TrafficBackend parse_traffic_backend(std::string_view text);

/// Knobs for one traffic evaluation through the seam. Every override is
/// held by value, so options can be copied, stored and reused freely.
struct TrafficRunOptions {
  /// Routing when `routes` is unset.
  RoutingScheme scheme = RoutingScheme::ShortestPath;
  /// Packet backend: sources emit over [0, sim_duration_s], then the
  /// simulator drains in-flight packets for drain_s more.
  double sim_duration_s = 0.3;
  double drain_s = 0.2;
  std::uint64_t seed = 0;
  /// Read by no backend: every backend runs serially, and sweeps run
  /// their cells in parallel instead. Kept for the perfbench harness,
  /// which still assigns it.
  std::size_t threads = 1;
  /// Elastic backend: fairness exponent (1 = proportional fairness;
  /// >= flow::kMaxMinAlpha or infinity recovers max-min exactly). The
  /// Flow backend is the alpha = +infinity case and ignores this.
  double alpha = 1.0;
  /// Substrate override: when set, every backend builds from this plan
  /// instead of planning from (input, capacity plan) — the failure models
  /// hand in a plan with links already cut.
  std::optional<LinkPlan> plan;
  /// Route override (fluid backends only): one WEIGHTED path set per
  /// demand-matrix pair, graph-edge-pinned over the run's plan. TE splits
  /// (te::solve_splits) come as is; single paths (repaired routes, racing
  /// winners) come through net::single_path_routes. Pairs expand into
  /// per-path subflows (rate * weight offered each; elastic utility
  /// weights scale by the split so per-user fairness is split-invariant)
  /// and results fold back to pair grain. An EMPTY set denies the pair:
  /// its demand is offered, never allocated, and delivers zero. When
  /// unset, `scheme` routes every pair. The packet backend rejects it.
  std::optional<MultipathRouteSet> routes;
  /// Per-duplex-link capacity derate factors in [0, 1] over the run's
  /// plan (control::RouteRepairer::capacity_factors(): weather-derated
  /// links < 1, downed links 0 — repaired routes already avoid the
  /// latter). Empty = no derate. Fluid backends only.
  std::vector<double> capacity_factor;
};

/// Backend-comparable summary of one run. Packet fills measured
/// delay/loss; flow fills their analytic equivalents. Stretch is always
/// latency over the direct geodesic latency at c.
struct TrafficStats {
  TrafficBackend backend = TrafficBackend::Packet;
  std::size_t flows = 0;
  std::uint64_t users = 0;
  double offered_bps = 0.0;
  double delivered_bps = 0.0;
  double loss_rate = 0.0;
  double mean_delay_s = 0.0;
  double mean_stretch = 0.0;
  double max_stretch = 0.0;
  /// Realized load/capacity over loaded edges (flow backend; zero for
  /// packet, which reports only the offered-load prediction below).
  double mean_link_utilization = 0.0;
  double max_link_utilization = 0.0;
  /// Offline routing predictions at offered load (both backends).
  double mean_path_latency_s = 0.0;
  double predicted_max_utilization = 0.0;
  /// Progressive-filling rounds (flow backend only).
  std::size_t allocation_rounds = 0;
};

/// Stats plus the per-city-pair breakdown (latency/stretch/served rate per
/// aggregated pair, in demand-matrix order).
struct TrafficReport {
  TrafficStats stats;
  std::vector<flow::PairOutcome> pairs;
};

/// One backend bound to a designed topology. The referenced input/plan
/// must outlive the model (experiments own both for the duration anyway).
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;
  [[nodiscard]] virtual TrafficBackend backend() const noexcept = 0;
  /// Realizes the demand matrix on the topology and reports what traffic
  /// experienced. Stateless across calls: every run rebuilds its
  /// substrate, so models are safe to reuse across sweep cells.
  [[nodiscard]] virtual TrafficReport run(
      const flow::DemandMatrix& demands,
      const TrafficRunOptions& options) = 0;
};

/// Factory over the backends. Construction is cheap; the substrate is
/// built per run.
[[nodiscard]] std::unique_ptr<TrafficModel> make_traffic_model(
    TrafficBackend backend, const design::DesignInput& input,
    const design::CapacityPlan& plan, const BuildOptions& build = {});

}  // namespace cisp::net
