#include "net/flow/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::net::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

namespace detail {

namespace {

/// FNV-1a over a 64-bit word stream.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
}

}  // namespace

std::uint64_t warm_incidence_key(const SimTopologyView& view,
                                 const std::vector<graphs::Path>& paths,
                                 const std::vector<double>& demand_bps,
                                 bool demand_gated) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, demand_gated ? 0xa1fa5u : 0x3a3);
  mix(h, view.latency_graph.node_count());
  mix(h, view.latency_graph.edge_count());
  mix(h, paths.size());
  for (std::size_t f = 0; f < paths.size(); ++f) {
    mix(h, paths[f].nodes.size());
    for (const graphs::NodeId n : paths[f].nodes) mix(h, n);
    mix(h, paths[f].edges.size());
    for (const graphs::EdgeId e : paths[f].edges) mix(h, e);
    if (demand_gated) mix(h, demand_bps[f] > 0.0 ? 1u : 0u);
  }
  return h;
}

void ensure_incidence(const SimTopologyView& view,
                      const std::vector<graphs::Path>& paths,
                      const std::vector<double>& demand_bps,
                      bool demand_gated, WarmState& state) {
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  const std::uint64_t key =
      warm_incidence_key(view, paths, demand_bps, demand_gated);
  if (state.has_incidence && state.incidence_key == key &&
      state.flow_edges.size() == flows && state.edge_flows.size() == edges) {
    ++state.incidence_reuses;
    return;
  }
  state.flow_edges.assign(flows, {});
  state.edge_flows.assign(edges, {});
  for (std::size_t f = 0; f < flows; ++f) {
    CISP_REQUIRE(!paths[f].empty(), "flow is unroutable");
    state.flow_edges[f] = path_edges(view.latency_graph, paths[f]);
    if (demand_gated && demand_bps[f] <= 0.0) continue;
    for (const graphs::EdgeId eid : state.flow_edges[f]) {
      state.edge_flows[eid].push_back(static_cast<std::uint32_t>(f));
    }
  }
  state.incidence_key = key;
  state.has_incidence = true;
}

}  // namespace detail

Allocation max_min_allocate(const SimTopologyView& view,
                            const std::vector<graphs::Path>& paths,
                            const std::vector<double>& demand_bps,
                            const AllocatorOptions& options) {
  CISP_REQUIRE(paths.size() == demand_bps.size(),
               "paths/demands size mismatch");
  const obs::TraceSpan span("flow.max_min", "allocator", "flows",
                            static_cast<double>(paths.size()));
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  CISP_REQUIRE(view.capacity_bps.size() == edges, "view arrays inconsistent");
  for (const double cap : view.capacity_bps) {
    CISP_REQUIRE(cap >= 0.0 && cap < kInf,
                 "edge capacity must be finite and non-negative (not NaN)");
  }
  for (const double demand : demand_bps) {
    CISP_REQUIRE(!std::isnan(demand), "flow demand must not be NaN");
  }

  // Per-flow edge sequences and the edge -> flows incidence (freeze
  // lists). With a warm state the build is skipped when the fingerprint
  // matches the previous solve; the fill below runs identically on the
  // cached structure, so warm results are byte-identical to cold ones.
  WarmState scratch;
  WarmState& state = options.warm != nullptr ? *options.warm : scratch;
  detail::ensure_incidence(view, paths, demand_bps, /*demand_gated=*/false,
                           state);
  const auto& flow_edges = state.flow_edges;
  const auto& edge_flows = state.edge_flows;

  Allocation out;
  out.rate_bps.assign(flows, 0.0);
  out.edge_load_bps.assign(edges, 0.0);
  out.bottleneck_edge.assign(flows, kNoBottleneck);

  // Active flows in ascending demand order; `next` is the first of them
  // that is still unfrozen.
  std::vector<char> active(flows, 0);
  std::vector<std::uint32_t> by_demand;
  std::vector<double> cap_rem = view.capacity_bps;
  std::vector<std::size_t> count(edges, 0);
  for (std::size_t f = 0; f < flows; ++f) {
    if (demand_bps[f] <= 0.0) continue;
    active[f] = 1;
    by_demand.push_back(static_cast<std::uint32_t>(f));
    for (const graphs::EdgeId eid : flow_edges[f]) ++count[eid];
  }
  std::stable_sort(by_demand.begin(), by_demand.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return demand_bps[a] < demand_bps[b];
                   });
  std::size_t next = 0;
  std::size_t active_flows = by_demand.size();

  // Edges some active flow still crosses, in index order.
  std::vector<std::uint32_t> live;
  for (std::size_t e = 0; e < edges; ++e) {
    if (count[e] > 0) live.push_back(static_cast<std::uint32_t>(e));
  }

  // Every active flow has been raised by every round's h, so its rate is
  // the running sum `level` (same additions, same order) and a frozen
  // flow's rate is the level at its freeze.
  double level = 0.0;
  const auto freeze = [&](std::uint32_t f, graphs::EdgeId edge) {
    active[f] = 0;
    --active_flows;
    out.rate_bps[f] = level;
    out.bottleneck_edge[f] = edge;
    for (const graphs::EdgeId eid : flow_edges[f]) --count[eid];
  };

  std::vector<std::uint32_t> saturated;
  while (active_flows > 0) {
    ++out.rounds;
    CISP_REQUIRE(out.rounds <= flows + edges + 1,
                 "progressive filling failed to converge");

    // The next event: an edge saturates or a flow reaches its demand.
    // Edges whose flows all froze leave the live list here. The smallest
    // remaining demand gives the smallest gap: rounded subtraction is
    // monotone.
    double h_edge = kInf;
    std::size_t kept = 0;
    for (const std::uint32_t e : live) {
      if (count[e] == 0) continue;
      live[kept++] = e;
      h_edge = std::min(h_edge, cap_rem[e] / static_cast<double>(count[e]));
    }
    live.resize(kept);
    while (!active[by_demand[next]]) ++next;
    const double h_demand = demand_bps[by_demand[next]] - level;
    const double h = std::max(0.0, std::min(h_edge, h_demand));
    CISP_REQUIRE(h < kInf, "active flow with no constraining edge or demand");

    // Raise the water level. Saturation slack is relative to each edge's
    // capacity so Gbps-scale links and unit-test-scale links both converge.
    // Every saturated edge is collected before any flow freezes: freezing
    // can empty a later saturated edge, which still counts as a
    // bottleneck this round.
    level += h;
    saturated.clear();
    for (const std::uint32_t e : live) {
      cap_rem[e] -= h * static_cast<double>(count[e]);
      if (cap_rem[e] <= view.capacity_bps[e] * 1e-9) saturated.push_back(e);
    }
    out.bottleneck_edges += saturated.size();

    // Freeze bottlenecked flows (each at its lowest-index saturated edge),
    // then demand-capped ones. Only flows with demand <= level * (1 + 1e-9)
    // can meet the exact test below, and they lead `by_demand` from `next`.
    const std::size_t before = active_flows;
    for (const std::uint32_t e : saturated) {
      for (const std::uint32_t f : edge_flows[e]) {
        if (active[f]) freeze(f, e);
      }
    }
    const double reach = level * (1.0 + 1e-9);
    for (std::size_t i = next; i < by_demand.size(); ++i) {
      const std::uint32_t f = by_demand[i];
      const double demand = demand_bps[f];
      if (demand > reach) break;
      if (active[f] && demand - level <= demand * 1e-12) {
        freeze(f, kNoBottleneck);
      }
    }
    CISP_REQUIRE(active_flows < before, "round froze no flow");
  }

  // Edge loads from the final rates: per-edge sums over incidence lists in
  // list order.
  for (std::size_t e = 0; e < edges; ++e) {
    double load = 0.0;
    for (const std::uint32_t f : edge_flows[e]) load += out.rate_bps[f];
    out.edge_load_bps[e] = load;
  }
  out.fill_rounds = out.rounds;
  static obs::Counter& round_counter = obs::counter("flow.max_min.rounds");
  round_counter.add(out.rounds);
  return out;
}

}  // namespace cisp::net::flow
