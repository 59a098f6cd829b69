#include "net/flow/alpha_fair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::net::flow {

namespace {

/// Prices below this are "effectively zero": the link is unpriced, its
/// capacity residual only matters when overloaded (complementary
/// slackness). Also the projection floor, so exponentiated steps always
/// have a positive price to scale.
constexpr double kPriceFloor = 1e-12;
constexpr double kPriceZero = 1e-9;
/// Relative-overload clamp per step: one exponentiated-gradient update
/// never moves a price by more than e^±2.
constexpr double kGradClamp = 2.0;
/// Base step size; decays as kStep0 / sqrt(iteration + 1).
constexpr double kStep0 = 1.0;

}  // namespace

Allocation alpha_fair_allocate(const SimTopologyView& view,
                               const std::vector<graphs::Path>& paths,
                               const std::vector<double>& demand_bps,
                               const std::vector<double>& weights,
                               const ElasticOptions& options) {
  CISP_REQUIRE(paths.size() == demand_bps.size(),
               "paths/demands size mismatch");
  CISP_REQUIRE(options.alpha > 0.0, "alpha must be positive");
  CISP_REQUIRE(weights.empty() || weights.size() == paths.size(),
               "weights must be empty or one per flow");
  CISP_REQUIRE(view.capacity_bps.size() == view.latency_graph.edge_count(),
               "view arrays inconsistent");
  // An infinite capacity would make every normalized capacity NaN below.
  for (const double cap : view.capacity_bps) {
    CISP_REQUIRE(std::isfinite(cap) && cap >= 0.0,
                 "edge capacity must be finite and non-negative (not NaN)");
  }

  // The max-min limit: dispatch to the exact progressive-filling allocator
  // (weights vanish in the limit — w^(1/alpha) -> 1).
  if (!std::isfinite(options.alpha) || options.alpha >= kMaxMinAlpha) {
    return max_min_allocate(view, paths, demand_bps, {.warm = options.warm});
  }

  const obs::TraceSpan span("flow.alpha_fair", "allocator", "flows",
                            static_cast<double>(paths.size()));
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();

  // Per-flow edge sequences and the edge -> flows incidence. The warm
  // state caches the structure across solves; the demand-gated key keeps
  // it distinct from the max-min flavor (which indexes ALL flows).
  WarmState scratch;
  WarmState& state = options.warm != nullptr ? *options.warm : scratch;
  detail::ensure_incidence(view, paths, demand_bps, /*demand_gated=*/true,
                           state);
  const auto& flow_edges = state.flow_edges;
  const auto& edge_flows = state.edge_flows;
  std::vector<std::size_t> count(edges, 0);
  for (std::size_t e = 0; e < edges; ++e) count[e] = edge_flows[e].size();

  // Normalize to O(1) numbers: capacities/demands in units of the largest
  // capacity, weights to mean 1 over active flows (pure conditioning — the
  // argmax is invariant under both scalings).
  double cap_scale = 0.0;
  for (std::size_t e = 0; e < edges; ++e) {
    if (count[e] > 0) cap_scale = std::max(cap_scale, view.capacity_bps[e]);
  }
  if (cap_scale <= 0.0) cap_scale = 1.0;

  std::vector<double> cap(edges, 0.0);
  for (std::size_t e = 0; e < edges; ++e) {
    cap[e] = view.capacity_bps[e] / cap_scale;
  }
  std::vector<double> demand(flows, 0.0);
  std::size_t active = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    demand[f] = std::max(0.0, demand_bps[f]) / cap_scale;
    if (demand[f] > 0.0) ++active;
  }

  std::vector<double> weight(flows, 1.0);
  if (!weights.empty() && active > 0) {
    double sum = 0.0;
    for (std::size_t f = 0; f < flows; ++f) {
      if (demand[f] <= 0.0) continue;
      CISP_REQUIRE(weights[f] > 0.0, "flow weights must be positive");
      sum += weights[f];
    }
    const double mean = sum / static_cast<double>(active);
    for (std::size_t f = 0; f < flows; ++f) weight[f] = weights[f] / mean;
  }

  Allocation out;
  out.rate_bps.assign(flows, 0.0);
  out.edge_load_bps.assign(edges, 0.0);
  if (active == 0) return out;

  const double inv_alpha = 1.0 / options.alpha;
  // Dual price seed: cold starts price every loaded link at 1.0; a warm
  // start reuses the previous solve's final prices (clamped back into the
  // projection range), which sit near the new optimum when the epoch's
  // capacities/demands moved only a little. The seed changes the iterate
  // path, never the stopping criterion.
  std::vector<double> price(edges, 0.0);
  const bool seed_warm = options.warm != nullptr && options.warm->has_price &&
                         options.warm->price.size() == edges;
  for (std::size_t e = 0; e < edges; ++e) {
    if (count[e] == 0) continue;
    if (seed_warm && std::isfinite(options.warm->price[e]) &&
        options.warm->price[e] > 0.0) {
      price[e] = std::clamp(options.warm->price[e], kPriceFloor, 1e12);
    } else {
      price[e] = 1.0;
    }
  }
  std::vector<double> rate(flows, 0.0);
  std::vector<double> load(edges, 0.0);
  std::vector<char> all_capped(edges, 0);

  // Dual ascent: rates from path prices, prices from relative overload.
  for (std::size_t t = 0;; ++t) {
    for (std::size_t f = 0; f < flows; ++f) {
      if (demand[f] <= 0.0) continue;
      double q = 0.0;
      for (const graphs::EdgeId eid : flow_edges[f]) q += price[eid];
      if (q <= 0.0) {
        rate[f] = demand[f];
        continue;
      }
      const double fair = options.alpha == 1.0
                              ? weight[f] / q
                              : std::pow(weight[f] / q, inv_alpha);
      rate[f] = std::min(demand[f], fair);
    }
    for (std::size_t e = 0; e < edges; ++e) {
      double sum = 0.0;
      bool capped = true;
      for (const std::uint32_t f : edge_flows[e]) {
        sum += rate[f];
        capped = capped && rate[f] >= demand[f];
      }
      load[e] = sum;
      all_capped[e] = capped ? 1 : 0;
    }

    double residual = -std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < edges; ++e) {
      double kkt = 0.0;
      if (count[e] > 0 && cap[e] > 0.0) {
        const double overload = (load[e] - cap[e]) / cap[e];
        if (overload > 0.0) {
          kkt = overload;
        } else if (price[e] > kPriceZero && !all_capped[e]) {
          // Underloaded: the KKT violation is the complementary-slackness
          // gap price * slack, which vanishes as the price decays — NOT
          // the raw slack, which would stall convergence on links whose
          // flows all sit at their demand caps (those links get unpriced
          // in one step below, so their gap is already zero).
          kkt = price[e] * -overload;
        }
      }
      residual = std::max(residual, kkt);
    }
    ++out.rounds;
    ++out.dual_iterations;
    obs::trace_counter("alpha_fair.kkt_residual", residual);
    if (residual < options.tolerance || t + 1 >= options.max_iterations) {
      break;
    }

    const double step = kStep0 / std::sqrt(static_cast<double>(t) + 1.0);
    for (std::size_t e = 0; e < edges; ++e) {
      if (count[e] == 0 || cap[e] <= 0.0) continue;
      const double raw = (load[e] - cap[e]) / cap[e];
      if (raw <= 0.0 && all_capped[e]) {
        // Headroom and every crossing flow demand-capped: the KKT price
        // is exactly zero, and dropping it cannot move any rate (a price
        // cut only raises fair shares, which the caps absorb) — jump
        // instead of decaying over thousands of iterations.
        price[e] = kPriceFloor;
        continue;
      }
      const double overload = std::clamp(raw, -kGradClamp, kGradClamp);
      price[e] = std::max(kPriceFloor, price[e] * std::exp(step * overload));
    }
  }

  if (options.warm != nullptr) {
    options.warm->price = price;
    options.warm->has_price = true;
  }

  // Feasibility repair: a not-fully-converged dual iterate can overshoot a
  // capacity slightly; scale every flow by its worst residual overload so
  // the allocation is strictly feasible.
  for (std::size_t f = 0; f < flows; ++f) {
    if (demand[f] <= 0.0) continue;
    double scale = 1.0;
    for (const graphs::EdgeId eid : flow_edges[f]) {
      if (load[eid] > cap[eid]) {
        scale = std::min(scale, cap[eid] / load[eid]);
      }
    }
    rate[f] *= scale;
  }
  for (std::size_t e = 0; e < edges; ++e) {
    double sum = 0.0;
    for (const std::uint32_t f : edge_flows[e]) sum += rate[f];
    load[e] = sum;
  }

  // Pareto fill: hand the leftover capacity out max-min fairly against the
  // unmet demand, so no flow is left below its demand while every one of
  // its links has headroom (uncongested flows get their demand EXACTLY).
  SimTopologyView residual_view;
  residual_view.latency_graph = view.latency_graph;
  residual_view.edge_to_link = view.edge_to_link;
  residual_view.capacity_bps.assign(edges, 0.0);
  for (std::size_t e = 0; e < edges; ++e) {
    residual_view.capacity_bps[e] = std::max(0.0, cap[e] - load[e]);
  }
  std::vector<double> residual_demand(flows, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    residual_demand[f] = std::max(0.0, demand[f] - rate[f]);
  }
  // The fill runs cold on purpose: it would need the max-min-flavor
  // incidence (all flows, not demand-gated), and sharing `state` would
  // evict the alpha-fair structure cached above every epoch.
  const Allocation fill =
      max_min_allocate(residual_view, paths, residual_demand);
  out.rounds += fill.rounds;
  out.fill_rounds = fill.rounds;

  static obs::Counter& dual_iters = obs::counter("alpha_fair.iterations");
  static obs::Counter& repair_rounds = obs::counter("alpha_fair.fill_rounds");
  dual_iters.add(out.dual_iterations);
  repair_rounds.add(out.fill_rounds);

  for (std::size_t f = 0; f < flows; ++f) {
    out.rate_bps[f] = (rate[f] + fill.rate_bps[f]) * cap_scale;
  }
  for (std::size_t e = 0; e < edges; ++e) {
    double sum = 0.0;
    for (const std::uint32_t f : edge_flows[e]) sum += out.rate_bps[f];
    out.edge_load_bps[e] = sum;
  }
  for (std::size_t e = 0; e < edges; ++e) {
    if (count[e] > 0 &&
        out.edge_load_bps[e] >= view.capacity_bps[e] * (1.0 - 1e-9)) {
      ++out.bottleneck_edges;
    }
  }
  return out;
}

}  // namespace cisp::net::flow
