// Tests for the weighted alpha-fair allocator: proportional-fairness
// shares against closed forms (2-link triangle, weighted bottleneck), the
// alpha -> infinity limit against the hand-verified max-min fixtures
// (single bottleneck, parking lot) both as a numeric limit and as the
// exact dispatch, demand caps / work conservation, and a golden checksum
// of a 600-flow weighted instance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "net/flow/alpha_fair.hpp"
#include "net/flow/max_min.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

/// A chain 0 - 1 - ... - n-1 of duplex links with per-link capacities and
/// 1 ms propagation per hop (the flow_test fixture).
SimTopologyView chain_view(const std::vector<double>& caps_bps) {
  SimTopologyView view;
  view.latency_graph = graphs::Graph(caps_bps.size() + 1);
  for (std::size_t i = 0; i < caps_bps.size(); ++i) {
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(i),
                                static_cast<graphs::NodeId>(i + 1), 0.001);
    view.edge_to_link.push_back(2 * i);
    view.capacity_bps.push_back(caps_bps[i]);
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(i + 1),
                                static_cast<graphs::NodeId>(i), 0.001);
    view.edge_to_link.push_back(2 * i + 1);
    view.capacity_bps.push_back(caps_bps[i]);
  }
  return view;
}

flow::Allocation elastic(const SimTopologyView& view,
                         const std::vector<TrafficDemand>& demands,
                         const flow::ElasticOptions& options = {},
                         const std::vector<double>& weights = {}) {
  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);
  return flow::alpha_fair_allocate(view, routes.paths, rates, weights,
                                   options);
}

// ---------------------------------------------------------------------------
// Proportional fairness (alpha = 1) closed forms
// ---------------------------------------------------------------------------

TEST(AlphaFair, TriangleMatchesClosedForm) {
  // Two links of capacity c; flows: the 1-hop 0->1 and 1->2, plus the
  // 2-hop 0->2. PF maximizes log x1 + log x2 + log x3 subject to
  // x1 + x3 <= c, x2 + x3 <= c: the classic x3 = c/3, x1 = x2 = 2c/3
  // (the 2-hop flow pays for two resources).
  const double c = 9e9;
  const auto view = chain_view({c, c});
  const std::vector<TrafficDemand> demands = {
      {0, 1, 100e9}, {1, 2, 100e9}, {0, 2, 100e9}};
  const auto allocation = elastic(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 2.0 * c / 3.0, 0.01 * c);
  EXPECT_NEAR(allocation.rate_bps[1], 2.0 * c / 3.0, 0.01 * c);
  EXPECT_NEAR(allocation.rate_bps[2], c / 3.0, 0.01 * c);
  // Both links end up saturated.
  EXPECT_NEAR(allocation.edge_load_bps[0], c, 0.01 * c);
  EXPECT_NEAR(allocation.edge_load_bps[2], c, 0.01 * c);
}

TEST(AlphaFair, WeightedBottleneckSharesProportionally) {
  // One link, two flows with weights 2 : 1 — weighted PF splits the
  // capacity in weight proportion.
  const double c = 9e9;
  const auto view = chain_view({c});
  const std::vector<TrafficDemand> demands = {{0, 1, 100e9}, {0, 1, 100e9}};
  const auto allocation = elastic(view, demands, {}, {2.0, 1.0});
  EXPECT_NEAR(allocation.rate_bps[0], 2.0 * c / 3.0, 0.01 * c);
  EXPECT_NEAR(allocation.rate_bps[1], c / 3.0, 0.01 * c);
}

TEST(AlphaFair, UncongestedFlowsGetTheirDemandExactly) {
  // Demands far below capacity: the Pareto fill must hand every flow its
  // full demand, not an approximation.
  const auto view = chain_view({10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 2, 1e9}, {0, 1, 2e9}, {1, 2, 3e9}};
  const auto allocation = elastic(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 1e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 3e9, 1.0);
}

TEST(AlphaFair, RespectsDemandCapsAndFillsHeadroom) {
  // Parking lot with a demand-capped short flow: the cap binds (2 Gbps),
  // and the freed capacity goes to the flows sharing its link.
  const auto view = chain_view({10e9, 10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 100e9}, {0, 1, 2e9}, {1, 2, 100e9}, {2, 3, 100e9}};
  const auto allocation = elastic(view, demands);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1e6);
  // Work conservation: every link is either saturated or all its flows
  // are demand-capped; here links 2 and 3 must be full.
  EXPECT_NEAR(allocation.edge_load_bps[2], 10e9, 0.02 * 10e9);
  EXPECT_NEAR(allocation.edge_load_bps[4], 10e9, 0.02 * 10e9);
  // No link oversubscribed (strict feasibility).
  for (std::size_t e = 0; e < view.capacity_bps.size(); ++e) {
    EXPECT_LE(allocation.edge_load_bps[e],
              view.capacity_bps[e] * (1.0 + 1e-9));
  }
}

TEST(AlphaFair, UncongestedInstanceConvergesInOneDualIteration) {
  // With every demand far below capacity the first dual iteration already
  // sees all flows demand-capped and a zero KKT residual, so the solver
  // must terminate after exactly one iteration. Pinned: a change that
  // silently burns extra iterations on the easy case should fail loudly.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  const auto view = chain_view({10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 2, 1e9}, {0, 1, 2e9}, {1, 2, 3e9}};
  const auto allocation = elastic(view, demands);
  obs::set_metrics_enabled(false);

  EXPECT_EQ(allocation.dual_iterations, 1u);
  // Every flow got its full demand in the dual phase, so the max-min
  // repair fill has nothing to do.
  EXPECT_EQ(allocation.fill_rounds, 0u);
  // `rounds` keeps its historical summed meaning; the new fields break
  // out the parts.
  EXPECT_EQ(allocation.rounds,
            allocation.dual_iterations + allocation.fill_rounds);
  // The obs counters mirror the per-call fields.
  EXPECT_EQ(obs::counter("alpha_fair.iterations").value(),
            allocation.dual_iterations);
  EXPECT_EQ(obs::counter("alpha_fair.fill_rounds").value(),
            allocation.fill_rounds);
  obs::reset_metrics();
}

// ---------------------------------------------------------------------------
// The alpha -> infinity limit
// ---------------------------------------------------------------------------

TEST(AlphaFair, LargeAlphaApproachesMaxMinOnParkingLot) {
  // 3-link parking lot, all demands unbounded: closed form gives the long
  // flow c / (3^(1/alpha) + 1) -> c/2 as alpha grows. At alpha = 16 the
  // gap to max-min is ~3.5%; check convergence against the max-min
  // allocator within 5%.
  const double c = 10e9;
  const auto view = chain_view({c, c, c});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 100e9}, {0, 1, 100e9}, {1, 2, 100e9}, {2, 3, 100e9}};

  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);
  const auto max_min = flow::max_min_allocate(view, routes.paths, rates);

  flow::ElasticOptions options;
  options.alpha = 16.0;
  const auto allocation =
      flow::alpha_fair_allocate(view, routes.paths, rates, {}, options);
  for (std::size_t f = 0; f < rates.size(); ++f) {
    EXPECT_NEAR(allocation.rate_bps[f], max_min.rate_bps[f],
                0.05 * max_min.rate_bps[f])
        << "flow " << f;
  }
  // And the closed form itself.
  const double expected_long = c / (std::pow(3.0, 1.0 / 16.0) + 1.0);
  EXPECT_NEAR(allocation.rate_bps[0], expected_long, 0.02 * expected_long);

  // Monotonicity in alpha: a larger alpha moves the long flow closer to
  // the max-min share.
  options.alpha = 4.0;
  const auto coarser =
      flow::alpha_fair_allocate(view, routes.paths, rates, {}, options);
  EXPECT_LT(coarser.rate_bps[0], allocation.rate_bps[0]);
}

TEST(AlphaFair, InfiniteAlphaDispatchesToMaxMinExactly) {
  // Both the single-bottleneck and demand-capped parking-lot fixtures:
  // alpha = inf (and any alpha >= kMaxMinAlpha) must return the max-min
  // allocation BYTE-identically, not approximately.
  const std::vector<std::vector<TrafficDemand>> fixtures = {
      {{0, 1, 10e9}, {0, 1, 10e9}, {0, 1, 10e9}},
      {{0, 3, 10e9}, {0, 1, 2e9}, {1, 2, 10e9}, {2, 3, 10e9}},
  };
  const std::vector<SimTopologyView> views = {
      chain_view({9e9}), chain_view({10e9, 10e9, 10e9})};
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const RoutingResult routes =
        compute_routes(views[i], fixtures[i], RoutingScheme::ShortestPath);
    std::vector<double> rates;
    for (const auto& d : fixtures[i]) rates.push_back(d.rate_bps);
    const auto max_min = flow::max_min_allocate(views[i], routes.paths, rates);
    for (const double alpha :
         {std::numeric_limits<double>::infinity(), flow::kMaxMinAlpha}) {
      flow::ElasticOptions options;
      options.alpha = alpha;
      const auto allocation = flow::alpha_fair_allocate(
          views[i], routes.paths, rates, {}, options);
      ASSERT_EQ(allocation.rate_bps.size(), max_min.rate_bps.size());
      EXPECT_EQ(std::memcmp(allocation.rate_bps.data(),
                            max_min.rate_bps.data(),
                            max_min.rate_bps.size() * sizeof(double)),
                0)
          << "fixture " << i << " alpha " << alpha;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of an allocation's rates, edge loads and rounds.
std::uint64_t checksum(const flow::Allocation& allocation) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_bytes = [&](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix_bytes(allocation.rate_bps.data(),
            allocation.rate_bps.size() * sizeof(double));
  mix_bytes(allocation.edge_load_bps.data(),
            allocation.edge_load_bps.size() * sizeof(double));
  const std::uint64_t rounds = allocation.rounds;
  mix_bytes(&rounds, sizeof(rounds));
  return h;
}

/// checksum() of the weighted 600-flow seed-404 instance below, computed
/// with the sharded allocator this serial one replaced (equal at every
/// thread count).
constexpr std::uint64_t kGoldenChecksum600 = 0xe94d5db912ffbee8ULL;

TEST(AlphaFair, SixHundredFlowInstanceMatchesGolden) {
  // The same random instance as the max-min oracle test, with per-flow
  // utility weights.
  const std::size_t n = 24;
  SimTopologyView view;
  view.latency_graph = graphs::Graph(n);
  Rng rng(404);
  const auto add_duplex = [&](std::size_t a, std::size_t b, double cap) {
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(a),
                                static_cast<graphs::NodeId>(b),
                                rng.uniform(0.001, 0.005));
    view.edge_to_link.push_back(view.edge_to_link.size());
    view.capacity_bps.push_back(cap);
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(b),
                                static_cast<graphs::NodeId>(a),
                                rng.uniform(0.001, 0.005));
    view.edge_to_link.push_back(view.edge_to_link.size());
    view.capacity_bps.push_back(cap);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    add_duplex(i, i + 1, rng.uniform(1e9, 5e9));
  }
  for (int chord = 0; chord < 20; ++chord) {
    const std::size_t a = rng.uniform_index(n);
    const std::size_t b = rng.uniform_index(n);
    if (a != b) add_duplex(a, b, rng.uniform(1e9, 5e9));
  }
  std::vector<TrafficDemand> demands;
  std::vector<double> weights;
  for (int f = 0; f < 600; ++f) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (a == b) continue;
    demands.push_back({a, b, rng.uniform(1e7, 5e8)});
    weights.push_back(rng.uniform(0.5, 4.0));
  }

  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);

  const auto allocation =
      flow::alpha_fair_allocate(view, routes.paths, rates, weights);
  EXPECT_GT(allocation.rounds, 1u);
  // Per-flow bottleneck edges are a max-min explanation only.
  EXPECT_TRUE(allocation.bottleneck_edge.empty());
  EXPECT_EQ(checksum(allocation), kGoldenChecksum600);
}

TEST(AlphaFair, RejectsNanNegativeOrInfiniteCapacityAtEveryAlpha) {
  // +inf would turn every normalized capacity into NaN; the max-min
  // dispatch (alpha = +inf) rejects the same inputs.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double alpha : {1.0, inf}) {
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), -1.0, inf}) {
      auto view = chain_view({10e9, 10e9});
      view.capacity_bps[3] = bad;  // an edge no flow crosses still counts
      flow::ElasticOptions options;
      options.alpha = alpha;
      EXPECT_THROW((void)elastic(view, {{0, 1, 1e9}}, options), cisp::Error)
          << "alpha=" << alpha << " capacity=" << bad;
    }
  }
}

TEST(AlphaFair, ZeroDemandFlowsStayAtZero) {
  const auto view = chain_view({10e9});
  const std::vector<TrafficDemand> demands = {{0, 1, 0.0}, {0, 1, 5e9}};
  const auto allocation = elastic(view, demands);
  EXPECT_DOUBLE_EQ(allocation.rate_bps[0], 0.0);
  EXPECT_NEAR(allocation.rate_bps[1], 5e9, 1.0);
}

}  // namespace
}  // namespace cisp::net
