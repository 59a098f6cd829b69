// Integration tests for the full Step 1 -> 2 -> 3 pipeline on a fast
// (coarse) US scenario: hop feasibility, link engineering, topology design,
// capacity planning and the cost model, end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "design/cost_model.hpp"
#include "design/greedy.hpp"
#include "design/scenario.hpp"
#include "geo/geodesic.hpp"
#include "util/stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::design {
namespace {

/// One coarse scenario shared by all tests in this file (expensive build).
const Scenario& fast_us() {
  static const Scenario scenario = [] {
    ScenarioOptions options;
    options.fast = true;
    options.top_cities = 60;
    return build_us_scenario(options);
  }();
  return scenario;
}

TEST(Pipeline, ScenarioBasics) {
  const Scenario& s = fast_us();
  EXPECT_EQ(s.name, "us");
  EXPECT_GE(s.centers.size(), 30u);
  EXPECT_GT(s.tower_graph.towers.size(), 800u);
  EXPECT_GT(s.tower_graph.feasible_hops, s.tower_graph.towers.size() / 2);
}

/// Golden checksum of the fast-US tower graph: every tower's position and
/// height, then every edge's endpoints and weight, bit for bit. It pins the
/// synthetic terrain (tower hilltop siting), the raster and the sampled hop
/// profiles; computed with the per-ridge terrain loop and per-point slerp
/// that the reach skip and the per-path slerp basis replaced.
constexpr std::uint64_t kGoldenTowerGraph = 0xe3db27c876f79912ULL;

TEST(Pipeline, TowerGraphMatchesTheGoldenChecksum) {
  const TowerGraph& tg = fast_us().tower_graph;
  std::uint64_t h = 0x70776572;
  for (const auto& t : tg.towers) {
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.pos.lat_deg));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.pos.lon_deg));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.height_m));
  }
  for (const auto& e : tg.graph.edges()) {
    h = hash_combine(h, e.from);
    h = hash_combine(h, e.to);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(e.weight));
  }
  EXPECT_EQ(tg.towers.size(), 7131u);
  EXPECT_EQ(tg.feasible_hops, 69630u);
  EXPECT_EQ(h, kGoldenTowerGraph);
}

TEST(Pipeline, HopsRespectRangeAndAreSymmetric) {
  const auto& g = fast_us().tower_graph.graph;
  const auto& towers = fast_us().tower_graph.towers;
  for (std::size_t e = 0; e < std::min<std::size_t>(g.edge_count(), 5000); ++e) {
    const auto& edge = g.edge(static_cast<graphs::EdgeId>(e));
    EXPECT_LE(edge.weight, fast_us().options.hop.max_range_km + 1e-9);
    EXPECT_NEAR(edge.weight,
                geo::distance_km(towers[edge.from].pos, towers[edge.to].pos),
                1e-9);
  }
  // Both arcs present (add_undirected invariant: consecutive ids).
  for (std::size_t e = 0; e + 1 < std::min<std::size_t>(g.edge_count(), 2000);
       e += 2) {
    const auto& fwd = g.edge(static_cast<graphs::EdgeId>(e));
    const auto& rev = g.edge(static_cast<graphs::EdgeId>(e + 1));
    EXPECT_EQ(fwd.from, rev.to);
    EXPECT_EQ(fwd.to, rev.from);
  }
}

TEST(Pipeline, CityCityProblemShape) {
  const SiteProblem problem = city_city_problem(fast_us(), 800.0, 25);
  EXPECT_EQ(problem.sites.size(), 25u);
  EXPECT_EQ(problem.links.size(), 25u * 24u / 2u);
  // Most site pairs should have a feasible MW route on the tower graph.
  std::size_t feasible = 0;
  for (const auto& l : problem.links) feasible += l.feasible;
  EXPECT_GT(feasible, problem.links.size() / 2);
  // Engineered MW paths are longer than the geodesic but (statistically)
  // not wildly so. The coarse fast-mode registry leaves a few circuitous
  // outliers across the Rockies; the full registry is much tighter (the
  // Fig. 3 bench validates ~1.05x there).
  Samples ratio;
  for (const auto& l : problem.links) {
    if (!l.feasible) continue;
    const double geodesic =
        geo::distance_km(problem.sites[l.site_a], problem.sites[l.site_b]);
    EXPECT_GE(l.mw_km, geodesic - 1e-6);
    ratio.add(l.mw_km / geodesic);
  }
  EXPECT_LT(ratio.median(), 1.5);
  EXPECT_LT(ratio.percentile(90), 2.6);
}

TEST(Pipeline, GreedyDesignReducesStretchWithinBudget) {
  const SiteProblem problem = city_city_problem(fast_us(), 600.0, 25);
  const Topology fiber_only = StretchEvaluator::evaluate(problem.input, {});
  const Topology designed = solve_greedy(problem.input);
  EXPECT_LE(designed.cost_towers, 600.0 + 1e-9);
  EXPECT_LT(designed.mean_stretch, fiber_only.mean_stretch - 0.1);
  // Fiber-only stretch should be near the paper's ~1.9x.
  EXPECT_GT(fiber_only.mean_stretch, 1.6);
  EXPECT_LT(fiber_only.mean_stretch, 2.25);
}

TEST(Pipeline, MoreBudgetNeverHurts) {
  const Scenario& s = fast_us();
  double previous = 1e9;
  for (const double budget : {100.0, 300.0, 600.0, 1200.0}) {
    const SiteProblem problem = city_city_problem(s, budget, 20);
    const Topology t = solve_greedy(problem.input);
    EXPECT_LE(t.mean_stretch, previous + 1e-6) << "budget " << budget;
    previous = t.mean_stretch;
  }
}

TEST(Pipeline, CapacityPlanAccountsDemandAndTowers) {
  const SiteProblem problem = city_city_problem(fast_us(), 600.0, 25);
  const Topology topo = solve_greedy(problem.input);
  ASSERT_FALSE(topo.links.empty());
  CapacityParams params;
  params.aggregate_gbps = 100.0;
  const CapacityPlan plan = plan_capacity(
      problem.input, topo, problem.links, fast_us().tower_graph.towers, params);
  EXPECT_EQ(plan.links.size(), topo.links.size());
  double mw_demand = 0.0;
  for (const auto& l : plan.links) {
    EXPECT_GE(l.series, 1);
    // k series must cover the demand with the k^2 rule.
    EXPECT_GE(static_cast<double>(l.series) * l.series + 1e-9,
              l.demand_gbps / params.series_unit_gbps);
    mw_demand = std::max(mw_demand, l.demand_gbps);
  }
  EXPECT_GT(plan.routed_on_mw_gbps, 0.0);
  EXPECT_LE(plan.routed_on_mw_gbps, params.aggregate_gbps + 1e-6);
  EXPECT_GT(plan.base_hops, 0u);
  EXPECT_GE(plan.installed_hop_series, plan.base_hops);
  // Hop categories partition the hops.
  std::size_t hop_total = 0;
  for (const auto& [extra, count] : plan.hops_by_extra) hop_total += count;
  EXPECT_EQ(hop_total, plan.base_hops);
}

TEST(Pipeline, HigherAggregateNeedsMoreTowers) {
  const SiteProblem problem = city_city_problem(fast_us(), 600.0, 25);
  const Topology topo = solve_greedy(problem.input);
  CapacityParams low;
  low.aggregate_gbps = 20.0;
  CapacityParams high;
  high.aggregate_gbps = 500.0;
  const auto plan_low = plan_capacity(problem.input, topo, problem.links,
                                      fast_us().tower_graph.towers, low);
  const auto plan_high = plan_capacity(problem.input, topo, problem.links,
                                       fast_us().tower_graph.towers, high);
  EXPECT_GE(plan_high.installed_hop_series, plan_low.installed_hop_series);
  EXPECT_GE(plan_high.new_towers, plan_low.new_towers);
}

TEST(Pipeline, CostModelScalesAndAmortizes) {
  const SiteProblem problem = city_city_problem(fast_us(), 600.0, 25);
  const Topology topo = solve_greedy(problem.input);
  CapacityParams params;
  params.aggregate_gbps = 100.0;
  const auto plan = plan_capacity(problem.input, topo, problem.links,
                                  fast_us().tower_graph.towers, params);
  const CostBreakdown cost = cost_of(plan);
  EXPECT_GT(cost.total_usd, 0.0);
  EXPECT_NEAR(cost.total_usd,
              cost.install_usd + cost.new_tower_usd + cost.rent_usd, 1e-6);
  // 100 Gbps over 5 years is ~1.97e9 GB.
  EXPECT_NEAR(cost.carried_gb, 1.971e9, 1e7);
  // Cost per GB should land in the paper's order of magnitude ($0.1-$5).
  EXPECT_GT(cost.usd_per_gb, 0.05);
  EXPECT_LT(cost.usd_per_gb, 5.0);
  // Cost per GB falls with scale (Fig. 4(c) shape).
  CapacityParams big;
  big.aggregate_gbps = 500.0;
  const auto plan_big = plan_capacity(problem.input, topo, problem.links,
                                      fast_us().tower_graph.towers, big);
  EXPECT_LT(cost_of(plan_big).usd_per_gb, cost.usd_per_gb);
}

TEST(Pipeline, DcProblemsBuildAndSolve) {
  const SiteProblem dc = dc_dc_problem(fast_us(), 400.0);
  EXPECT_EQ(dc.sites.size(), 6u);
  const Topology t = solve_greedy(dc.input);
  EXPECT_LE(t.cost_towers, 400.0 + 1e-9);

  const SiteProblem cdc = city_dc_problem(fast_us(), 400.0, 15);
  EXPECT_EQ(cdc.sites.size(), 15u + 6u);
  const Topology t2 = solve_greedy(cdc.input);
  EXPECT_LE(t2.cost_towers, 400.0 + 1e-9);
}

TEST(Pipeline, MixedProblemBlendsTraffic) {
  const SiteProblem mixed = mixed_problem(fast_us(), 400.0, 4, 3, 3, 15);
  EXPECT_EQ(mixed.sites.size(), 21u);
  // DC-DC block present: traffic between the last 6 sites is positive.
  const auto& input = mixed.input;
  double dc_block = 0.0;
  for (std::size_t i = 15; i < 21; ++i) {
    for (std::size_t j = 15; j < 21; ++j) {
      if (i != j) dc_block += input.traffic(i, j);
    }
  }
  EXPECT_GT(dc_block, 0.0);
  const Topology t = solve_greedy(mixed.input);
  EXPECT_LE(t.cost_towers, 400.0 + 1e-9);
}

TEST(Pipeline, TowerDisjointPathsDegradeGracefully) {
  // Fig. 4(b)'s pattern: successive tower-disjoint paths get longer but
  // stay far below fiber inflation for a long transcontinental link.
  const Scenario& s = fast_us();
  const geo::LatLon chicago{41.88, -87.63};
  const geo::LatLon denver{39.74, -104.99};
  const auto lengths =
      tower_disjoint_path_lengths(s.tower_graph, chicago, denver, 8);
  ASSERT_GE(lengths.size(), 3u);
  const double geodesic = geo::distance_km(chicago, denver);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_GE(lengths[i], geodesic - 1e-6);
    if (i > 0) EXPECT_GE(lengths[i], lengths[i - 1] - 1e-6);
  }
  EXPECT_LT(lengths.front() / geodesic, 1.25);
}

TEST(Pipeline, MultiConfigSweepSharesProfiles) {
  // §6.5: tighter height fractions / ranges can only lose hops.
  const Scenario& s = fast_us();
  std::vector<HopParams> configs;
  HopParams base = s.options.hop;
  configs.push_back(base);
  HopParams restricted = base;
  restricted.usable_height_fraction = 0.45;
  configs.push_back(restricted);
  HopParams short_range = base;
  short_range.max_range_km = 60.0;
  configs.push_back(short_range);
  const auto graphs = build_tower_graphs_multi(
      *s.raster, s.tower_graph.towers, configs);
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_LE(graphs[1].feasible_hops, graphs[0].feasible_hops);
  EXPECT_LE(graphs[2].feasible_hops, graphs[0].feasible_hops);
  EXPECT_GT(graphs[1].feasible_hops, 0u);
}

}  // namespace
}  // namespace cisp::design
