// Tests for the failure-reactive control plane (net/control): incremental
// route repair must be byte-identical to the full-recompute oracle after
// arbitrary delta sequences (down/up/derate, several seeds and
// topologies); the detour policy must never admit a route over its
// stretch bound; the constructed A/B/C fixture pins the PR 5
// non-monotonicity under pinned routing AND its repair under the control
// plane; the weather coupling must be deterministic, bounded, MW-only and
// monotone in path length; and the traffic-model seam must honor denied
// pairs and capacity derates.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "geo/latlon.hpp"
#include "net/builder.hpp"
#include "net/control/route_repair.hpp"
#include "net/control/weather_coupling.hpp"
#include "net/flow/max_min.hpp"
#include "net/scenario/failure_model.hpp"
#include "net/traffic_model.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

// ---------------------------------------------------------------------------
// Synthetic fixtures: a LinkPlan plus planar coordinates (km) that define
// the geodesic direct_km the stretch bound divides by.
// ---------------------------------------------------------------------------

struct Fixture {
  LinkPlan plan;
  std::vector<std::array<double, 2>> xy;
  std::vector<TrafficDemand> demands;

  [[nodiscard]] flow::DirectKmFn direct_km() const {
    const auto coords = xy;
    return [coords](std::uint32_t s, std::uint32_t t) {
      const double dx = coords[s][0] - coords[t][0];
      const double dy = coords[s][1] - coords[t][1];
      return std::sqrt(dx * dx + dy * dy);
    };
  }
};

void add_link(LinkPlan& plan, std::uint32_t a, std::uint32_t b, double gbps,
              double km, bool mw, double path_stretch = 1.0) {
  PlannedLink link;
  link.a = a;
  link.b = b;
  link.rate_bps = gbps * 1e9;
  link.latency_s = km * path_stretch / geo::kSpeedOfLightKmPerS;
  link.queue_packets = 100;
  link.is_mw = mw;
  plan.links.push_back(link);
}

double km_between(const Fixture& f, std::uint32_t a, std::uint32_t b) {
  return f.direct_km()(a, b);
}

/// 4 nodes on a 500 km square, one MW diagonal, fiber perimeter at 1.9x.
Fixture square_fixture() {
  Fixture f;
  f.xy = {{0, 0}, {500, 0}, {500, 500}, {0, 500}};
  f.plan.node_count = 4;
  add_link(f.plan, 0, 2, 10.0, km_between(f, 0, 2), true);
  add_link(f.plan, 0, 1, 400.0, 500.0, false, 1.9);
  add_link(f.plan, 1, 2, 400.0, 500.0, false, 1.9);
  add_link(f.plan, 2, 3, 400.0, 500.0, false, 1.9);
  add_link(f.plan, 3, 0, 400.0, 500.0, false, 1.9);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t t = 0; t < 4; ++t) {
      if (s != t) f.demands.push_back({s, t, 1e9});
    }
  }
  return f;
}

/// 4 nodes in a line with an MW link AND a parallel fiber link per hop —
/// parallel duplex links exercise the mask-aware edge pinning.
Fixture chain_fixture() {
  Fixture f;
  f.xy = {{0, 0}, {400, 0}, {800, 0}, {1200, 0}};
  f.plan.node_count = 4;
  const double caps[] = {3.0, 9.0, 6.0};
  for (std::uint32_t i = 0; i < 3; ++i) {
    add_link(f.plan, i, i + 1, caps[i], 400.0, true);
    add_link(f.plan, i, i + 1, 400.0, 400.0, false, 2.0);
  }
  f.demands = {{0, 3, 1e9}, {3, 0, 1e9}, {0, 2, 2e9},
               {1, 3, 1e9}, {0, 1, 1e9}, {2, 3, 1e9}};
  return f;
}

/// 12 seeded random nodes: a fiber chain keeps everything connected while
/// MW shortcuts of varying capacity give the repairer real choices.
Fixture random_fixture(std::uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  const std::uint32_t n = 12;
  f.plan.node_count = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    f.xy.push_back({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    add_link(f.plan, i, i + 1, 400.0, km_between(f, i, i + 1), false, 1.8);
  }
  add_link(f.plan, 0, n - 1, 400.0, km_between(f, 0, n - 1), false, 1.8);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::uint32_t>((i + 2 + rng.uniform_index(4)) %
                                              n);
    if (j == i) continue;
    add_link(f.plan, i, j, rng.uniform(2.0, 20.0), km_between(f, i, j), true);
  }
  for (int d = 0; d < 20; ++d) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto t = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (s != t) f.demands.push_back({s, t, rng.uniform(0.5e9, 3e9)});
  }
  return f;
}

std::vector<Fixture> all_fixtures() {
  return {square_fixture(), chain_fixture(), random_fixture(71)};
}

/// 1-3 random deltas: down, restore, or derate, on any link.
std::vector<control::LinkDelta> random_batch(Rng& rng, std::size_t links) {
  std::vector<control::LinkDelta> batch;
  const std::size_t n = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < n; ++i) {
    control::LinkDelta delta;
    delta.link = rng.uniform_index(links);
    switch (rng.uniform_index(3)) {
      case 0:
        delta.up = false;
        break;
      case 1:
        delta.up = true;
        break;
      default:
        delta.up = true;
        delta.capacity_factor = rng.uniform(0.25, 0.95);
        break;
    }
    batch.push_back(delta);
  }
  return batch;
}

void expect_routes_equal(const std::vector<control::PairRoute>& a,
                         const std::vector<control::PairRoute>& b,
                         const char* context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].path.nodes, b[p].path.nodes) << context << " pair " << p;
    EXPECT_EQ(a[p].path.edges, b[p].path.edges) << context << " pair " << p;
    EXPECT_EQ(a[p].denied, b[p].denied) << context << " pair " << p;
    EXPECT_EQ(a[p].detoured, b[p].detoured) << context << " pair " << p;
    // Byte-identity, not approximate equality: both sides sum the same
    // edge weights in the same order.
    EXPECT_EQ(a[p].latency_s, b[p].latency_s) << context << " pair " << p;
    EXPECT_EQ(a[p].stretch, b[p].stretch) << context << " pair " << p;
  }
}

// ---------------------------------------------------------------------------
// Incremental repair == full recompute, over randomized delta sequences
// ---------------------------------------------------------------------------

TEST(RouteRepair, MatchesFullRecomputeAfterEveryRandomizedStep) {
  control::DetourPolicy policy;
  policy.max_stretch = 2.2;  // tight enough that denials get exercised
  std::size_t fixture_id = 0;
  for (const Fixture& f : all_fixtures()) {
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
      control::RouteRepairer repairer(f.plan, f.demands, policy,
                                      f.direct_km());
      Rng rng(seed);
      for (int step = 0; step < 30; ++step) {
        (void)repairer.apply(random_batch(rng, f.plan.links.size()));
        const auto oracle = control::RouteRepairer::full_recompute(
            f.plan, f.demands, policy, f.direct_km(), repairer.link_state());
        SCOPED_TRACE("fixture " + std::to_string(fixture_id) + " seed " +
                     std::to_string(seed) + " step " + std::to_string(step));
        expect_routes_equal(repairer.routes(), oracle, "incremental/oracle");
      }
      repairer.reset();
      const auto intact = control::RouteRepairer::full_recompute(
          f.plan, f.demands, policy, f.direct_km(), repairer.link_state());
      expect_routes_equal(repairer.routes(), intact, "after reset");
    }
    ++fixture_id;
  }
}

TEST(RouteRepair, NeverAdmitsARouteOverTheStretchBound) {
  const Fixture f = random_fixture(71);
  control::DetourPolicy policy;
  policy.max_stretch = 1.5;
  control::RouteRepairer repairer(f.plan, f.demands, policy, f.direct_km());
  Rng rng(9);
  std::size_t denied_seen = 0;
  for (int step = 0; step < 30; ++step) {
    (void)repairer.apply(random_batch(rng, f.plan.links.size()));
    for (const auto& route : repairer.routes()) {
      if (route.denied) {
        EXPECT_TRUE(route.path.empty());
        EXPECT_EQ(route.latency_s, 0.0);
        ++denied_seen;
      } else {
        EXPECT_FALSE(route.path.empty());
        EXPECT_LE(route.stretch, policy.max_stretch);
      }
    }
  }
  // The bound must actually bite somewhere in 30 random steps, or this
  // test is vacuous.
  EXPECT_GT(denied_seen, 0u);
}

TEST(RouteRepair, RejectsBadInput) {
  const Fixture f = square_fixture();
  control::DetourPolicy policy;
  control::RouteRepairer repairer(f.plan, f.demands, policy, f.direct_km());
  EXPECT_THROW(
      (void)repairer.apply({control::LinkDelta{f.plan.links.size(), false}}),
      cisp::Error);
  EXPECT_THROW((void)repairer.apply({control::LinkDelta{0, true, 1.5}}),
               cisp::Error);
  policy.candidates = 0;
  EXPECT_THROW(control::RouteRepairer(f.plan, f.demands, policy,
                                      f.direct_km()),
               cisp::Error);
}

// ---------------------------------------------------------------------------
// The monotonicity anchor: PR 5's dip under pinned routing, repaired away
// ---------------------------------------------------------------------------

/// A=(0,0), B=(500,100), C=(1000,0). MW trunks A-C (12 Gbps, cut first by
/// CutLargestK), A-B (10 Gbps) and a thin meandering B-C (2 Gbps, tower
/// path 2.5x geodesic so it never attracts degraded shortest paths);
/// fiber everywhere at 2x path stretch. Demands A->B and A->C, 8 Gbps
/// each — at k=1 both shortest paths share the 10 Gbps A-B trunk.
Fixture anchor_fixture() {
  Fixture f;
  f.xy = {{0, 0}, {500, 100}, {1000, 0}};
  f.plan.node_count = 3;
  add_link(f.plan, 0, 2, 12.0, km_between(f, 0, 2), true);
  add_link(f.plan, 0, 1, 10.0, km_between(f, 0, 1), true);
  add_link(f.plan, 1, 2, 2.0, km_between(f, 1, 2), true, 2.5);
  add_link(f.plan, 0, 1, 400.0, km_between(f, 0, 1), false, 2.0);
  add_link(f.plan, 0, 2, 400.0, km_between(f, 0, 2), false, 2.0);
  add_link(f.plan, 1, 2, 400.0, km_between(f, 1, 2), false, 2.0);
  f.demands = {{0, 1, 8e9}, {0, 2, 8e9}};
  return f;
}

double unserved_gbps(const SimTopologyView& view,
                     const std::vector<graphs::Path>& paths,
                     const std::vector<TrafficDemand>& demands) {
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);
  double offered = 0.0;
  double delivered = 0.0;
  std::vector<graphs::Path> served_paths;
  std::vector<double> served_rates;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    offered += rates[p];
    if (!paths[p].empty()) {
      served_paths.push_back(paths[p]);
      served_rates.push_back(rates[p]);
    }
  }
  if (!served_paths.empty()) {
    const auto allocation =
        flow::max_min_allocate(view, served_paths, served_rates);
    for (const double r : allocation.rate_bps) delivered += r;
  }
  return (offered - delivered) / 1e9;
}

TEST(RouteRepair, RepairsThePinnedRoutingNonMonotonicity) {
  const Fixture f = anchor_fixture();
  std::vector<double> pinned;
  std::vector<double> repaired;
  for (const std::size_t k : {0u, 1u, 2u}) {
    // Pinned: latency-shortest on the degraded plan (the PR 5 behaviour).
    scenario::FailureModel model;
    model.kind = scenario::FailureModel::Kind::CutLargestK;
    model.k = k;
    const auto outcome = scenario::apply_failures(f.plan, model);
    const TopologyView degraded = view_from_plan(outcome.plan);
    const auto routes = compute_routes(degraded.view, f.demands,
                                       RoutingScheme::ShortestPath);
    pinned.push_back(unserved_gbps(degraded.view, routes.paths, f.demands));

    // Repaired: the control plane masks the same failures on the intact
    // plan (unbounded stretch — the availability-first operating point).
    control::RouteRepairer repairer(f.plan, f.demands, {}, f.direct_km());
    std::vector<control::LinkDelta> deltas;
    for (const std::size_t link : outcome.failed_links) {
      deltas.push_back(control::LinkDelta{link, false});
    }
    (void)repairer.apply(deltas);
    repaired.push_back(
        unserved_gbps(repairer.view(), repairer.traffic_paths(), f.demands));
  }

  // Pinned reproduces the PR 5 dip: cutting ONE trunk strands demand on
  // the thin surviving B-C trunk (unserved 6), cutting BOTH pushes
  // everything to plentiful fiber (unserved 0) — non-monotone in k.
  EXPECT_NEAR(pinned[0], 0.0, 1e-6);
  EXPECT_NEAR(pinned[1], 6.0, 1e-6);
  EXPECT_NEAR(pinned[2], 0.0, 1e-6);

  // The control plane's capacity-aware detours + congestion rebalance
  // serve everything at every k: monotone non-decreasing, never worse
  // than pinned.
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    EXPECT_NEAR(repaired[i], 0.0, 1e-6) << "k=" << i;
    EXPECT_LE(repaired[i], pinned[i] + 1e-6) << "k=" << i;
    if (i > 0) {
      EXPECT_GE(repaired[i] + 1e-6, repaired[i - 1]) << "k=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Weather coupling
// ---------------------------------------------------------------------------

Fixture weather_fixture() {
  Fixture f;
  f.xy = {{0, 0}, {120, 0}, {240, 0}};
  f.plan.node_count = 3;
  add_link(f.plan, 0, 1, 10.0, 120.0, true);
  add_link(f.plan, 1, 2, 10.0, 120.0, true);
  add_link(f.plan, 0, 2, 400.0, 240.0, false, 2.0);
  return f;
}

std::vector<geo::LatLon> weather_sites() {
  return {{39.0, -98.0}, {39.0, -96.6}, {39.0, -95.2}};
}

weather::RainField test_rain() {
  terrain::BoundingBox box;
  box.lat_min = 36.0;
  box.lat_max = 42.0;
  box.lon_min = -101.0;
  box.lon_max = -92.0;
  weather::RainParams params;
  params.seed = 404;
  return weather::RainField(box, params);
}

TEST(WeatherCoupling, FactorsAreDeterministicBoundedAndMwOnly) {
  const Fixture f = weather_fixture();
  const auto sites = weather_sites();
  const auto geometry = control::link_geometry(f.plan, sites);
  ASSERT_EQ(geometry.size(), f.plan.links.size());
  const auto rain = test_rain();
  for (const double t_s : {0.0, 0.3 * weather::kYearS, 0.7 * weather::kYearS}) {
    const auto a = control::link_capacity_factors(f.plan, geometry, rain, t_s);
    const auto b = control::link_capacity_factors(f.plan, geometry, rain, t_s);
    EXPECT_EQ(a, b);  // pure function of (geometry, field, t)
    for (const double factor : a) {
      EXPECT_GE(factor, 0.0);
      EXPECT_LE(factor, 1.0);
    }
    EXPECT_DOUBLE_EQ(a[2], 1.0);  // fiber never degrades
  }
}

TEST(WeatherCoupling, DeltasAreMwOnlyAndChangeDriven) {
  const Fixture f = weather_fixture();
  std::vector<control::LinkState> state(f.plan.links.size());
  // Link 0 derates, link 1 goes binary-down, fiber's factor is ignored.
  const std::vector<double> factors = {0.5, 0.0, 0.25};
  const auto deltas = control::deltas_from_factors(f.plan, factors, state);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].link, 0u);
  EXPECT_TRUE(deltas[0].up);
  EXPECT_DOUBLE_EQ(deltas[0].capacity_factor, 0.5);
  EXPECT_EQ(deltas[1].link, 1u);
  EXPECT_FALSE(deltas[1].up);
  // Once the state reflects the factors, the same factors emit no churn.
  state[0] = {true, 0.5};
  state[1] = {false, 1.0};
  EXPECT_TRUE(control::deltas_from_factors(f.plan, factors, state).empty());
}

TEST(WeatherCoupling, LongerPathsFailAtLeastAsOften) {
  // Same endpoints (same rain samples), different claimed path lengths,
  // hop_km large enough that both stay single-hop: the longer path sees
  // more attenuation against a smaller margin, so its factor can only be
  // lower and its outage probability higher.
  control::LinkGeometry short_link{{39.0, -98.0}, {39.0, -97.0}, 10.0};
  control::LinkGeometry long_link{{39.0, -98.0}, {39.0, -97.0}, 100.0};
  control::WeatherCouplingParams params;
  params.hop_km = 150.0;
  const auto rain = test_rain();
  for (int e = 0; e < 200; ++e) {
    const double t_s = (e + 0.5) * weather::kYearS / 200.0;
    EXPECT_LE(control::link_capacity_factor(long_link, rain, t_s, params),
              control::link_capacity_factor(short_link, rain, t_s, params));
  }

  LinkPlan two;
  two.node_count = 2;
  add_link(two, 0, 1, 10.0, 10.0, true);
  add_link(two, 0, 1, 10.0, 100.0, true);
  const auto p = control::weather_down_probabilities(
      two, {short_link, long_link}, rain, 200, params);
  EXPECT_GE(p[1], p[0]);
}

// ---------------------------------------------------------------------------
// Traffic-model seam: route overrides and capacity derates
// ---------------------------------------------------------------------------

/// The scenario_test 4-node square design (fiber mesh + one MW diagonal),
/// small enough to reason about exactly.
design::DesignInput seam_input() {
  const double side = 500.0;
  const double diag = side * std::sqrt(2.0);
  std::vector<std::vector<double>> geod = {{0, side, diag, side},
                                           {side, 0, side, diag},
                                           {diag, side, 0, side},
                                           {side, diag, side, 0}};
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 2, diag * 1.05, 10.0}};
  return design::DesignInput(geod, fiber, traffic, cands, 10.0);
}

design::CapacityPlan seam_plan() {
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  return plan;
}

TEST(ControlSeam, DeniedPairsDeliverZeroAndDeratesScaleCapacity) {
  const auto input = seam_input();
  const auto plan = seam_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 1.0, 0.1);
  const LinkPlan base_plan = plan_links(input, plan, {});
  const auto direct = [&](std::uint32_t s, std::uint32_t t) {
    return input.geodesic_km(s, t);
  };

  const auto model = make_traffic_model(TrafficBackend::Flow, input, plan);
  TrafficRunOptions options;
  const auto intact = model->run(demands, options);
  EXPECT_NEAR(intact.stats.delivered_bps, intact.stats.offered_bps, 1.0);

  // Stretch bound 1.5: the full fiber mesh sits at 1.9x, so every
  // fiber-routed pair is denied even intact — only the 0<->2 MW pairs
  // (1.05x) survive. Partial denial first, then downing the MW trunk
  // denies everything (the allocator's all-denied edge case).
  control::DetourPolicy policy;
  policy.max_stretch = 1.5;
  control::RouteRepairer repairer(base_plan, demands.to_demands(), policy,
                                  direct);
  std::size_t denied_intact = 0;
  for (const auto& route : repairer.routes()) {
    if (route.denied) ++denied_intact;
  }
  EXPECT_EQ(denied_intact, 10u);
  options.plan = base_plan;
  const auto intact_paths = repairer.traffic_paths();
  options.routes = single_path_routes(intact_paths);
  options.capacity_factor = repairer.capacity_factors();
  const auto partial = model->run(demands, options);
  double denied_offered = 0.0;
  for (std::size_t p = 0; p < intact_paths.size(); ++p) {
    if (!intact_paths[p].empty()) continue;
    denied_offered += demands.pairs()[p].rate_bps;
    EXPECT_EQ(partial.pairs[p].delivered_bps, 0.0);
  }
  EXPECT_GT(denied_offered, 0.0);
  EXPECT_NEAR(partial.stats.delivered_bps,
              partial.stats.offered_bps - denied_offered, 1.0);

  std::vector<control::LinkDelta> down;
  for (std::size_t i = 0; i < base_plan.links.size(); ++i) {
    if (base_plan.links[i].is_mw) down.push_back({i, false});
  }
  const auto stats = repairer.apply(down);
  EXPECT_EQ(stats.denied_pairs, demands.pairs().size());
  options.routes = single_path_routes(repairer.traffic_paths());
  options.capacity_factor = repairer.capacity_factors();
  const auto degraded = model->run(demands, options);
  EXPECT_EQ(degraded.stats.delivered_bps, 0.0);

  // A pure derate (all links up, half capacity) keeps every route but
  // doubles utilization at unchanged load.
  control::RouteRepairer derater(base_plan, demands.to_demands(), {}, direct);
  std::vector<control::LinkDelta> derate;
  for (std::size_t i = 0; i < base_plan.links.size(); ++i) {
    derate.push_back({i, true, 0.5});
  }
  (void)derater.apply(derate);
  options.routes = single_path_routes(derater.traffic_paths());
  options.capacity_factor = derater.capacity_factors();
  const auto derated = model->run(demands, options);
  EXPECT_NEAR(derated.stats.max_link_utilization,
              2.0 * intact.stats.max_link_utilization, 1e-9);

  // The seam is fluid-only: the packet backend must reject overrides,
  // a derate on its own included.
  const auto packet = make_traffic_model(TrafficBackend::Packet, input, plan);
  EXPECT_THROW((void)packet->run(demands, options), cisp::Error);
  TrafficRunOptions derate_only;
  derate_only.capacity_factor = derater.capacity_factors();
  EXPECT_THROW((void)packet->run(demands, derate_only), cisp::Error);
}

TEST(ControlSeam, RejectsStaleOrMalformedOverrides) {
  // A route set pinned against an older plan, or a factor vector of the
  // wrong length, would walk straight into unchecked graph-edge indexing
  // (UB). Every malformed override must fail with cisp::Error at run
  // entry.
  const auto input = seam_input();
  const auto plan = seam_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 1.0, 0.1);
  const LinkPlan base_plan = plan_links(input, plan, {});
  const auto direct = [&](std::uint32_t s, std::uint32_t t) {
    return input.geodesic_km(s, t);
  };
  control::RouteRepairer repairer(base_plan, demands.to_demands(), {}, direct);
  const auto good_paths = repairer.traffic_paths();
  const auto good_factors = repairer.capacity_factors();

  const auto model = make_traffic_model(TrafficBackend::Flow, input, plan);
  TrafficRunOptions options;
  options.plan = base_plan;
  options.routes = single_path_routes(good_paths);
  options.capacity_factor = good_factors;
  EXPECT_NO_THROW((void)model->run(demands, options));

  {
    // One route-set entry per demand pair, no more, no fewer.
    auto too_few = good_paths;
    too_few.pop_back();
    TrafficRunOptions bad = options;
    bad.routes = single_path_routes(too_few);
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);
  }
  {
    // Endpoints must match the pair the path is for.
    auto wrong_ends = good_paths;
    wrong_ends.front().nodes.front() =
        wrong_ends.front().nodes.front() == 2 ? 3 : 2;
    TrafficRunOptions bad = options;
    bad.routes = single_path_routes(wrong_ends);
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);
  }
  {
    // A pinned edge id beyond the run plan's edge space (the classic
    // stale-paths symptom after the plan shrinks).
    auto out_of_range = good_paths;
    ASSERT_FALSE(out_of_range.front().edges.empty());
    out_of_range.front().edges.front() = 1000000;
    TrafficRunOptions bad = options;
    bad.routes = single_path_routes(out_of_range);
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);
  }
  {
    // An in-range edge that does not connect the path's consecutive
    // nodes: pinned against a different plan's edge numbering.
    const TopologyView topo = view_from_plan(base_plan);
    auto stale = good_paths;
    ASSERT_FALSE(stale.front().edges.empty());
    const auto want_from = stale.front().nodes[0];
    bool tampered = false;
    for (graphs::EdgeId e = 0; e < topo.view.edge_to_link.size(); ++e) {
      const auto& edge = topo.view.latency_graph.edge(e);
      if (edge.from != want_from) {
        stale.front().edges.front() = e;
        tampered = true;
        break;
      }
    }
    ASSERT_TRUE(tampered);
    TrafficRunOptions bad = options;
    bad.routes = single_path_routes(stale);
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);
  }
  {
    // Capacity factors: one per duplex link, each in [0, 1].
    std::vector<double> short_factors(base_plan.links.size() - 1, 1.0);
    TrafficRunOptions bad = options;
    bad.capacity_factor = short_factors;
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);

    auto over = good_factors;
    over.front() = 1.5;
    bad = options;
    bad.capacity_factor = over;
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);

    auto negative = good_factors;
    negative.front() = -0.25;
    bad = options;
    bad.capacity_factor = negative;
    EXPECT_THROW((void)model->run(demands, bad), cisp::Error);
  }
}

TEST(ControlObs, RepairCountersAccumulateWhenEnabled) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  const Fixture f = square_fixture();
  control::RouteRepairer repairer(f.plan, f.demands, {}, f.direct_km());
  (void)repairer.apply({control::LinkDelta{0, false}});
  obs::set_metrics_enabled(false);
  EXPECT_GE(obs::counter("control.repair.batches").value(), 1u);
  EXPECT_GE(obs::counter("control.repair.touched_pairs").value(), 1u);
  obs::reset_metrics();
}

}  // namespace
}  // namespace cisp::net
