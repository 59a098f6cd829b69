// Parameterized property suites (TEST_P sweeps) cutting across modules:
// geometry invariants over seed families, RF physics monotonicity over
// parameter grids, solver correctness over random instance families, and
// TCP liveness over rate/size grids.

#include <gtest/gtest.h>

#include <cmath>

#include "design/exact.hpp"
#include "design/greedy.hpp"
#include "design/problem.hpp"
#include "geo/geodesic.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "rf/fresnel.hpp"
#include "rf/link_budget.hpp"
#include "rf/rain.hpp"
#include "util/rng.hpp"

namespace cisp {
namespace {

// ---------------------------------------------------------------------------
// Geodesic invariants over random seeds.
// ---------------------------------------------------------------------------

class GeodesicProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeodesicProperty, MidpointHalvesAndBearingAdvances) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const geo::LatLon a{rng.uniform(-65.0, 65.0), rng.uniform(-179.0, 179.0)};
    const geo::LatLon b{rng.uniform(-65.0, 65.0), rng.uniform(-179.0, 179.0)};
    const double d = geo::distance_km(a, b);
    if (d < 1.0 || d > 15000.0) continue;
    const geo::LatLon mid = geo::interpolate(a, b, 0.5);
    EXPECT_NEAR(geo::distance_km(a, mid), d / 2.0, 1e-6);
    // Walking from a toward b by d must land on b.
    const geo::LatLon walked =
        geo::destination(a, geo::initial_bearing_deg(a, b), d);
    EXPECT_NEAR(geo::distance_km(walked, b), 0.0, 1.0);
  }
}

TEST_P(GeodesicProperty, SampledPathLengthMatchesDistance) {
  Rng rng(GetParam() ^ 0xFEED);
  for (int i = 0; i < 30; ++i) {
    const geo::LatLon a{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    const geo::LatLon b{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    const auto path = geo::sample_path(a, b, 25.0);
    double total = 0.0;
    for (std::size_t p = 1; p < path.size(); ++p) {
      total += geo::distance_km(path[p - 1], path[p]);
    }
    // Chords under-measure the arc by a vanishing amount at 25 km steps.
    EXPECT_NEAR(total, geo::distance_km(a, b),
                geo::distance_km(a, b) * 1e-4 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeodesicProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// RF physics monotonicity over a (frequency, distance) grid.
// ---------------------------------------------------------------------------

class RfGridProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RfGridProperty, FresnelAndBulgeScaleCorrectly) {
  const auto [f_ghz, d_km] = GetParam();
  // Fresnel radius shrinks with frequency, grows with distance.
  EXPECT_LT(rf::fresnel_radius_m(d_km / 2, d_km / 2, f_ghz * 2.0),
            rf::fresnel_radius_m(d_km / 2, d_km / 2, f_ghz));
  EXPECT_GT(rf::fresnel_radius_m(d_km, d_km, f_ghz),
            rf::fresnel_radius_m(d_km / 2, d_km / 2, f_ghz));
  // Bulge is frequency-independent and quadratic in distance.
  const double bulge1 = rf::earth_bulge_m(d_km / 2, d_km / 2, 1.3);
  const double bulge2 = rf::earth_bulge_m(d_km, d_km, 1.3);
  EXPECT_NEAR(bulge2 / bulge1, 4.0, 1e-9);
}

TEST_P(RfGridProperty, RainAttenuationMonotoneInRateAndDistance) {
  const auto [f_ghz, d_km] = GetParam();
  double previous = 0.0;
  for (double rate = 5.0; rate <= 120.0; rate += 5.0) {
    const double a = rf::hop_rain_attenuation_db(d_km, rate, f_ghz);
    EXPECT_GT(a, previous);
    previous = a;
  }
  EXPECT_GT(rf::hop_rain_attenuation_db(d_km, 40.0, f_ghz),
            rf::hop_rain_attenuation_db(d_km / 2.0, 40.0, f_ghz));
}

INSTANTIATE_TEST_SUITE_P(
    FreqDistanceGrid, RfGridProperty,
    ::testing::Combine(::testing::Values(6.0, 11.0, 15.0, 18.0),
                       ::testing::Values(20.0, 50.0, 80.0, 100.0)));

// ---------------------------------------------------------------------------
// Design solver properties over a family of random instances.
// ---------------------------------------------------------------------------

design::DesignInput make_instance(std::size_t n, std::uint64_t seed,
                                  double budget) {
  Rng rng(seed);
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 4000.0), rng.uniform(0.0, 2000.0)});
  }
  std::vector<std::vector<double>> geod(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> traffic(n, std::vector<double>(n, 0.0));
  std::vector<design::CandidateLink> cands;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      const double d = std::max(50.0, std::hypot(dx, dy));
      geod[i][j] = geod[j][i] = d;
      traffic[i][j] = traffic[j][i] = rng.uniform(0.01, 1.0);
      cands.push_back({i, j, d * rng.uniform(1.02, 1.12),
                       std::ceil(d / 90.0) + 1.0});
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  return design::DesignInput(std::move(geod), std::move(fiber),
                             std::move(traffic), std::move(cands), budget);
}

class DesignSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesignSolverProperty, GreedyNeverBeatsExactAndStaysClose) {
  auto input = make_instance(5, GetParam(), 28.0);
  input.prune_dominated_candidates();
  const auto exact = design::solve_exact(input);
  if (!exact.proven_optimal) GTEST_SKIP() << "instance too hard for budget";
  const auto heuristic = design::solve_cisp(input);
  EXPECT_GE(heuristic.mean_stretch, exact.topology.mean_stretch - 1e-9);
  // Near-optimality (the paper's Fig. 2(b) property).
  EXPECT_LT(heuristic.mean_stretch - exact.topology.mean_stretch, 0.01);
}

TEST_P(DesignSolverProperty, BudgetMonotonicity) {
  const std::uint64_t seed = GetParam();
  double previous = 1e18;
  for (const double budget : {10.0, 25.0, 50.0, 100.0}) {
    const auto input = make_instance(7, seed, budget);
    const auto topo = design::solve_greedy(input);
    EXPECT_LE(topo.cost_towers, budget + 1e-9);
    EXPECT_LE(topo.mean_stretch, previous + 1e-6);
    previous = topo.mean_stretch;
  }
}

TEST_P(DesignSolverProperty, StretchBoundedByFiberAndMwQuality) {
  const auto input = make_instance(8, GetParam(), 60.0);
  const auto topo = design::solve_greedy(input);
  // Any design sits between "all MW at its best" and "all fiber".
  EXPECT_GE(topo.mean_stretch, 1.0);
  EXPECT_LE(topo.mean_stretch, 1.9 + 1e-9);
}

// ---------------------------------------------------------------------------
// Lazy-greedy stale-heap invariants, fuzzed over random candidate sets.
//
// The lazy heap treats a stale score as an upper bound on the fresh one
// (classic submodularity). For shortest-path benefits that bound is a
// HEURISTIC, not a theorem: building one link can shorten another
// candidate's access paths (d(s,u) drops while d(s,t) does not) and RAISE
// its benefit — the witness test below pins a concrete violation so nobody
// "optimizes" the batched re-scorer into assuming monotone scores. What
// the sharded implementation actually relies on, and what is asserted
// exactly here, is purity (a score re-evaluated against the same graph is
// bit-identical no matter which thread computes it or in what order) and
// prediction consistency (a fresh score equals the realized objective-sum
// drop when the link is added).
// ---------------------------------------------------------------------------

TEST_P(DesignSolverProperty, StaleScoreReevaluationIsPure) {
  const auto input = make_instance(7, GetParam() ^ 0xBEEF, 60.0);
  design::StretchEvaluator eval(input);
  const std::size_t m = input.candidates().size();
  Rng rng(GetParam());
  for (int epoch = 0; epoch < 5; ++epoch) {
    // Forward sweep, backward sweep, and a sweep interleaved with
    // unrelated const queries must agree bit for bit: benefit_of is a
    // pure function of (link, current graph), which is what makes the
    // parallel batch re-scorer's merged-by-index results independent of
    // scheduling.
    std::vector<double> forward(m), backward(m), interleaved(m);
    for (std::size_t l = 0; l < m; ++l) forward[l] = eval.benefit_of(l);
    for (std::size_t l = m; l-- > 0;) backward[l] = eval.benefit_of(l);
    for (std::size_t l = 0; l < m; ++l) {
      (void)eval.mean_stretch();
      (void)eval.benefit_of((l * 7 + 3) % m);
      interleaved[l] = eval.benefit_of(l);
    }
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward, interleaved);
    eval.add_link(rng.uniform_index(m));
  }
}

TEST_P(DesignSolverProperty, FreshScorePredictsRealizedDropExactly) {
  const auto input = make_instance(7, GetParam() ^ 0xD00D, 80.0);
  design::StretchEvaluator eval(input);
  Rng rng(GetParam() * 31 + 7);
  const std::size_t m = input.candidates().size();
  std::vector<bool> added(m, false);
  for (int step = 0; step < 8; ++step) {
    const std::size_t pick = rng.uniform_index(m);
    if (added[pick]) continue;
    const double predicted = eval.benefit_of(pick);
    const double sum_before = eval.mean_stretch() * input.total_traffic();
    eval.add_link(pick);
    added[pick] = true;
    const double sum_after = eval.mean_stretch() * input.total_traffic();
    EXPECT_NEAR(sum_before - sum_after, predicted,
                1e-9 * std::max(1.0, sum_before));
    // And the objective is monotone under additions — the property that
    // keeps every heap score non-negative.
    EXPECT_LE(sum_after, sum_before + 1e-12);
  }
}

TEST(DesignSolverBoundary, StaleScoresAreNotAlwaysUpperBounds) {
  // Pin the boundary of the submodularity assumption: on this instance
  // family a re-evaluated benefit CAN exceed its stale heap score. If this
  // witness search ever comes back empty, benefits became genuinely
  // monotone and the lazy/batched re-scoring design notes should be
  // revisited.
  bool found = false;
  for (std::uint64_t seed = 0; seed < 40 && !found; ++seed) {
    const auto input = make_instance(8, 3000 + seed, 1e9);
    design::StretchEvaluator eval(input);
    const std::size_t m = input.candidates().size();
    std::vector<double> stale(m);
    for (std::size_t l = 0; l < m; ++l) stale[l] = eval.benefit_of(l);
    std::vector<bool> added(m, false);
    for (int step = 0; step < 8 && !found; ++step) {
      // Greedy adds: the order the lazy heap would actually realize.
      std::size_t best = SIZE_MAX;
      double best_score = 0.0;
      for (std::size_t l = 0; l < m; ++l) {
        if (added[l]) continue;
        const double b = eval.benefit_of(l);
        if (b > best_score) {
          best_score = b;
          best = l;
        }
      }
      if (best == SIZE_MAX) break;
      eval.add_link(best);
      added[best] = true;
      for (std::size_t l = 0; l < m && !found; ++l) {
        if (added[l]) continue;
        found = eval.benefit_of(l) > stale[l] + 1e-6;
      }
    }
  }
  EXPECT_TRUE(found)
      << "no submodularity violation found — benefits may now be monotone";
}

INSTANTIATE_TEST_SUITE_P(Instances, DesignSolverProperty,
                         ::testing::Range<std::uint64_t>(100, 112));

// ---------------------------------------------------------------------------
// TCP liveness and throughput sanity over a (bottleneck, size) grid.
// ---------------------------------------------------------------------------

class TcpGridProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t, bool>> {
};

TEST_P(TcpGridProperty, FlowAlwaysCompletesWithinTheoreticalBounds) {
  const auto [bottleneck_bps, bytes, pacing] = GetParam();
  net::Simulator sim;
  net::Network network(sim, 3);
  const std::size_t l01 = network.add_duplex_link(0, 1, 1e10, 0.004, 2000);
  const std::size_t l12 =
      network.add_duplex_link(1, 2, bottleneck_bps, 0.004, 2000);
  network.node(0).set_route(0, 2, &network.link(l01));
  network.node(1).set_route(0, 2, &network.link(l12));
  network.node(2).set_route(2, 0, &network.link(l12 + 1));
  network.node(1).set_route(2, 0, &network.link(l01 + 1));
  net::TcpRegistry registry;
  registry.install(network, 0);
  registry.install(network, 2);
  net::TcpFlow::Params params;
  params.pacing = pacing;
  net::TcpFlow flow(network, registry, 1, 0, 2, bytes, params);
  flow.start(0.0);
  sim.run_until(120.0);
  ASSERT_TRUE(flow.complete())
      << "bottleneck=" << bottleneck_bps << " bytes=" << bytes;
  // Lower bound: transfer at line rate + one RTT.
  const double min_fct = static_cast<double>(bytes) * 8.0 / bottleneck_bps +
                         0.016;
  EXPECT_GE(flow.fct_s(), min_fct * 0.9);
  // Upper bound: generous 50x line-rate time + slow-start allowance.
  EXPECT_LE(flow.fct_s(), min_fct * 50.0 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    RateSizeGrid, TcpGridProperty,
    ::testing::Combine(::testing::Values(2e6, 2e7, 2e8),
                       ::testing::Values(50000, 500000, 3000000),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Link budget: outage thresholds behave physically across a grid.
// ---------------------------------------------------------------------------

class OutageGridProperty : public ::testing::TestWithParam<double> {};

TEST_P(OutageGridProperty, ThresholdSeparatesUpFromDown) {
  const double hop_km = GetParam();
  const double threshold = rf::outage_rain_rate_mm_h(hop_km);
  if (threshold >= 1000.0) GTEST_SKIP() << "hop unbreakable at this length";
  EXPECT_FALSE(rf::hop_fails_in_rain(hop_km, threshold * 0.9));
  EXPECT_TRUE(rf::hop_fails_in_rain(hop_km, threshold * 1.1));
}

INSTANTIATE_TEST_SUITE_P(HopLengths, OutageGridProperty,
                         ::testing::Values(15.0, 30.0, 45.0, 60.0, 75.0,
                                           90.0, 100.0));

}  // namespace
}  // namespace cisp
