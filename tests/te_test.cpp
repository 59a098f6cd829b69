// Tests for the multipath TE stack: candidate gathering (net/te), the
// LP split optimizer, the subflow expansion seam through the fluid
// traffic model, happy-eyeballs candidate racing (net/control), and the
// timeline's multipath_te mode. The determinism contracts pinned here:
// candidate sets and split weights are byte-identical at every thread
// count, warm solves replay cold solves exactly, a degraded race()
// reproduces its golden checksum, and a multipath_te timeline step is
// byte-identical to its independent-cell cold evaluation.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "design/capacity.hpp"
#include "geo/latlon.hpp"
#include "graph/ksp.hpp"
#include "net/builder.hpp"
#include "net/control/candidate_racing.hpp"
#include "net/control/route_repair.hpp"
#include "net/flow/max_min.hpp"
#include "net/flow/multipath.hpp"
#include "net/te/candidates.hpp"
#include "net/te/split.hpp"
#include "net/timeline/timeline.hpp"
#include "net/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

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

// ---------------------------------------------------------------------------
// Parallel-branch fixture: 0 -> {1 | 2} -> 3, branch A (via 1) shorter
// than branch B (via 2), both 10 Gbps per hop. Exact split assertions
// live here.
// ---------------------------------------------------------------------------

struct ParallelFixture {
  LinkPlan plan;  // links: 0=0-1, 1=1-3, 2=0-2, 3=2-3
  std::vector<std::array<double, 2>> xy{
      {0.0, 0.0}, {500.0, 200.0}, {500.0, -300.0}, {1000.0, 0.0}};

  [[nodiscard]] flow::DirectKmFn direct_km() const {
    const auto coords = xy;
    return [coords](std::uint32_t s, std::uint32_t t) {
      return std::hypot(coords[s][0] - coords[t][0],
                        coords[s][1] - coords[t][1]);
    };
  }
};

ParallelFixture make_parallel() {
  ParallelFixture f;
  f.plan.node_count = 4;
  const auto km = [&](std::uint32_t a, std::uint32_t b) {
    return std::hypot(f.xy[a][0] - f.xy[b][0], f.xy[a][1] - f.xy[b][1]);
  };
  add_link(f.plan, 0, 1, 10.0, km(0, 1), false);
  add_link(f.plan, 1, 3, 10.0, km(1, 3), false);
  add_link(f.plan, 0, 2, 10.0, km(0, 2), false);
  add_link(f.plan, 2, 3, 10.0, km(2, 3), false);
  return f;
}

/// Zeroes the capacities of one plan link (both directed arcs).
void cut_link(SimTopologyView& view, std::size_t link) {
  for (std::size_t e = 0; e < view.capacity_bps.size(); ++e) {
    if (view.edge_to_link[e] / 2 == link) view.capacity_bps[e] = 0.0;
  }
}

// ---------------------------------------------------------------------------
// Planar fixture (timeline_test's shape): fiber chain + ring for
// connectivity, MW shortcuts for real path choices — the determinism and
// timeline tests run here.
// ---------------------------------------------------------------------------

struct Fixture {
  LinkPlan plan;
  std::vector<std::array<double, 2>> xy;
  flow::DemandMatrix base;
  std::vector<std::size_t> mw_links;

  [[nodiscard]] flow::DirectKmFn direct_km() const {
    const auto coords = xy;
    return [coords](std::uint32_t s, std::uint32_t t) {
      const double dx = coords[s][0] - coords[t][0];
      const double dy = coords[s][1] - coords[t][1];
      return std::sqrt(dx * dx + dy * dy);
    };
  }
};

Fixture make_fixture(std::uint64_t seed, std::uint32_t n = 12,
                     int pair_draws = 24) {
  Fixture f;
  Rng rng(seed);
  f.plan.node_count = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    f.xy.push_back({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
  }
  const auto km = [&](std::uint32_t a, std::uint32_t b) {
    return std::hypot(f.xy[a][0] - f.xy[b][0], f.xy[a][1] - f.xy[b][1]);
  };
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    add_link(f.plan, i, i + 1, 400.0, km(i, i + 1), false, 1.8);
  }
  add_link(f.plan, 0, n - 1, 400.0, km(0, n - 1), false, 1.8);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j =
        static_cast<std::uint32_t>((i + 2 + rng.uniform_index(4)) % n);
    if (j == i) continue;
    f.mw_links.push_back(f.plan.links.size());
    add_link(f.plan, i, j, rng.uniform(2.0, 20.0), km(i, j), true);
  }
  std::vector<flow::PairDemand> pairs;
  for (int d = 0; d < pair_draws; ++d) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto t = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (s == t) continue;
    pairs.push_back({s, t, 1 + rng.uniform_index(100),
                     rng.uniform(0.5e9, 3e9)});
  }
  f.base = flow::DemandMatrix::from_pairs(std::move(pairs));
  return f;
}

void expect_routes_equal(const MultipathRouteSet& a,
                         const MultipathRouteSet& b) {
  ASSERT_EQ(a.pair_paths.size(), b.pair_paths.size());
  for (std::size_t f = 0; f < a.pair_paths.size(); ++f) {
    SCOPED_TRACE("pair " + std::to_string(f));
    ASSERT_EQ(a.pair_paths[f].size(), b.pair_paths[f].size());
    for (std::size_t p = 0; p < a.pair_paths[f].size(); ++p) {
      EXPECT_EQ(a.pair_paths[f][p].path.nodes, b.pair_paths[f][p].path.nodes);
      EXPECT_EQ(a.pair_paths[f][p].path.edges, b.pair_paths[f][p].path.edges);
      EXPECT_EQ(a.pair_paths[f][p].weight, b.pair_paths[f][p].weight);
    }
  }
}

// ---------------------------------------------------------------------------
// Candidate gathering
// ---------------------------------------------------------------------------

TEST(TeCandidates, ShortestIsAlwaysFirstAndStretchBoundFiltersTheRest) {
  const ParallelFixture f = make_parallel();
  const TopologyView topo = view_from_plan(f.plan);
  const std::vector<TrafficDemand> demands = {{0, 3, 2e9}};

  te::CandidateOptions options;
  const te::CandidateSet open =
      te::generate_candidates(topo.view, demands, f.direct_km(), options);
  ASSERT_EQ(open.pairs.size(), 1u);
  ASSERT_GE(open.pairs[0].paths.size(), 2u);
  // Sorted by length: branch A (via node 1) strictly shorter.
  EXPECT_EQ(open.pairs[0].paths[0].nodes,
            (std::vector<graphs::NodeId>{0, 1, 3}));
  EXPECT_EQ(open.pairs[0].paths[1].nodes,
            (std::vector<graphs::NodeId>{0, 2, 3}));
  EXPECT_LT(open.pairs[0].stretch[0], open.pairs[0].stretch[1]);
  for (std::size_t p = 0; p + 1 < open.pairs[0].paths.size(); ++p) {
    EXPECT_LE(open.pairs[0].paths[p].length,
              open.pairs[0].paths[p + 1].length);
  }

  // A bound between the two branch stretches drops B but must keep the
  // shortest path (front exemption) — pairs never become unroutable here.
  options.max_stretch = 0.5 * (open.pairs[0].stretch[0] +
                               open.pairs[0].stretch[1]);
  const te::CandidateSet tight =
      te::generate_candidates(topo.view, demands, f.direct_km(), options);
  ASSERT_EQ(tight.pairs[0].paths.size(), 1u);
  EXPECT_EQ(tight.pairs[0].paths[0].nodes,
            (std::vector<graphs::NodeId>{0, 1, 3}));

  // An absurdly tight bound still keeps the front.
  options.max_stretch = 1e-6;
  const te::CandidateSet floor =
      te::generate_candidates(topo.view, demands, f.direct_km(), options);
  ASSERT_EQ(floor.pairs[0].paths.size(), 1u);

  // Options are part of the gather fingerprint.
  EXPECT_NE(open.key, tight.key);
}

TEST(TeCandidates, ByteIdenticalAcrossThreadCounts) {
  const Fixture f = make_fixture(101);
  const TopologyView topo = view_from_plan(f.plan);
  const std::vector<TrafficDemand> demands = f.base.to_demands();
  te::CandidateOptions options;
  options.max_stretch = 3.0;

  const te::CandidateSet reference = te::generate_candidates(
      topo.view, demands, f.direct_km(), options, /*threads=*/1);
  EXPECT_GT(reference.mcf_lambda, 0.0);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    const te::CandidateSet set = te::generate_candidates(
        topo.view, demands, f.direct_km(), options, threads);
    ASSERT_EQ(set.pairs.size(), reference.pairs.size());
    EXPECT_EQ(set.key, reference.key);
    EXPECT_EQ(set.mcf_lambda, reference.mcf_lambda);
    for (std::size_t p = 0; p < set.pairs.size(); ++p) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " pair " +
                   std::to_string(p));
      ASSERT_EQ(set.pairs[p].paths.size(), reference.pairs[p].paths.size());
      for (std::size_t c = 0; c < set.pairs[p].paths.size(); ++c) {
        EXPECT_EQ(set.pairs[p].paths[c].nodes,
                  reference.pairs[p].paths[c].nodes);
        EXPECT_EQ(set.pairs[p].paths[c].edges,
                  reference.pairs[p].paths[c].edges);
        EXPECT_EQ(set.pairs[p].stretch[c], reference.pairs[p].stretch[c]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Split optimizer
// ---------------------------------------------------------------------------

TEST(TeSplit, SpreadsOverloadEvenlyAcrossParallelBranches) {
  const ParallelFixture f = make_parallel();
  const TopologyView topo = view_from_plan(f.plan);
  // 16 Gbps against two 10 Gbps branches: a single path runs at 1.6x
  // utilization, the even split at 0.8x — the LP must find it.
  const std::vector<TrafficDemand> demands = {{0, 3, 16e9}};
  const te::SplitResult split =
      te::solve_splits(topo.view, demands, f.direct_km());
  EXPECT_FALSE(split.lp_fallback);
  EXPECT_EQ(split.lp_pairs, 1u);
  EXPECT_EQ(split.split_pairs, 1u);
  EXPECT_EQ(split.denied_pairs, 0u);
  ASSERT_EQ(split.routes.pair_paths.size(), 1u);
  ASSERT_EQ(split.routes.pair_paths[0].size(), 2u);
  EXPECT_NEAR(split.routes.pair_paths[0][0].weight, 0.5, 1e-9);
  EXPECT_NEAR(split.routes.pair_paths[0][1].weight, 0.5, 1e-9);
  EXPECT_NEAR(split.max_utilization, 0.8, 1e-9);
}

TEST(TeSplit, DegradedBranchShiftsWeightAndDeadPoolDenies) {
  const ParallelFixture f = make_parallel();
  const std::vector<TrafficDemand> demands = {{0, 3, 16e9}};

  // Branch B cut: all weight lands on the surviving branch A.
  TopologyView degraded = view_from_plan(f.plan);
  cut_link(degraded.view, 3);  // link 2-3
  const te::SplitResult onto_a =
      te::solve_splits(degraded.view, demands, f.direct_km());
  ASSERT_EQ(onto_a.routes.pair_paths[0].size(), 1u);
  EXPECT_EQ(onto_a.routes.pair_paths[0][0].path.nodes,
            (std::vector<graphs::NodeId>{0, 1, 3}));
  EXPECT_EQ(onto_a.routes.pair_paths[0][0].weight, 1.0);
  EXPECT_EQ(onto_a.split_pairs, 0u);
  EXPECT_NEAR(onto_a.max_utilization, 1.6, 1e-9);

  // Both branches cut: the pair's whole pool is dead -> denied (empty
  // route-set entry), never an exception.
  TopologyView dead = view_from_plan(f.plan);
  cut_link(dead.view, 1);  // link 1-3
  cut_link(dead.view, 3);  // link 2-3
  const te::SplitResult denied =
      te::solve_splits(dead.view, demands, f.direct_km());
  EXPECT_EQ(denied.denied_pairs, 1u);
  EXPECT_TRUE(denied.routes.pair_paths[0].empty());
}

TEST(TeSplit, WeightsByteIdenticalAcrossThreadCounts) {
  const Fixture f = make_fixture(103);
  const TopologyView topo = view_from_plan(f.plan);
  // Scale well past saturation: splitting only happens when the max-
  // utilized trunk has load worth moving.
  std::vector<TrafficDemand> demands = f.base.to_demands();
  for (auto& d : demands) d.rate_bps *= 50.0;
  te::SplitOptions options;
  // Loose bound: every pair keeps several candidates and enters the LP,
  // so the max-utilized trunk is actually movable (a tight bound pins
  // most pairs as background and fixes U at the background level).
  options.candidates.max_stretch = 10.0;

  options.threads = 1;
  const te::SplitResult reference =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  EXPECT_GT(reference.split_pairs, 0u);
  EXPECT_FALSE(reference.lp_fallback);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.threads = threads;
    const te::SplitResult split =
        te::solve_splits(topo.view, demands, f.direct_km(), options);
    expect_routes_equal(split.routes, reference.routes);
    EXPECT_EQ(split.max_utilization, reference.max_utilization);
    EXPECT_EQ(split.mcf_lambda, reference.mcf_lambda);
  }
}

TEST(TeSplit, LargeLpWeightsByteIdenticalAtOneAndFourThreads) {
  // The fixtures above give split LPs too small for the simplex to shard
  // its pivots. 24 nodes and ~150 pairs give a few hundred rows by
  // ~1k columns, and nearly every pivot at 4 threads runs sharded.
  const Fixture f = make_fixture(107, 24, 160);
  const TopologyView topo = view_from_plan(f.plan);
  std::vector<TrafficDemand> demands = f.base.to_demands();
  for (auto& d : demands) d.rate_bps *= 50.0;
  te::SplitOptions options;
  options.candidates.max_stretch = 10.0;

  options.threads = 1;
  const te::SplitResult reference =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  EXPECT_GT(reference.lp_pairs, 100u);
  EXPECT_GT(reference.split_pairs, 0u);
  EXPECT_FALSE(reference.lp_fallback);
  options.threads = 4;
  const te::SplitResult split =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  expect_routes_equal(split.routes, reference.routes);
  EXPECT_EQ(split.max_utilization, reference.max_utilization);
  EXPECT_EQ(split.lp_pairs, reference.lp_pairs);
}

TEST(TeSplit, WarmSolveReplaysColdBytesAndReusesCaches) {
  const Fixture f = make_fixture(107);
  TopologyView topo = view_from_plan(f.plan);
  const std::vector<double> nominal = topo.view.capacity_bps;
  const std::vector<TrafficDemand> demands = f.base.to_demands();

  te::SplitWarmState warm;
  te::SplitOptions options;
  options.candidates.max_stretch = 3.0;
  options.gather_capacity_bps = &nominal;
  options.warm = &warm;

  const te::SplitResult first =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  EXPECT_FALSE(first.warm_candidates);
  EXPECT_FALSE(first.warm_solution);

  // Unchanged inputs: full solution replay.
  const te::SplitResult replay =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  EXPECT_TRUE(replay.warm_candidates);
  EXPECT_TRUE(replay.warm_solution);
  EXPECT_EQ(warm.solution_reuses, 1u);
  expect_routes_equal(replay.routes, first.routes);
  EXPECT_EQ(replay.max_utilization, first.max_utilization);

  // Degrade one MW link: the candidate pool (gathered vs nominal) is
  // reused, the solve re-runs — and matches a fully cold solve on the
  // same degraded view bitwise.
  cut_link(topo.view, f.mw_links.front());
  const te::SplitResult degraded_warm =
      te::solve_splits(topo.view, demands, f.direct_km(), options);
  EXPECT_TRUE(degraded_warm.warm_candidates);
  EXPECT_FALSE(degraded_warm.warm_solution);

  te::SplitOptions cold_options;
  cold_options.candidates.max_stretch = 3.0;
  cold_options.gather_capacity_bps = &nominal;
  const te::SplitResult degraded_cold =
      te::solve_splits(topo.view, demands, f.direct_km(), cold_options);
  expect_routes_equal(degraded_warm.routes, degraded_cold.routes);
  EXPECT_EQ(degraded_warm.max_utilization, degraded_cold.max_utilization);
}

// ---------------------------------------------------------------------------
// Subflow expansion + the TrafficModel seam
// ---------------------------------------------------------------------------

TEST(TeMultipath, ExpansionValidatesWeightsAndFoldsBack) {
  const ParallelFixture f = make_parallel();
  const TopologyView topo = view_from_plan(f.plan);
  const auto demands = flow::DemandMatrix::from_pairs({{0, 3, 10, 16e9}});
  const te::SplitResult split =
      te::solve_splits(topo.view, demands.to_demands(), f.direct_km());

  const flow::SubflowExpansion expansion =
      flow::expand_multipath(demands, split.routes);
  ASSERT_EQ(expansion.paths.size(), 2u);
  EXPECT_EQ(expansion.pair_count, 1u);
  EXPECT_NEAR(expansion.demand_bps[0] + expansion.demand_bps[1], 16e9, 1.0);
  // Elastic utility weights: users * split weight, so the pair's total
  // weight is its user count no matter how it splits.
  EXPECT_NEAR(expansion.weights[0] + expansion.weights[1], 10.0, 1e-9);

  flow::AllocatorOptions alloc_options;
  const flow::Allocation subflows = flow::max_min_allocate(
      topo.view, expansion.paths, expansion.demand_bps, alloc_options);
  const flow::Allocation folded = flow::fold_subflows(expansion, subflows);
  ASSERT_EQ(folded.rate_bps.size(), 1u);
  EXPECT_EQ(folded.rate_bps[0],
            subflows.rate_bps[0] + subflows.rate_bps[1]);

  // Weights that do not sum to 1 are an optimizer bug, not a request.
  MultipathRouteSet bad = split.routes;
  bad.pair_paths[0][0].weight = 0.25;
  bad.pair_paths[0][1].weight = 0.25;
  EXPECT_THROW(flow::expand_multipath(demands, bad), cisp::Error);
}

design::DesignInput seam_input(const ParallelFixture& f) {
  std::vector<std::vector<double>> geod(4, std::vector<double>(4, 0.0));
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      geod[i][j] = std::hypot(f.xy[i][0] - f.xy[j][0],
                              f.xy[i][1] - f.xy[j][1]);
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 3, geod[0][3] * 1.05,
                                               10.0}};
  return design::DesignInput(geod, fiber, traffic, cands, 10.0);
}

design::CapacityPlan seam_plan() {
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 3;
  prov.series = 3;
  plan.links.push_back(prov);
  return plan;
}

TEST(TeMultipath, RouteSetThroughTheFluidSeamMatchesManualExpansion) {
  const ParallelFixture f = make_parallel();
  const TopologyView topo = view_from_plan(f.plan);
  const auto demands = flow::DemandMatrix::from_pairs({{0, 3, 10, 16e9}});
  const te::SplitResult split =
      te::solve_splits(topo.view, demands.to_demands(), f.direct_km());
  ASSERT_EQ(split.routes.pair_paths[0].size(), 2u);

  const auto input = seam_input(f);
  const auto plan = seam_plan();
  const auto model = make_traffic_model(TrafficBackend::Flow, input, plan);
  TrafficRunOptions run;
  run.plan = f.plan;
  run.routes = split.routes;
  const TrafficReport report = model->run(demands, run);

  // Both 8 Gbps subflows fit their 10 Gbps branches: everything delivers.
  EXPECT_EQ(report.stats.delivered_bps, 16e9);
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_EQ(report.pairs[0].delivered_bps, 16e9);

  // The seam must agree with doing the expansion by hand.
  const flow::SubflowExpansion expansion =
      flow::expand_multipath(demands, split.routes);
  flow::AllocatorOptions alloc_options;
  const flow::Allocation subflows = flow::max_min_allocate(
      topo.view, expansion.paths, expansion.demand_bps, alloc_options);
  const auto outcomes = flow::multipath_pair_outcomes(
      topo.view, expansion, demands, subflows, f.direct_km());
  EXPECT_EQ(report.pairs[0].latency_s, outcomes[0].latency_s);
  EXPECT_EQ(report.pairs[0].stretch, outcomes[0].stretch);

  // Denied pairs (empty entries) are counted but delivered zero.
  MultipathRouteSet denied;
  denied.pair_paths.resize(1);
  TrafficRunOptions denied_run;
  denied_run.plan = f.plan;
  denied_run.routes = denied;
  const TrafficReport denied_report = model->run(demands, denied_run);
  EXPECT_EQ(denied_report.stats.offered_bps, 16e9);
  EXPECT_EQ(denied_report.stats.delivered_bps, 0.0);
}

TEST(TeMultipath, SeamRejectsPacketBackend) {
  const ParallelFixture f = make_parallel();
  const TopologyView topo = view_from_plan(f.plan);
  const auto demands = flow::DemandMatrix::from_pairs({{0, 3, 10, 2e9}});
  const te::SplitResult split =
      te::solve_splits(topo.view, demands.to_demands(), f.direct_km());

  const auto input = seam_input(f);
  const auto plan = seam_plan();

  // Multipath route sets are fluid-only.
  const auto packet = make_traffic_model(TrafficBackend::Packet, input, plan);
  TrafficRunOptions packet_run;
  packet_run.plan = f.plan;
  packet_run.routes = split.routes;
  EXPECT_THROW(packet->run(demands, packet_run), cisp::Error);
}

TEST(TeMultipath, RealizeKeepsSinglePathLatencyExactAndAveragesSplits) {
  // Many single-path pairs at random rates through realize(): a pair with
  // one subflow must report its path latency exactly. The split average
  // (l * d) / d misses l by an ulp in ~9% of draws, which this many
  // pairs cannot all dodge.
  const Fixture f = make_fixture(71, 16, 400);
  const TopologyView topo = view_from_plan(f.plan);
  const graphs::Graph& g = topo.view.latency_graph;
  const auto demand_list = f.base.to_demands();
  const RoutingResult shortest =
      compute_routes(topo.view, demand_list, RoutingScheme::ShortestPath);
  MultipathRouteSet routes = single_path_routes(shortest.paths);
  ASSERT_GT(routes.pair_paths.size(), 100u);

  // Pair 0 splits over its two latency-shortest paths.
  auto two = graphs::yen_ksp(g, demand_list[0].src, demand_list[0].dst, 2);
  ASSERT_EQ(two.size(), 2u);
  for (graphs::Path& path : two) path.edges = path_edges(g, path);
  routes.pair_paths[0] = {{two[0], 0.375}, {two[1], 0.625}};

  flow::ElasticOptions max_min;
  max_min.alpha = std::numeric_limits<double>::infinity();
  const flow::Realization realized =
      flow::realize(topo.view, f.base, routes, max_min, f.direct_km());
  ASSERT_EQ(realized.pairs.size(), demand_list.size());

  const auto latency_of = [&](const graphs::Path& path) {
    double latency = 0.0;
    for (const graphs::EdgeId eid : path_edges(g, path)) {
      latency += g.edge(eid).weight;
    }
    return latency;
  };
  std::size_t naive_misses = 0;
  for (std::size_t p = 1; p < realized.pairs.size(); ++p) {
    SCOPED_TRACE("pair " + std::to_string(p));
    const double latency = latency_of(shortest.paths[p]);
    const double direct_s =
        f.direct_km()(demand_list[p].src, demand_list[p].dst) /
        geo::kSpeedOfLightKmPerS;
    EXPECT_EQ(realized.pairs[p].latency_s, latency);
    EXPECT_EQ(realized.pairs[p].stretch, latency / direct_s);
    const double delivered = realized.allocation.rate_bps[p];
    if (delivered > 0.0 && latency * delivered / delivered != latency) {
      ++naive_misses;
    }
  }
  // The fixture really exercises the pitfall.
  EXPECT_GT(naive_misses, 0u);

  // The split pair: the delivered-rate-weighted mean of its subflows.
  const flow::SubflowExpansion expansion =
      flow::expand_multipath(f.base, routes);
  const flow::Allocation subflows = flow::max_min_allocate(
      topo.view, expansion.paths, expansion.demand_bps);
  ASSERT_EQ(expansion.pair_of[1], 0u);
  const double l1 = latency_of(two[0]);
  const double l2 = latency_of(two[1]);
  const double d1 = subflows.rate_bps[0];
  const double d2 = subflows.rate_bps[1];
  ASSERT_GT(d1 + d2, 0.0);
  EXPECT_EQ(realized.pairs[0].latency_s, (l1 * d1 + l2 * d2) / (d1 + d2));
}

// ---------------------------------------------------------------------------
// Candidate racing
// ---------------------------------------------------------------------------

TEST(TeRacing, WinnersFollowLinkStateAndDeniedPairsRecoverOnFiber) {
  // 0 -MW- 1 with a fiber detour 0-2-1: the canonical race.
  LinkPlan plan;
  plan.node_count = 3;
  std::vector<std::array<double, 2>> xy{{0.0, 0.0}, {1000.0, 0.0},
                                        {500.0, 400.0}};
  const auto km = [&](std::uint32_t a, std::uint32_t b) {
    return std::hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]);
  };
  add_link(plan, 0, 1, 10.0, km(0, 1), true);         // link 0: MW
  add_link(plan, 0, 2, 400.0, km(0, 2), false, 1.8);  // link 1: fiber
  add_link(plan, 2, 1, 400.0, km(2, 1), false, 1.8);  // link 2: fiber
  const std::vector<TrafficDemand> demands = {{0, 1, 1e9}, {0, 1, 1e9},
                                              {0, 1, 1e9}};
  const control::CandidateRacer racer(plan, demands, {});

  // The MW route all three pairs would use, pinned on the racer's view.
  graphs::Path mw_path;
  mw_path.nodes = {0, 1};
  for (const graphs::EdgeId eid : racer.view().latency_graph.out_edges(0)) {
    const auto& edge = racer.view().latency_graph.edge(eid);
    if (edge.to == 1 && racer.view().edge_to_link[eid] / 2 == 0) {
      mw_path.edges = {eid};
      mw_path.length = edge.weight;
    }
  }
  ASSERT_EQ(mw_path.edges.size(), 1u);

  std::vector<control::PairRoute> routes(3);
  routes[0].path = mw_path;  // healthy MW
  routes[0].latency_s = mw_path.length;
  routes[1].path = mw_path;  // same route, but the link will be DOWN
  routes[1].latency_s = mw_path.length;
  routes[2].denied = true;   // stretch-bound denial: races fiber alone

  std::vector<control::LinkState> healthy(plan.links.size());
  const control::RacingReport all_up = racer.race(routes, healthy);
  EXPECT_EQ(all_up.outcomes[0].winner, control::RaceWinner::Microwave);
  EXPECT_EQ(all_up.outcomes[0].mw_attempts, 1u);
  EXPECT_EQ(all_up.outcomes[0].decision_s, 2.0 * mw_path.length);
  // The denied pair recovers on the fiber detour.
  EXPECT_EQ(all_up.outcomes[2].winner, control::RaceWinner::Fiber);
  EXPECT_EQ(all_up.outcomes[2].path.nodes,
            (std::vector<graphs::NodeId>{0, 2, 1}));
  EXPECT_EQ(all_up.recovered_pairs, 1u);

  std::vector<control::LinkState> mw_down(plan.links.size());
  mw_down[0] = {false, 1.0};
  const control::RacingReport down = racer.race(routes, mw_down);
  // Every MW handshake fails; fiber's staggered attempt wins.
  EXPECT_EQ(down.outcomes[0].winner, control::RaceWinner::Fiber);
  EXPECT_EQ(down.outcomes[0].mw_attempts, control::RacingOptions{}.max_attempts);
  EXPECT_EQ(down.outcomes[1].winner, control::RaceWinner::Fiber);
  EXPECT_EQ(down.fiber_winners, 3u);
}

/// Hash of every field of a racing report, doubles by their bits.
std::uint64_t checksum(const control::RacingReport& report) {
  std::uint64_t h = 0x7261u;
  const auto mix = [&](std::uint64_t v) { h = hash_combine(h, v); };
  for (const control::RaceOutcome& out : report.outcomes) {
    mix(static_cast<std::uint64_t>(out.winner));
    mix(out.path.nodes.size());
    for (const graphs::NodeId node : out.path.nodes) mix(node);
    mix(out.path.edges.size());
    for (const graphs::EdgeId edge : out.path.edges) mix(edge);
    mix(std::bit_cast<std::uint64_t>(out.path.length));
    mix(std::bit_cast<std::uint64_t>(out.decision_s));
    mix(out.mw_attempts);
    mix(out.fiber_attempts);
  }
  for (const std::size_t count : {report.mw_winners, report.fiber_winners,
                                  report.failed_pairs,
                                  report.recovered_pairs}) {
    mix(count);
  }
  return h;
}

TEST(TeRacing, DegradedFixtureReportMatchesGolden) {
  const Fixture f = make_fixture(109);
  const std::vector<TrafficDemand> demands = f.base.to_demands();
  control::RouteRepairer repairer(f.plan, demands, {}, f.direct_km());
  // Degrade a few MW links so the attempt loops actually draw.
  std::vector<control::LinkDelta> deltas;
  deltas.push_back({f.mw_links[0], false, 1.0});
  deltas.push_back({f.mw_links[1], true, 0.4});
  deltas.push_back({f.mw_links[2], true, 0.7});
  repairer.apply(deltas);

  control::RacingOptions options;
  options.seed = 77;
  const control::CandidateRacer racer(f.plan, demands, options);
  const control::RacingReport report =
      racer.race(repairer.routes(), repairer.link_state());
  EXPECT_GT(report.mw_winners + report.fiber_winners, 0u);
  // Computed with the sharded racer this serial loop replaced (its
  // serial oracle and every thread count gave the same bytes).
  EXPECT_EQ(checksum(report), 0xc980ab4b3b3a8572ULL);
}

// ---------------------------------------------------------------------------
// Timeline multipath_te mode
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> make_schedule(const Fixture& f,
                                               std::size_t epochs) {
  std::vector<std::vector<double>> schedule;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<double> factors(f.plan.links.size(), 1.0);
    if (e % 4 == 1) {
      factors[f.mw_links[e % f.mw_links.size()]] = 0.0;
    } else if (e % 4 == 2) {
      factors[f.mw_links[(e + 3) % f.mw_links.size()]] = 0.45;
    }
    schedule.push_back(std::move(factors));
  }
  return schedule;
}

TEST(TimelineTe, MultipathStepIsByteIdenticalToColdCellsAtEveryThreadCount) {
  const Fixture f = make_fixture(113);
  const auto schedule = make_schedule(f, 12);
  std::vector<timeline::EpochStats> reference;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    timeline::TimelineOptions options;
    options.epochs = 12;
    options.diurnal.tz_offset_hours.clear();
    for (const auto& p : f.xy) {
      options.diurnal.tz_offset_hours.push_back(p[0] / 200.0);
    }
    options.annual_growth = 0.3;
    options.factor_schedule = &schedule;
    options.multipath_te = true;
    options.te_split.candidates.max_stretch = 3.0;
    options.threads = threads;
    timeline::TimelineDriver driver(f.plan, {}, f.base, f.direct_km(),
                                    options);
    for (std::size_t e = 0; e < options.epochs; ++e) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " epoch " +
                   std::to_string(e));
      const timeline::EpochStats warm = driver.step();
      const timeline::EpochStats cold = driver.evaluate_cold(e);
      EXPECT_EQ(warm.offered_bps, cold.offered_bps);
      EXPECT_EQ(warm.delivered_bps, cold.delivered_bps);
      EXPECT_EQ(warm.served_fraction, cold.served_fraction);
      EXPECT_EQ(warm.p99_stretch, cold.p99_stretch);
      EXPECT_EQ(warm.jain_fairness, cold.jain_fairness);
      EXPECT_EQ(warm.denied_fraction, cold.denied_fraction);
      EXPECT_EQ(warm.available_fraction, cold.available_fraction);
      EXPECT_EQ(warm.mean_link_utilization, cold.mean_link_utilization);
      EXPECT_EQ(warm.max_link_utilization, cold.max_link_utilization);
      EXPECT_EQ(warm.allocation_rounds, cold.allocation_rounds);
      if (threads == 1) {
        reference.push_back(warm);
      } else {
        EXPECT_EQ(warm.delivered_bps, reference[e].delivered_bps);
        EXPECT_EQ(warm.p99_stretch, reference[e].p99_stretch);
        EXPECT_EQ(warm.max_link_utilization,
                  reference[e].max_link_utilization);
      }
    }
    // The gather ran once: every later epoch reused the candidate pool,
    // and the calm repeats replayed whole solutions.
    EXPECT_GT(driver.te_warm().candidate_reuses, 0u);
    EXPECT_GT(driver.te_warm().solution_reuses, 0u);
  }
}

}  // namespace
}  // namespace cisp::net
