// Tests for the flow-level traffic backend: DemandMatrix aggregation and
// user apportionment, max-min fair allocation on hand-computed topologies
// (single bottleneck, parking lot, demand caps), byte identity of the
// event-driven fill against a test-only round-by-round reference fill
// (plus a golden checksum), its max-min certificate, and the
// packet-vs-flow fidelity contract on a small instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/builder.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/flow/max_min.hpp"
#include "net/flow/monitors.hpp"
#include "net/routing.hpp"
#include "net/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

// ---------------------------------------------------------------------------
// Hand-built substrates
// ---------------------------------------------------------------------------

/// A directed chain 0 - 1 - ... - n-1 of duplex links with per-link
/// capacities (both directions alike) and 1 ms propagation per hop.
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

flow::Allocation allocate(const SimTopologyView& view,
                          const std::vector<TrafficDemand>& demands) {
  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);
  return flow::max_min_allocate(view, routes.paths, rates);
}

// ---------------------------------------------------------------------------
// DemandMatrix
// ---------------------------------------------------------------------------

TEST(DemandMatrix, FromTrafficMatchesHistoricalExpansion) {
  const std::vector<std::vector<double>> traffic = {
      {0, 2, 1}, {2, 0, 1}, {1, 1, 0}};
  const auto matrix = flow::DemandMatrix::from_traffic(traffic, 10.0, 0.1);
  const auto via_builder = demands_from_traffic(traffic, 10.0, 0.1);
  ASSERT_EQ(matrix.flow_count(), via_builder.size());
  double sum = 0.0;
  for (std::size_t f = 0; f < matrix.flow_count(); ++f) {
    EXPECT_EQ(matrix.pairs()[f].src, via_builder[f].src);
    EXPECT_EQ(matrix.pairs()[f].dst, via_builder[f].dst);
    EXPECT_DOUBLE_EQ(matrix.pairs()[f].rate_bps, via_builder[f].rate_bps);
    sum += matrix.pairs()[f].rate_bps;
  }
  EXPECT_NEAR(sum, 10.0 * 1e9 * 0.1, 1.0);
  EXPECT_NEAR(matrix.total_rate_bps(), sum, 1.0);
}

TEST(DemandMatrix, ApportionsUsersExactlyAndDeterministically) {
  const std::vector<std::vector<double>> traffic = {
      {0.0, 0.31, 0.07}, {0.17, 0.0, 0.23}, {0.05, 0.11, 0.0}};
  const std::uint64_t users = 1000003;  // prime: exercises the remainders
  const auto a = flow::DemandMatrix::from_users(traffic, users, 1e5);
  const auto b = flow::DemandMatrix::from_users(traffic, users, 1e5);
  EXPECT_EQ(a.total_users(), users);
  EXPECT_EQ(a.flow_count(), 6u);
  std::uint64_t sum = 0;
  for (std::size_t f = 0; f < a.flow_count(); ++f) {
    // Deterministic: two invocations agree pair by pair.
    EXPECT_EQ(a.pairs()[f].users, b.pairs()[f].users);
    // Rate is exactly users * per-user.
    EXPECT_DOUBLE_EQ(a.pairs()[f].rate_bps,
                     static_cast<double>(a.pairs()[f].users) * 1e5);
    sum += a.pairs()[f].users;
  }
  EXPECT_EQ(sum, users);
  // Proportionality: the largest matrix entry gets the most users.
  std::uint64_t max_users = 0;
  std::size_t argmax = 0;
  for (std::size_t f = 0; f < a.flow_count(); ++f) {
    if (a.pairs()[f].users > max_users) {
      max_users = a.pairs()[f].users;
      argmax = f;
    }
  }
  EXPECT_EQ(a.pairs()[argmax].src, 0u);
  EXPECT_EQ(a.pairs()[argmax].dst, 1u);
}

TEST(DemandMatrix, MillionUsersStayAggregated) {
  // The whole point of the fluid backend: 2 * 10^6 endpoints collapse to
  // O(pairs) state.
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto matrix =
      flow::DemandMatrix::from_users(traffic, 2000000, 100e3);
  EXPECT_EQ(matrix.flow_count(), 12u);
  EXPECT_EQ(matrix.total_users(), 2000000u);
}

// ---------------------------------------------------------------------------
// Max-min fair allocation
// ---------------------------------------------------------------------------

TEST(MaxMin, SingleBottleneckSharesEqually) {
  // Three flows across one 9 Gbps link, all demanding more: 3 Gbps each.
  const auto view = chain_view({9e9});
  std::vector<TrafficDemand> demands(3, {0, 1, 10e9});
  const auto allocation = allocate(view, demands);
  for (const double rate : allocation.rate_bps) {
    EXPECT_NEAR(rate, 3e9, 1.0);
  }
  EXPECT_EQ(allocation.rounds, 1u);
  EXPECT_EQ(allocation.bottleneck_edges, 1u);
  EXPECT_NEAR(allocation.edge_load_bps[0], 9e9, 1.0);
}

TEST(MaxMin, ParkingLotHandComputed) {
  // Chain 0-1-2-3, all links 10 Gbps. Flows: long 0->3, plus one per hop.
  // The short 0->1 flow demands only 2 Gbps. Water-filling by hand:
  //   round 1: h = 2 (the capped flow freezes; every active flow is at 2)
  //   round 2: links 1-2 and 2-3 have 6 Gbps left over 2 flows -> h = 3;
  //            they saturate, freezing the long and both hop flows at 5.
  //   => long = 5, f(0->1) = 2, f(1->2) = 5, f(2->3) = 5.
  const auto view = chain_view({10e9, 10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 10e9}, {0, 1, 2e9}, {1, 2, 10e9}, {2, 3, 10e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 5e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 5e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[3], 5e9, 1.0);
  // First link carries long + capped short: 7 of 10 Gbps.
  EXPECT_NEAR(allocation.edge_load_bps[0], 7e9, 1.0);
}

TEST(MaxMin, TightFirstLinkPropagatesHeadroom) {
  // Caps {4, 10, 10} Gbps: the first link bottlenecks the long flow and
  // its local flow at 2, later flows pick up the slack to 8.
  const auto view = chain_view({4e9, 10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 10e9}, {0, 1, 10e9}, {1, 2, 10e9}, {2, 3, 10e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 8e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[3], 8e9, 1.0);
}

TEST(MaxMin, UncongestedFlowsGetTheirDemand) {
  const auto view = chain_view({10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 2, 1e9}, {0, 1, 2e9}, {1, 2, 3e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 1e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 3e9, 1.0);
  EXPECT_EQ(allocation.bottleneck_edges, 0u);
}

TEST(MaxMin, ZeroDemandFlowsStayAtZero) {
  const auto view = chain_view({10e9});
  const std::vector<TrafficDemand> demands = {{0, 1, 0.0}, {0, 1, 5e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_DOUBLE_EQ(allocation.rate_bps[0], 0.0);
  EXPECT_NEAR(allocation.rate_bps[1], 5e9, 1.0);
}

TEST(MaxMin, InfiniteDemandIsUnbounded) {
  const auto view = chain_view({6e9});
  const std::vector<TrafficDemand> demands = {
      {0, 1, std::numeric_limits<double>::infinity()}, {0, 1, 1e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 5e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 1e9, 1.0);
  EXPECT_EQ(allocation.bottleneck_edge[0], 0u);
  EXPECT_EQ(allocation.bottleneck_edge[1], flow::kNoBottleneck);
}

TEST(MaxMin, RejectsNanDemandAndNanOrNegativeCapacity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto view = chain_view({10e9});
  EXPECT_THROW((void)allocate(view, {{0, 1, nan}, {0, 1, 1e9}}), cisp::Error);

  auto nan_cap = chain_view({10e9});
  nan_cap.capacity_bps[1] = nan;  // an edge no flow crosses still counts
  EXPECT_THROW((void)allocate(nan_cap, {{0, 1, 1e9}}), cisp::Error);

  auto negative_cap = chain_view({10e9});
  negative_cap.capacity_bps[0] = -1.0;
  EXPECT_THROW((void)allocate(negative_cap, {{0, 1, 1e9}}), cisp::Error);

  // +inf capacity is not "unbounded": it would saturate in round 1.
  auto infinite_cap = chain_view({10e9});
  infinite_cap.capacity_bps[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)allocate(infinite_cap, {{0, 1, 1e9}}), cisp::Error);
}

// ---------------------------------------------------------------------------
// Max-min reference oracle
// ---------------------------------------------------------------------------

/// The round-by-round progressive fill the event-driven allocator
/// replaced, kept serial and test-only: every round takes the minimum
/// over all edges and all flows, raises every active flow's rate, and
/// freezes the flows of every saturated edge (in edge index order) and
/// every demand-capped flow (in flow index order). max_min_allocate must
/// reproduce its bytes, rounds and bottleneck counts exactly.
flow::Allocation reference_fill(const SimTopologyView& view,
                                const std::vector<graphs::Path>& paths,
                                const std::vector<double>& demand_bps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  std::vector<std::vector<graphs::EdgeId>> flow_edges(flows);
  std::vector<std::vector<std::uint32_t>> edge_flows(edges);
  for (std::size_t f = 0; f < flows; ++f) {
    flow_edges[f] = path_edges(view.latency_graph, paths[f]);
    for (const graphs::EdgeId eid : flow_edges[f]) {
      edge_flows[eid].push_back(static_cast<std::uint32_t>(f));
    }
  }

  flow::Allocation out;
  out.rate_bps.assign(flows, 0.0);
  out.edge_load_bps.assign(edges, 0.0);
  out.bottleneck_edge.assign(flows, flow::kNoBottleneck);

  std::vector<char> active(flows, 1);
  std::vector<double> cap_rem = view.capacity_bps;
  std::vector<std::size_t> count(edges, 0);
  std::size_t active_flows = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    if (demand_bps[f] <= 0.0) {
      active[f] = 0;
      continue;
    }
    ++active_flows;
    for (const graphs::EdgeId eid : flow_edges[f]) ++count[eid];
  }
  const auto saturated = [&](std::size_t e) {
    return count[e] > 0 && cap_rem[e] <= view.capacity_bps[e] * 1e-9;
  };
  const auto demand_met = [&](std::size_t f) {
    return demand_bps[f] - out.rate_bps[f] <= demand_bps[f] * 1e-12;
  };

  // (flow, freezing edge or kNoBottleneck) in freeze order.
  std::vector<std::pair<std::uint32_t, graphs::EdgeId>> freeze;
  while (active_flows > 0) {
    ++out.rounds;
    if (out.rounds > flows + edges + 1) throw cisp::Error("no convergence");
    double h_edge = kInf;
    for (std::size_t e = 0; e < edges; ++e) {
      h_edge = std::min(h_edge, count[e] > 0 ? cap_rem[e] /
                                                   static_cast<double>(count[e])
                                             : kInf);
    }
    double h_demand = kInf;
    for (std::size_t f = 0; f < flows; ++f) {
      h_demand = std::min(
          h_demand, active[f] ? demand_bps[f] - out.rate_bps[f] : kInf);
    }
    const double h = std::max(0.0, std::min(h_edge, h_demand));
    if (!(h < kInf)) throw cisp::Error("unconstrained flow");
    for (std::size_t f = 0; f < flows; ++f) {
      if (active[f]) out.rate_bps[f] += h;
    }
    for (std::size_t e = 0; e < edges; ++e) {
      if (count[e] > 0) cap_rem[e] -= h * static_cast<double>(count[e]);
    }

    freeze.clear();
    for (std::size_t e = 0; e < edges; ++e) {
      if (!saturated(e)) continue;
      ++out.bottleneck_edges;
      for (const std::uint32_t f : edge_flows[e]) {
        freeze.emplace_back(f, static_cast<graphs::EdgeId>(e));
      }
    }
    for (std::size_t f = 0; f < flows; ++f) {
      if (active[f] && demand_met(f)) {
        freeze.emplace_back(static_cast<std::uint32_t>(f),
                            flow::kNoBottleneck);
      }
    }
    if (freeze.empty()) throw cisp::Error("round froze no flow");
    for (const auto& [f, edge] : freeze) {
      if (!active[f]) continue;
      active[f] = 0;
      --active_flows;
      out.bottleneck_edge[f] = edge;
      for (const graphs::EdgeId eid : flow_edges[f]) --count[eid];
    }
  }
  for (std::size_t e = 0; e < edges; ++e) {
    double load = 0.0;
    for (const std::uint32_t f : edge_flows[e]) load += out.rate_bps[f];
    out.edge_load_bps[e] = load;
  }
  out.fill_rounds = out.rounds;
  return out;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs both fills and byte-compares everything the allocator reports.
void expect_matches_reference(const SimTopologyView& view,
                              const std::vector<graphs::Path>& paths,
                              const std::vector<double>& demand_bps,
                              const std::string& label) {
  SCOPED_TRACE(label);
  // The reference froze a +inf demand after its first round (inf - rate
  // <= inf * 1e-12 holds); the largest finite demand is the unbounded
  // flow it never reaches.
  std::vector<double> finite = demand_bps;
  for (double& d : finite) {
    if (std::isinf(d)) d = std::numeric_limits<double>::max();
  }
  const auto expected = reference_fill(view, paths, finite);
  const auto actual = flow::max_min_allocate(view, paths, demand_bps);
  EXPECT_TRUE(same_bytes(actual.rate_bps, expected.rate_bps));
  EXPECT_TRUE(same_bytes(actual.edge_load_bps, expected.edge_load_bps));
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.fill_rounds, expected.fill_rounds);
  EXPECT_EQ(actual.bottleneck_edges, expected.bottleneck_edges);
  EXPECT_EQ(actual.bottleneck_edge, expected.bottleneck_edge);
}

struct Instance {
  SimTopologyView view;
  std::vector<graphs::Path> paths;
  std::vector<double> demand_bps;
};

/// A random duplex graph (a chain plus chords) with shortest-path routed
/// flows. `extreme` mixes in zero, +inf and repeated demands plus a few
/// zero-capacity links.
Instance random_instance(std::uint64_t seed, std::size_t nodes,
                         int chords, int flows, bool extreme) {
  Instance inst;
  SimTopologyView& view = inst.view;
  view.latency_graph = graphs::Graph(nodes);
  Rng rng(seed);
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
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    add_duplex(i, i + 1, rng.uniform(1e9, 5e9));
  }
  for (int chord = 0; chord < chords; ++chord) {
    const std::size_t a = rng.uniform_index(nodes);
    const std::size_t b = rng.uniform_index(nodes);
    if (a == b) continue;
    const bool dead = extreme && rng.uniform() < 0.1;
    add_duplex(a, b, dead ? 0.0 : rng.uniform(1e9, 5e9));
  }
  std::vector<TrafficDemand> demands;
  for (int f = 0; f < flows; ++f) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_index(nodes));
    const auto b = static_cast<std::uint32_t>(rng.uniform_index(nodes));
    if (a == b) continue;
    double rate = rng.uniform(1e7, 5e8);
    if (extreme) {
      const double pick = rng.uniform();
      if (pick < 0.05) rate = 0.0;
      else if (pick < 0.1) rate = std::numeric_limits<double>::infinity();
      else if (pick < 0.3) rate = 1e8;  // ties
    }
    demands.push_back({a, b, rate});
  }
  inst.paths = compute_routes(view, demands, RoutingScheme::ShortestPath).paths;
  for (const auto& d : demands) inst.demand_bps.push_back(d.rate_bps);
  return inst;
}

/// checksum() of the 600-flow seed-404 instance, computed with the
/// round-by-round allocator before the event-driven rewrite.
constexpr std::uint64_t kGoldenChecksum600 = 0xe5060915f84daab8ULL;

/// FNV-1a over the bytes of an allocation's rates, loads and counters.
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
  const std::uint64_t counters[] = {allocation.rounds,
                                    allocation.bottleneck_edges};
  mix_bytes(counters, sizeof(counters));
  return h;
}

TEST(MaxMinOracle, SixHundredFlowInstanceMatchesReferenceAndGolden) {
  const auto inst = random_instance(404, 24, 20, 600, /*extreme=*/false);
  expect_matches_reference(inst.view, inst.paths, inst.demand_bps, "seed 404");
  const auto allocation =
      flow::max_min_allocate(inst.view, inst.paths, inst.demand_bps);
  EXPECT_GT(allocation.rounds, 1u);
  // Pinned from the round-by-round allocator this one replaced.
  EXPECT_EQ(checksum(allocation), kGoldenChecksum600);
}

TEST(MaxMinOracle, RandomInstancesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const bool extreme = seed % 2 == 0;
    const auto inst = random_instance(seed * 7919, 8 + seed * 3,
                                      static_cast<int>(4 * seed),
                                      static_cast<int>(60 * seed), extreme);
    expect_matches_reference(inst.view, inst.paths, inst.demand_bps,
                             "seed " + std::to_string(seed));
  }
}

TEST(MaxMinOracle, NestedEdgesSaturatingInOneRoundBothCount) {
  // Edge 0 (0->1, 2 Gbps) carries {x, y}; edge 2 (1->2, 1 Gbps) carries
  // {y}, a subset. Both saturate at h = 1 Gbps in round 1. Freezing x and
  // y at edge 0 empties edge 2, which must still count as a bottleneck.
  const auto view = chain_view({2e9, 1e9});
  const std::vector<TrafficDemand> demands = {{0, 1, 10e9}, {0, 2, 10e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_EQ(allocation.rounds, 1u);
  EXPECT_EQ(allocation.bottleneck_edges, 2u);
  EXPECT_EQ(allocation.bottleneck_edge,
            (std::vector<graphs::EdgeId>{0, 0}));
  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  expect_matches_reference(view, routes.paths, {10e9, 10e9}, "nested");
}

TEST(MaxMinOracle, CraftedEdgeCasesMatchReference) {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* label;
    std::vector<double> caps;
    std::vector<TrafficDemand> demands;
  };
  const std::vector<Case> cases = {
      {"equal demands", {10e9, 10e9},
       {{0, 1, 2e9}, {0, 2, 2e9}, {1, 2, 2e9}, {0, 2, 2e9}}},
      // Edge 0 saturates at h = 3 Gbps exactly when the 1->2 flow meets
      // its 3 Gbps demand.
      {"demand cap with saturation", {9e9, 10e9},
       {{0, 1, 5e9}, {0, 1, 5e9}, {0, 1, 5e9}, {1, 2, 3e9}}},
      {"zero and infinite demands", {4e9, 6e9},
       {{0, 2, inf}, {0, 1, 0.0}, {1, 2, inf}, {0, 1, 1e9}}},
      // A zero-capacity link freezes its flow in an h = 0 round.
      {"zero capacity", {0.0, 5e9}, {{0, 1, 1e9}, {1, 2, 2e9}}},
      // Demands one ulp apart: the level reaches the lower one and the
      // relative slack freezes both in the same round.
      {"one-ulp demands", {1e9 / 3.0 * 7.0, 10e9},
       {{0, 1, 10e9}, {0, 1, 10e9}, {0, 1, 10e9}, {1, 2, 1e9 / 3.0},
        {1, 2, std::nextafter(1e9 / 3.0, inf)},
        {0, 2, std::nextafter(1e9 / 3.0 * 2.0, 0.0)}}},
      // Round 1 leaves level L = 139138561.3208747; round 2 adds the
      // rounded gap d - L and overshoots d by one ulp.
      {"one-ulp level overshoot", {139138561.3208747, 10e9},
       {{0, 1, 10e9}, {1, 2, 4975920572.2678175}}},
  };
  for (const auto& c : cases) {
    const auto view = chain_view(c.caps);
    const RoutingResult routes =
        compute_routes(view, c.demands, RoutingScheme::ShortestPath);
    std::vector<double> rates;
    for (const auto& d : c.demands) rates.push_back(d.rate_bps);
    expect_matches_reference(view, routes.paths, rates, c.label);
  }

  const auto overshoot =
      allocate(chain_view({139138561.3208747, 10e9}),
               {{0, 1, 10e9}, {1, 2, 4975920572.2678175}});
  EXPECT_EQ(overshoot.rounds, 2u);
  EXPECT_EQ(overshoot.rate_bps[1], std::nextafter(4975920572.2678175, inf));
  EXPECT_EQ(overshoot.bottleneck_edge[1], flow::kNoBottleneck);
}

TEST(MaxMinOracle, BottleneckEdgesCertifyMaxMinFairness) {
  // The max-min certificate: a link-capped flow's edge is saturated and
  // the flow has the largest rate on it; every other flow has its demand.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = random_instance(seed * 104729, 16, 12, 300,
                                      /*extreme=*/seed % 2 == 0);
    const auto allocation =
        flow::max_min_allocate(inst.view, inst.paths, inst.demand_bps);
    ASSERT_EQ(allocation.bottleneck_edge.size(), inst.paths.size());
    std::vector<std::vector<std::size_t>> on_edge(
        inst.view.capacity_bps.size());
    for (std::size_t f = 0; f < inst.paths.size(); ++f) {
      for (const graphs::EdgeId e :
           path_edges(inst.view.latency_graph, inst.paths[f])) {
        on_edge[e].push_back(f);
      }
    }
    for (std::size_t f = 0; f < inst.paths.size(); ++f) {
      const double rate = allocation.rate_bps[f];
      const double demand = inst.demand_bps[f];
      const graphs::EdgeId e = allocation.bottleneck_edge[f];
      if (e == flow::kNoBottleneck) {
        EXPECT_NEAR(rate, std::max(0.0, demand), demand * 1e-12)
            << "seed " << seed << " flow " << f;
        continue;
      }
      ASSERT_LT(e, on_edge.size());
      const double cap = inst.view.capacity_bps[e];
      EXPECT_GE(allocation.edge_load_bps[e], cap * (1.0 - 1e-9))
          << "seed " << seed << " edge " << e << " not saturated";
      EXPECT_NE(std::find(on_edge[e].begin(), on_edge[e].end(), f),
                on_edge[e].end());
      for (const std::size_t g : on_edge[e]) {
        EXPECT_LE(allocation.rate_bps[g], rate)
            << "seed " << seed << " flow " << g << " beats " << f;
      }
      EXPECT_LE(rate, demand * (1.0 + 1e-12));
    }
  }
}

// ---------------------------------------------------------------------------
// TrafficModel seam: fidelity contract
// ---------------------------------------------------------------------------

/// Small 4-node design input (square with one MW diagonal), mirroring the
/// net_test fixture.
design::DesignInput square_input() {
  const double side = 500.0;
  const double diag = side * std::sqrt(2.0);
  std::vector<std::vector<double>> geod = {
      {0, side, diag, side},
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

design::CapacityPlan square_plan() {
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

TEST(TrafficModel, ParsesAndPrintsBackends) {
  EXPECT_EQ(parse_traffic_backend("packet"), TrafficBackend::Packet);
  EXPECT_EQ(parse_traffic_backend("flow"), TrafficBackend::Flow);
  EXPECT_STREQ(to_string(TrafficBackend::Packet), "packet");
  EXPECT_STREQ(to_string(TrafficBackend::Flow), "flow");
  EXPECT_THROW((void)parse_traffic_backend("fluid"), cisp::Error);
}

TEST(TrafficModel, FlowMatchesPacketOnSmallInstance) {
  // The documented fidelity contract: below saturation the fluid backend's
  // analytic delay/stretch track the packet simulator within 5% + 0.5 ms
  // (the residual is queueing + serialization, absent from the fluid
  // model).
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 5.0, 0.1);

  TrafficRunOptions options;
  options.sim_duration_s = 0.2;
  options.seed = 99;

  const auto packet_report =
      make_traffic_model(TrafficBackend::Packet, input, plan)
          ->run(demands, options);
  const auto flow_report =
      make_traffic_model(TrafficBackend::Flow, input, plan)
          ->run(demands, options);

  // Uncongested on both backends.
  EXPECT_LT(packet_report.stats.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(flow_report.stats.loss_rate, 0.0);
  EXPECT_NEAR(flow_report.stats.delivered_bps, flow_report.stats.offered_bps,
              1.0);

  const double tolerance =
      0.05 * packet_report.stats.mean_delay_s + 0.0005;
  EXPECT_NEAR(flow_report.stats.mean_delay_s, packet_report.stats.mean_delay_s,
              tolerance);
  EXPECT_NEAR(flow_report.stats.mean_stretch, packet_report.stats.mean_stretch,
              0.05 * packet_report.stats.mean_stretch);

  // Same pairs, same routes: per-pair stretch within the same contract.
  ASSERT_EQ(flow_report.pairs.size(), packet_report.pairs.size());
  for (std::size_t f = 0; f < flow_report.pairs.size(); ++f) {
    EXPECT_EQ(flow_report.pairs[f].src, packet_report.pairs[f].src);
    EXPECT_EQ(flow_report.pairs[f].dst, packet_report.pairs[f].dst);
    EXPECT_NEAR(flow_report.pairs[f].stretch, packet_report.pairs[f].stretch,
                0.05 * packet_report.pairs[f].stretch + 0.05);
  }
}

TEST(TrafficModel, FlowBackendCarriesMillionsOfUsers) {
  // 10^6 endpoints on the square: the flow backend never materializes
  // per-user or per-packet state, so this runs in test time comfortably.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands =
      flow::DemandMatrix::from_users(traffic, 1000000, 3000.0);

  TrafficRunOptions options;
  const auto report = make_traffic_model(TrafficBackend::Flow, input, plan)
                          ->run(demands, options);
  EXPECT_EQ(report.stats.users, 1000000u);
  EXPECT_EQ(report.stats.flows, 12u);
  EXPECT_GE(report.stats.mean_stretch, 1.0);
  EXPECT_GT(report.stats.delivered_bps, 0.0);
  EXPECT_EQ(report.pairs.size(), 12u);
}

TEST(TrafficModel, PacketBackendDoesNotCountUnsimulatedPairsAsLoss) {
  // Demands below the one-packet emission threshold never get a UDP
  // source; they must read as delivered (the monitor's loss_rate excludes
  // them too), not as congestion loss.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  // ~0.8 kbps per pair over a 50 ms window: well under one 500-byte packet.
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 0.0001, 0.1);

  TrafficRunOptions options;
  options.sim_duration_s = 0.05;
  const auto report = make_traffic_model(TrafficBackend::Packet, input, plan)
                          ->run(demands, options);
  EXPECT_NEAR(report.stats.delivered_bps, report.stats.offered_bps, 1.0);
  for (const auto& pair : report.pairs) {
    EXPECT_DOUBLE_EQ(pair.delivered_bps, pair.offered_bps);
    EXPECT_GT(pair.latency_s, 0.0);  // propagation fallback
  }
}

TEST(TrafficModel, FlowReportsUnservedDemandAsLoss) {
  // Offered load far above the single MW diagonal + fiber capacities:
  // the allocator must cap delivery and report the shortfall.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  // 10 Tbps offered against ~tens-of-Gbps of capacity.
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 10000.0, 1.0);

  TrafficRunOptions options;
  const auto report = make_traffic_model(TrafficBackend::Flow, input, plan)
                          ->run(demands, options);
  EXPECT_GT(report.stats.loss_rate, 0.5);
  EXPECT_NEAR(report.stats.max_link_utilization, 1.0, 1e-6);
}

}  // namespace
}  // namespace cisp::net
