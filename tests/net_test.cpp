// Unit and property tests for the packet simulator: event ordering, link
// serialization/queueing arithmetic against hand computations, UDP delivery
// and loss, TCP correctness (completion, throughput bounds, pacing effect
// on queues), routing schemes, and conservation invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/builder.hpp"
#include "net/link.hpp"
#include "net/monitors.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "net/sim.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/error.hpp"

namespace cisp::net {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.3, [&] { order.push_back(3); });
  sim.schedule(0.1, [&] { order.push_back(1); });
  sim.schedule(0.2, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.3);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingAndRunUntil) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule(1.0, tick);
  };
  sim.schedule(0.0, tick);
  sim.run_until(5.5);
  EXPECT_EQ(count, 6);  // t = 0,1,2,3,4,5
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), cisp::Error);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), cisp::Error);
}

TEST(Link, SerializationPlusPropagationDelay) {
  Simulator sim;
  Time delivered_at = -1.0;
  // 1 Mbps link, 10 ms propagation: a 1250-byte packet takes 10 ms to
  // serialize, so delivery is at 20 ms.
  Link link(sim, 1e6, 0.010, 100,
            [&](const Packet&) { delivered_at = sim.now(); });
  Packet p;
  p.size_bytes = 1250;
  link.send(p);
  sim.run();
  EXPECT_NEAR(delivered_at, 0.020, 1e-12);
  EXPECT_EQ(link.packets_sent(), 1u);
}

TEST(Link, BackToBackPacketsQueue) {
  Simulator sim;
  std::vector<Time> deliveries;
  Link link(sim, 1e6, 0.0, 100,
            [&](const Packet&) { deliveries.push_back(sim.now()); });
  Packet p;
  p.size_bytes = 1250;  // 10 ms each at 1 Mbps
  link.send(p);
  link.send(p);
  link.send(p);
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_NEAR(deliveries[0], 0.010, 1e-12);
  EXPECT_NEAR(deliveries[1], 0.020, 1e-12);
  EXPECT_NEAR(deliveries[2], 0.030, 1e-12);
}

TEST(Link, DropTailWhenFull) {
  Simulator sim;
  int delivered = 0;
  Link link(sim, 1e6, 0.0, 2, [&](const Packet&) { ++delivered; });
  Packet p;
  p.size_bytes = 1250;
  for (int i = 0; i < 10; ++i) link.send(p);
  sim.run();
  // 1 transmitting + 2 queued survive.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.packets_dropped(), 7u);
}

TEST(Link, UtilizationAccounting) {
  Simulator sim;
  Link link(sim, 1e6, 0.0, 100, [](const Packet&) {});
  Packet p;
  p.size_bytes = 1250;  // 10 ms
  link.send(p);
  sim.run_until(0.1);
  EXPECT_NEAR(link.utilization(0.1), 0.1, 1e-9);
}

TEST(Link, UtilizationCountsOnlyTheElapsedPartOfATransmission) {
  Simulator sim;
  Link link(sim, 1e6, 0.0, 100, [](const Packet&) {});
  Packet p;
  p.size_bytes = 1250;  // 10 ms at 1 Mbps, sent at t = 0
  link.send(p);
  // Half-way through the packet the transmitter has been busy all along;
  // the whole serialization (0.01 s over 0.005 s = 2.0) is not counted yet.
  EXPECT_DOUBLE_EQ(link.utilization(0.005), 1.0);
  sim.run_until(0.004);
  EXPECT_DOUBLE_EQ(link.utilization(0.004), 1.0);
  sim.run_until(0.02);
  EXPECT_DOUBLE_EQ(link.utilization(0.02), 0.5);
  // A second packet at t = 0.02, queried mid-transmission at 0.025:
  // busy 0.01 + 0.005 of the 0.025 elapsed.
  link.send(p);
  EXPECT_DOUBLE_EQ(link.utilization(0.025), 0.6);
  sim.run();
  EXPECT_LE(link.utilization(sim.now()), 1.0);
}

TEST(Network, ForwardsAlongInstalledRoute) {
  Simulator sim;
  Network net(sim, 3);  // 0 - 1 - 2 chain
  const std::size_t l01 = net.add_duplex_link(0, 1, 1e9, 0.001);
  const std::size_t l12 = net.add_duplex_link(1, 2, 1e9, 0.001);
  net.node(0).set_route(0, 2, &net.link(l01));
  net.node(1).set_route(0, 2, &net.link(l12));
  Time delivered = -1.0;
  net.node(2).set_local_deliver([&](const Packet&) { delivered = sim.now(); });
  Packet p;
  p.src = 0;
  p.dst = 2;
  p.size_bytes = 125;  // 1 us at 1 Gbps
  net.inject(p);
  sim.run();
  EXPECT_NEAR(delivered, 0.002 + 2e-6, 1e-12);
}

TEST(Network, MissingRouteCountsAsRoutingDrop) {
  Simulator sim;
  Network net(sim, 2);
  net.add_duplex_link(0, 1, 1e9, 0.001);
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 100;
  // No route installed: node 0 drops.
  net.inject(p);
  sim.run();
  EXPECT_EQ(net.node(0).routing_drops(), 1u);
  EXPECT_EQ(net.node(0).sink_drops(), 0u);
}

TEST(Network, ArrivalWithoutLocalSinkCountsAsSinkDrop) {
  Simulator sim;
  Network net(sim, 2);
  const std::size_t l = net.add_duplex_link(0, 1, 1e9, 0.001);
  net.node(0).set_route(0, 1, &net.link(l));
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 100;
  // Routed all the way, but node 1 has no local sink installed.
  net.inject(p);
  net.inject(p);
  sim.run();
  EXPECT_EQ(net.link(l).packets_sent(), 2u);
  EXPECT_EQ(net.node(1).sink_drops(), 2u);
  EXPECT_EQ(net.node(1).routing_drops(), 0u);
  // With a sink installed, arrivals are delivered, not dropped.
  int delivered = 0;
  net.node(1).set_local_deliver([&](const Packet&) { ++delivered; });
  net.inject(p);
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.node(1).sink_drops(), 2u);
}

TEST(Udp, CbrRateAndDeliveryAccounting) {
  Simulator sim;
  Network net(sim, 2);
  const std::size_t l = net.add_duplex_link(0, 1, 1e9, 0.005);
  net.node(0).set_route(0, 1, &net.link(l));
  FlowMonitor monitor;
  install_udp_sink(net, 1, monitor);
  UdpCbrSource source(net, monitor, 7, 0, 1, 4e6);  // 4 Mbps -> 1k pps
  source.start(0.0, 1.0, 42);
  sim.run();
  const auto& f = monitor.flow(7);
  EXPECT_NEAR(static_cast<double>(f.sent_packets), 1000.0, 10.0);
  EXPECT_EQ(f.sent_packets, f.received_packets);
  EXPECT_NEAR(f.delay_s.mean(), 0.005 + 500.0 * 8 / 1e9, 1e-9);
  EXPECT_DOUBLE_EQ(monitor.loss_rate(), 0.0);
}

TEST(Udp, OverloadedLinkLosesProportionally) {
  Simulator sim;
  Network net(sim, 2);
  const std::size_t l = net.add_duplex_link(0, 1, 1e6, 0.001, 10);
  net.node(0).set_route(0, 1, &net.link(l));
  FlowMonitor monitor;
  install_udp_sink(net, 1, monitor);
  // 2 Mbps into a 1 Mbps link: ~50% loss.
  UdpCbrSource source(net, monitor, 1, 0, 1, 2e6);
  source.start(0.0, 2.0, 7);
  sim.run();
  EXPECT_NEAR(monitor.loss_rate(), 0.5, 0.05);
}

TcpFlow::Params tcp_params(bool pacing) {
  TcpFlow::Params p;
  p.pacing = pacing;
  return p;
}

struct TcpHarness {
  Simulator sim;
  Network net{sim, 3};  // 0 (source) - 1 (middle) - 2 (sink)
  TcpRegistry registry;

  TcpHarness(double src_rate_bps, double bottleneck_bps,
             std::size_t queue = Link::kUnboundedQueue) {
    const std::size_t l01 =
        net.add_duplex_link(0, 1, src_rate_bps, 0.005, queue);
    const std::size_t l12 =
        net.add_duplex_link(1, 2, bottleneck_bps, 0.005, queue);
    // Forward path 0 -> 2 and reverse 2 -> 0 for the ACKs.
    net.node(0).set_route(0, 2, &net.link(l01));
    net.node(1).set_route(0, 2, &net.link(l12));
    net.node(2).set_route(2, 0, &net.link(l12 + 1));
    net.node(1).set_route(2, 0, &net.link(l01 + 1));
    registry.install(net, 0);
    registry.install(net, 2);
  }
};

TEST(Tcp, CompletesAndRespectsBandwidthBound) {
  TcpHarness h(1e8, 1e7);  // 100 Mbps ingress, 10 Mbps bottleneck
  TcpFlow flow(h.net, h.registry, 1, 0, 2, 1000000, tcp_params(false));
  flow.start(0.0);
  h.sim.run_until(30.0);
  ASSERT_TRUE(flow.complete());
  // 1 MB over 10 Mbps is at least 0.8 s; RTT ~20 ms adds slow-start time.
  EXPECT_GT(flow.fct_s(), 0.8);
  EXPECT_LT(flow.fct_s(), 3.0);
}

TEST(Tcp, FasterBottleneckFasterCompletion) {
  TcpHarness slow(1e8, 5e6);
  TcpFlow f1(slow.net, slow.registry, 1, 0, 2, 500000, tcp_params(false));
  f1.start(0.0);
  slow.sim.run_until(30.0);
  TcpHarness fast(1e8, 5e7);
  TcpFlow f2(fast.net, fast.registry, 1, 0, 2, 500000, tcp_params(false));
  f2.start(0.0);
  fast.sim.run_until(30.0);
  ASSERT_TRUE(f1.complete());
  ASSERT_TRUE(f2.complete());
  EXPECT_LT(f2.fct_s(), f1.fct_s());
}

TEST(Tcp, RecoversFromLossOnTightQueue) {
  TcpHarness h(1e9, 1e7, 5);  // severe speed mismatch, 5-packet queue
  TcpFlow flow(h.net, h.registry, 1, 0, 2, 300000, tcp_params(false));
  flow.start(0.0);
  h.sim.run_until(60.0);
  ASSERT_TRUE(flow.complete());
  EXPECT_GT(flow.retransmits(), 0u);
}

TEST(Tcp, PacingShrinksBottleneckQueue) {
  // The Fig. 6 mechanism: with a 10G ingress into a 100M bottleneck,
  // pacing keeps the queue much shorter.
  auto run = [&](bool pacing) {
    TcpHarness h(1e10, 1e8);
    std::vector<std::unique_ptr<TcpFlow>> flows;
    for (int i = 0; i < 5; ++i) {
      flows.push_back(std::make_unique<TcpFlow>(
          h.net, h.registry, 100 + i, 0, 2, 100000, tcp_params(pacing)));
      flows.back()->start(0.05 * i);
    }
    h.sim.run_until(20.0);
    for (auto& f : flows) EXPECT_TRUE(f->complete());
    // Bottleneck is link index 2 (the 1->2 direction).
    return h.net.link(2).queue_samples().percentile(95);
  };
  const double q_nopacing = run(false);
  const double q_pacing = run(true);
  EXPECT_LT(q_pacing, q_nopacing * 0.7);
}

TEST(Tcp, PacingDoesNotHurtCompletionTimes) {
  auto median_fct = [&](bool pacing) {
    TcpHarness h(1e10, 1e8);
    std::vector<std::unique_ptr<TcpFlow>> flows;
    for (int i = 0; i < 5; ++i) {
      flows.push_back(std::make_unique<TcpFlow>(
          h.net, h.registry, 200 + i, 0, 2, 100000, tcp_params(pacing)));
      flows.back()->start(0.3 * i);
    }
    h.sim.run_until(30.0);
    Samples fct;
    for (auto& f : flows) {
      EXPECT_TRUE(f->complete());
      if (f->complete()) fct.add(f->fct_s());
    }
    return fct.median();
  };
  const double m_nopacing = median_fct(false);
  const double m_pacing = median_fct(true);
  // Paper Fig. 6(b): medians essentially unaffected.
  EXPECT_NEAR(m_pacing, m_nopacing, m_nopacing * 0.5);
}

/// Small 4-node design input for builder/routing tests: a square with one
/// MW diagonal.
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

TEST(Builder, BuildsMwAndFiberLinks) {
  const auto input = square_input();
  const design::Topology topo = design::StretchEvaluator::evaluate(input, {0});
  design::CapacityPlan plan;
  plan.aggregate_gbps = 10.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 2;
  plan.links.push_back(prov);
  const BuildOptions options;
  SimInstance instance = build_sim(input, plan, options);
  EXPECT_EQ(instance.network->node_count(), 4u);
  EXPECT_EQ(instance.mw_edges.size(), 2u);
  // MW capacity = series^2 * 1 Gbps * scale.
  EXPECT_NEAR(instance.view.capacity_bps[instance.mw_edges[0]],
              4e9 * options.rate_scale, 1.0);
  // Latency graph edges map to network links consistently.
  for (std::size_t e = 0; e < instance.view.latency_graph.edge_count(); ++e) {
    const auto& edge = instance.view.latency_graph.edge(
        static_cast<graphs::EdgeId>(e));
    EXPECT_EQ(instance.network->link_from(instance.view.edge_to_link[e]),
              edge.from);
    EXPECT_EQ(instance.network->link_to(instance.view.edge_to_link[e]),
              edge.to);
  }
  (void)topo;
}

TEST(Builder, DemandsSumToAggregate) {
  std::vector<std::vector<double>> traffic = {
      {0, 2, 1}, {2, 0, 1}, {1, 1, 0}};
  const auto demands = demands_from_traffic(traffic, 10.0, 0.1);
  double sum = 0.0;
  for (const auto& d : demands) sum += d.rate_bps;
  EXPECT_NEAR(sum, 10.0 * 1e9 * 0.1, 1.0);
  EXPECT_EQ(demands.size(), 6u);
}

TEST(Routing, SchemesRouteAllDemandsAndSpReportsMinLatency) {
  const auto input = square_input();
  design::CapacityPlan plan;
  plan.aggregate_gbps = 10.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  SimInstance instance = build_sim(input, plan);
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = demands_from_traffic(traffic, 10.0, 0.1);

  const auto sp = install_routes(*instance.network, instance.view, demands,
                                 RoutingScheme::ShortestPath);
  const auto mm = install_routes(*instance.network, instance.view, demands,
                                 RoutingScheme::MinMaxUtilization);
  const auto to = install_routes(*instance.network, instance.view, demands,
                                 RoutingScheme::ThroughputOptimal);
  EXPECT_EQ(sp.paths.size(), demands.size());
  // Shortest path gives the lowest mean latency by definition.
  EXPECT_LE(sp.mean_path_latency_s, mm.mean_path_latency_s + 1e-12);
  EXPECT_LE(sp.mean_path_latency_s, to.mean_path_latency_s + 1e-12);
  // Alternative schemes cannot be worse on the bottleneck than SP by more
  // than numerical noise... they should be no worse or better.
  EXPECT_LE(mm.max_link_utilization, sp.max_link_utilization + 1e-9);
}

TEST(Routing, EndToEndUdpOverBuiltNetwork) {
  const auto input = square_input();
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  SimInstance instance = build_sim(input, plan);
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = demands_from_traffic(traffic, 5.0, 0.1);
  install_routes(*instance.network, instance.view, demands,
                 RoutingScheme::ShortestPath);
  const auto sources = attach_udp_workload(instance, demands, 0.0, 0.2, 99);
  EXPECT_FALSE(sources.empty());
  instance.sim->run_until(0.4);
  EXPECT_GT(instance.monitor.total_sent(), 100u);
  // Low utilization: zero loss, delays bounded by fiber worst case.
  EXPECT_DOUBLE_EQ(instance.monitor.loss_rate(), 0.0);
  EXPECT_LT(instance.monitor.mean_delay_s(),
            input.fiber_effective_km(0, 2) / 299792.458 + 0.01);
  // Conservation: received <= sent.
  EXPECT_LE(instance.monitor.total_received(), instance.monitor.total_sent());
}

}  // namespace
}  // namespace cisp::net
