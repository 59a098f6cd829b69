// Regression tests for the calendar-queue DES core and the packet
// backend: a golden event-order trace against a reference priority-queue
// implementation, run_until boundary semantics, FIFO tie-breaking,
// calendar resize stress, the Karn-compliant TCP RTT sampling rule,
// golden checksums of lossy packet-backend reports, per-link counters of
// a saturated mixed-fabric cell, a delivery trace with tied arrivals, and
// the link-wire ordering check.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "design/problem.hpp"
#include "net/builder.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/link.hpp"
#include "net/monitors.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "net/sim.hpp"
#include "net/tcp.hpp"
#include "net/traffic_model.hpp"
#include "net/udp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {

/// White-box pin for the Karn sampling rule: the distinguishing scenario
/// (a stretched ACK whose top segment was retransmitted but which covers a
/// clean segment below) cannot be produced through the network by this
/// sender, so the test drives the transmit/ack path directly.
struct TcpTestPeer {
  static void transmit(TcpFlow& flow, std::uint64_t seg, bool retransmit) {
    flow.transmit_now(seg, retransmit);
  }
  static void ack(TcpFlow& flow, std::uint64_t ack_seg) {
    flow.on_ack(ack_seg);
  }
};

namespace {

// --- Golden event-order trace against a reference priority-queue core ----

/// The retired event core, reimplemented minimally: a binary heap ordered
/// by (when, seq). The calendar queue must replay any workload in exactly
/// this order.
class ReferenceSim {
 public:
  using Handler = std::function<void()>;

  [[nodiscard]] Time now() const noexcept { return now_; }

  void schedule(Time delay, Handler handler) {
    schedule_at(now_ + delay, std::move(handler));
  }
  void schedule_at(Time when, Handler handler) {
    queue_.push({when, next_seq_++, std::move(handler)});
  }

  void run_until(Time end) {
    while (!queue_.empty() && queue_.top().when <= end) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.when;
      event.handler();
    }
    if (now_ < end) now_ = end;
  }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// A workload dense in ties and nested scheduling, recorded as the fired
/// id sequence plus the bit pattern of every firing time.
template <typename SimT>
void run_trace_workload(SimT& sim, std::vector<int>& ids,
                        std::vector<Time>& times) {
  for (int i = 0; i < 48; ++i) {
    const double t = 0.05 * (i % 8);  // six-way ties per time slot
    sim.schedule(t, [&, i] {
      ids.push_back(i);
      times.push_back(sim.now());
      if (i % 3 == 0) {
        // A tie at the current instant and a later follow-up.
        sim.schedule(0.0, [&, i] {
          ids.push_back(100 + i);
          times.push_back(sim.now());
        });
        sim.schedule(0.1250001, [&, i] {
          ids.push_back(200 + i);
          times.push_back(sim.now());
        });
      }
    });
  }
  sim.run_until(10.0);
}

TEST(CalendarQueue, GoldenTraceMatchesPriorityQueueReference) {
  std::vector<int> ref_ids, cal_ids;
  std::vector<Time> ref_times, cal_times;
  ReferenceSim ref;
  run_trace_workload(ref, ref_ids, ref_times);
  Simulator cal;
  run_trace_workload(cal, cal_ids, cal_times);
  ASSERT_EQ(ref_ids.size(), cal_ids.size());
  EXPECT_EQ(ref_ids, cal_ids);
  ASSERT_EQ(ref_times.size(), cal_times.size());
  EXPECT_EQ(0, std::memcmp(ref_times.data(), cal_times.data(),
                           ref_times.size() * sizeof(Time)));
}

TEST(CalendarQueue, RunUntilExecutesEventsAtExactlyEnd) {
  Simulator sim;
  int at_end = 0;
  int after_end = 0;
  sim.schedule_at(1.0, [&] { ++at_end; });
  sim.schedule_at(1.0, [&] { ++at_end; });
  sim.schedule_at(std::nextafter(1.0, 2.0), [&] { ++after_end; });
  sim.run_until(1.0);
  EXPECT_EQ(at_end, 2);
  EXPECT_EQ(after_end, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(2.0);
  EXPECT_EQ(after_end, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clamps to end with an empty queue
}

TEST(CalendarQueue, FifoTieBreakSurvivesReschedulingAtNow) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(0.5, [&] {
    order.push_back(0);
    // Scheduled mid-dispatch at the current instant: must run after every
    // already-queued event at 0.5 (larger seq), in scheduling order.
    sim.schedule(0.0, [&] { order.push_back(10); });
    sim.schedule(0.0, [&] { order.push_back(11); });
  });
  sim.schedule_at(0.5, [&] { order.push_back(1); });
  sim.schedule_at(0.5, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11}));
}

TEST(CalendarQueue, ResizeStressKeepsGlobalOrderAcrossTimeScales) {
  Simulator sim;
  Rng rng(99);
  std::vector<Time> fired;
  // A microsecond-scale burst and a sparse hundreds-of-seconds tail in one
  // queue: forces grow, shrink, and width re-estimation.
  for (int i = 0; i < 5000; ++i) {
    sim.schedule(rng.uniform() * 1e-3, [&] { fired.push_back(sim.now()); });
  }
  for (int i = 0; i < 500; ++i) {
    sim.schedule(rng.uniform(10.0, 1000.0),
                 [&] { fired.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 5500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(sim.events_processed(), 5500u);
  EXPECT_EQ(sim.events_pending(), 0u);
  // The drained queue must stay usable (shrink path).
  int post = 0;
  sim.schedule(0.5, [&] { ++post; });
  sim.run();
  EXPECT_EQ(post, 1);
}

TEST(Simulator, CountsEventsByKind) {
  Simulator sim;
  Network network(sim, 2);
  const std::size_t l = network.add_duplex_link(0, 1, 1e9, 0.001);
  network.node(0).set_route(0, 1, &network.link(l));
  std::uint64_t delivered = 0;
  network.node(1).set_local_deliver([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.size_bytes = 500;
    network.inject(p);
  }
  sim.schedule(0.01, [] {});
  sim.run();
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDeliver), 5u);
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDone), 5u);
  EXPECT_EQ(sim.events_processed(EventKind::kClosure), 1u);
  EXPECT_EQ(sim.events_processed(), 11u);
}

TEST(Link, WireStampsKeepThePerPacketEventOrder) {
  // All times are exact binary fractions: 1000 B at 64 kb/s serializes in
  // 0.125 s.
  Simulator sim;
  std::vector<std::pair<char, std::uint64_t>> order;
  Link* zp = nullptr;
  Link slow(sim, 64000.0, 1.0, 10,
            [&](const Packet& p) { order.push_back({'x', p.seq}); });
  Link fast(sim, 64000.0, 0.25, 10,
            [&](const Packet& p) { order.push_back({'y', p.seq}); });
  // On a zero-propagation link a delivery ties with its own done event and
  // runs first: the next packet has not started when it is delivered.
  Link zero(sim, 64000.0, 0.0, 10, [&](const Packet&) {
    order.push_back({'z', zp->packets_sent()});
  });
  zp = &zero;
  Packet p;
  p.size_bytes = 1000;
  for (std::uint64_t i = 0; i < 3; ++i) {
    p.seq = i;
    slow.send(p);  // x0 arrives at 1.125, x1 at 1.25, x2 at 1.375
    zero.send(p);
  }
  sim.schedule_at(0.875, [&] {
    p.seq = 7;
    fast.send(p);  // y7 arrives at 0.875 + 0.125 + 0.25 = 1.25
  });
  sim.run();
  // x1 started serializing (0.125) before y7 (0.875), so it keeps the
  // earlier stamp through the tie at 1.25, although its calendar entry
  // went in only when x0 arrived at 1.125.
  const std::vector<std::pair<char, std::uint64_t>> want = {
      {'z', 1}, {'z', 2}, {'z', 3}, {'x', 0}, {'x', 1}, {'y', 7}, {'x', 2}};
  EXPECT_EQ(order, want);
}

TEST(Simulator, SubUlpArrivalThatWouldOvertakeRaisesError) {
  // At t = 1000 s the clock's ulp (~1.1e-13 s) exceeds a 1-byte packet's
  // serialization at 1 Pbps (8e-15 s). The 1-byte packet starts when the
  // 1000-byte one ahead of it finishes, yet its rounded arrival time lands
  // one ulp before that packet's: the wire would reorder. It must raise,
  // not deliver out of order.
  Simulator sim;
  std::vector<std::uint32_t> order;
  Link link(sim, 1e15, 0.001, Link::kUnboundedQueue,
            [&](const Packet& p) { order.push_back(p.size_bytes); });
  sim.schedule_at(1000.0, [&] {
    Packet big;
    big.size_bytes = 1000;
    Packet tiny;
    tiny.size_bytes = 1;
    link.send(big);
    link.send(tiny);
  });
  EXPECT_THROW(sim.run(), cisp::Error);
  EXPECT_TRUE(order.empty());
}

// --- Karn-compliant RTT sampling -----------------------------------------

TEST(Tcp, RttSampleSkipsRetransmittedSegmentInStretchedAck) {
  Simulator sim;
  Network network(sim, 2);  // no routes: injected packets drop, no real acks
  TcpRegistry registry;
  TcpFlow flow(network, registry, 1, 0, 1, 2 * 1448, {});
  sim.schedule_at(0.00, [&] { TcpTestPeer::transmit(flow, 0, false); });
  sim.schedule_at(0.01, [&] { TcpTestPeer::transmit(flow, 1, true); });
  sim.schedule_at(0.03, [&] { TcpTestPeer::ack(flow, 2); });
  sim.run_until(0.05);
  // The stretched ACK's top segment (1) was retransmitted — ambiguous
  // under Karn — but segment 0 below it is clean and must be sampled:
  // srtt = 0.03 - 0.00. The pre-fix sampler looked only at ack_seg - 1 and
  // recorded nothing here.
  EXPECT_DOUBLE_EQ(flow.srtt_s(), 0.03);
  EXPECT_TRUE(flow.complete());
}

TEST(Tcp, RttSampleUsesHighestCleanSegment) {
  Simulator sim;
  Network network(sim, 2);
  TcpRegistry registry;
  TcpFlow flow(network, registry, 1, 0, 1, 2 * 1448, {});
  sim.schedule_at(0.00, [&] { TcpTestPeer::transmit(flow, 0, false); });
  sim.schedule_at(0.02, [&] { TcpTestPeer::transmit(flow, 1, false); });
  sim.schedule_at(0.03, [&] { TcpTestPeer::ack(flow, 2); });
  sim.run_until(0.05);
  // Both clean: the HIGHEST newly-acked segment is the sample (0.01, not
  // 0.03).
  EXPECT_DOUBLE_EQ(flow.srtt_s(), 0.01);
}

// --- Packet backend golden ----------------------------------------------

LinkPlan two_component_plan() {
  LinkPlan plan;
  plan.node_count = 4;
  plan.links.push_back({0, 1, 1e7, 0.002, 50, true});
  plan.links.push_back({2, 3, 1e7, 0.002, 50, true});
  return plan;
}

design::DesignInput four_site_input() {
  std::vector<std::vector<double>> geod(4, std::vector<double>(4, 500.0));
  for (int i = 0; i < 4; ++i) geod[i][i] = 0.0;
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 1, 525.0, 10.0}};
  return design::DesignInput(std::move(geod), std::move(fiber),
                             std::move(traffic), std::move(cands), 10.0);
}

/// FNV-1a over the bytes of a packet report: the stats the figures print
/// plus the full per-pair breakdown.
std::uint64_t checksum(const TrafficReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](double value) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (const unsigned char byte : bytes) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    }
  };
  const TrafficStats& stats = report.stats;
  for (const double v :
       {stats.mean_delay_s, stats.loss_rate, stats.offered_bps,
        stats.delivered_bps, stats.mean_stretch, stats.max_stretch,
        stats.mean_path_latency_s, stats.predicted_max_utilization}) {
    mix(v);
  }
  for (const flow::PairOutcome& pair : report.pairs) {
    mix(pair.delivered_bps);
    mix(pair.latency_s);
    mix(pair.stretch);
  }
  return h;
}

/// checksum() of the two-component report below, computed with the
/// sharded packet backend this single simulator replaced, at one shard
/// (every shard and thread count gave the same bytes).
constexpr std::uint64_t kGoldenTwoComponent = 0x54d6c0cf9a2b4bb9ULL;

TEST(PacketBackend, TwoComponentReportMatchesGolden) {
  const design::DesignInput input = four_site_input();
  design::CapacityPlan cap;
  cap.aggregate_gbps = 1.0;
  const auto model =
      make_traffic_model(TrafficBackend::Packet, input, cap);

  // Two independent duplex links; the (2,3) pair is overloaded so loss and
  // queueing dynamics are part of what must reproduce.
  const auto demands = flow::DemandMatrix::from_pairs({
      {0, 1, 10, 4e6},
      {1, 0, 10, 2e6},
      {2, 3, 10, 2e7},
      {3, 2, 10, 1e6},
  });

  TrafficRunOptions options;
  options.plan = two_component_plan();
  options.sim_duration_s = 0.1;
  options.drain_s = 0.05;
  options.seed = 42;
  const TrafficReport report = model->run(demands, options);
  EXPECT_GT(report.stats.loss_rate, 0.0);  // the overload is real
  ASSERT_EQ(report.pairs.size(), 4u);
  EXPECT_EQ(checksum(report), kGoldenTwoComponent);
}

// --- Saturated multi-hop cell goldens --------------------------------------
// Pinned with the packet-arena core that the per-link wire FIFOs replaced:
// every number below must survive any change to how in-flight packets are
// held, because pop order is exactly (when, seq) either way.

/// Six sites on a mixed fabric: a thin MW chain 0-1-2-3-4 with shallow
/// queues and a fat, slower fiber mesh through hub 5 with deep ones, so
/// shortest-latency routes span several MW hops and mix both media.
LinkPlan mixed_fabric_plan() {
  LinkPlan plan;
  plan.node_count = 6;
  plan.links.push_back({0, 1, 8e6, 0.0011, 30, true});
  plan.links.push_back({1, 2, 6e6, 0.0013, 30, true});
  plan.links.push_back({2, 3, 8e6, 0.0009, 30, true});
  plan.links.push_back({3, 4, 1e7, 0.0012, 30, true});
  plan.links.push_back({0, 5, 5e7, 0.0040, 400, false});
  plan.links.push_back({5, 4, 5e7, 0.0045, 400, false});
  plan.links.push_back({2, 5, 5e7, 0.0030, 400, false});
  plan.links.push_back({1, 4, 4e7, 0.0070, 400, false});
  return plan;
}

design::DesignInput six_site_input() {
  const std::size_t n = 6;
  std::vector<std::vector<double>> geod(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        geod[i][j] =
            150.0 + 60.0 * static_cast<double>(i > j ? i - j : j - i);
      }
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(n, std::vector<double>(n, 1.0));
  for (std::size_t i = 0; i < n; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 1, 220.0, 3.0}};
  return design::DesignInput(std::move(geod), std::move(fiber),
                             std::move(traffic), std::move(cands), 10.0);
}

/// Every ordered pair, weighted so the MW chain runs past saturation (the
/// drop-tail paths) while fiber-routed pairs stay below it.
flow::DemandMatrix mixed_fabric_demands() {
  std::vector<flow::PairDemand> pairs;
  for (std::uint32_t s = 0; s < 6; ++s) {
    for (std::uint32_t d = 0; d < 6; ++d) {
      if (s == d) continue;
      const double rate =
          1.1e6 + 0.37e6 * static_cast<double>((s * 7 + d * 3) % 9);
      pairs.push_back({s, d, 10, rate});
    }
  }
  return flow::DemandMatrix::from_pairs(std::move(pairs));
}

constexpr Time kCellSeconds = 0.25;
constexpr Time kCellDrain = 0.05;
constexpr std::uint64_t kCellSeed = 7;

/// checksum() of the mixed-fabric report, pinned at the packet-arena core.
constexpr std::uint64_t kGoldenMixedFabric = 14293912513868017615ULL;

TEST(PacketBackend, MixedFabricReportMatchesGolden) {
  const design::DesignInput input = six_site_input();
  design::CapacityPlan cap;
  cap.aggregate_gbps = 1.0;
  const auto model = make_traffic_model(TrafficBackend::Packet, input, cap);
  TrafficRunOptions options;
  options.plan = mixed_fabric_plan();
  options.sim_duration_s = kCellSeconds;
  options.drain_s = kCellDrain;
  options.seed = kCellSeed;
  const TrafficReport report = model->run(mixed_fabric_demands(), options);
  EXPECT_GT(report.stats.loss_rate, 0.0);
  ASSERT_EQ(report.pairs.size(), 30u);
  EXPECT_EQ(checksum(report), kGoldenMixedFabric);
}

/// Per-link counters of one network link, as pinned below.
struct LinkGolden {
  std::uint64_t sent;
  std::uint64_t dropped;
  std::uint64_t bytes;
  double queue_p50;
  double queue_p95;
};

TEST(PacketBackend, MixedFabricCountersMatchGolden) {
  SimInstance instance = build_sim_from_plan(mixed_fabric_plan());
  const auto demands = mixed_fabric_demands().to_demands();
  install_routes(*instance.network, instance.view, demands,
                 RoutingScheme::ShortestPath);
  const auto sources =
      attach_udp_workload(instance, demands, 0.0, kCellSeconds, kCellSeed);
  instance.sim->run_until(kCellSeconds + kCellDrain);
  const Simulator& sim = *instance.sim;

  // Per-kind event counts.
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDeliver), 5415u);
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDone), 5415u);
  EXPECT_EQ(sim.events_processed(EventKind::kUdpEmit), 5076u);
  EXPECT_EQ(sim.events_processed(), 15906u);

  // {sent, dropped, bytes, queue p50, queue p95}; -1 marks a link no route
  // uses (no enqueue attempt, so no queue samples).
  const std::vector<LinkGolden> golden = {
      {529u, 24u, 264500u, 26, 29},  {390u, 0u, 195000u, 0, 0},
      {427u, 608u, 213500u, 30, 30}, {427u, 459u, 213500u, 30, 30},
      {554u, 340u, 277000u, 29, 30}, {531u, 435u, 265500u, 29, 30},
      {427u, 0u, 213500u, 0, 0},     {576u, 0u, 288000u, 0, 1},
      {207u, 0u, 103500u, 0, 0},     {253u, 0u, 126500u, 0, 0},
      {115u, 0u, 57500u, 0, 0},      {231u, 0u, 115500u, 0, 0},
      {194u, 0u, 97000u, 0, 0},      {554u, 0u, 277000u, 0, 0},
      {0u, 0u, 0u, -1, -1},          {0u, 0u, 0u, -1, -1},
  };
  const Network& network = *instance.network;
  ASSERT_EQ(network.link_count(), 16u);
  ASSERT_EQ(golden.size(), network.link_count());
  std::uint64_t dropped = 0;
  for (std::size_t l = 0; l < network.link_count(); ++l) {
    const Link& link = network.link(l);
    SCOPED_TRACE(l);
    EXPECT_EQ(link.packets_sent(), golden[l].sent);
    EXPECT_EQ(link.packets_dropped(), golden[l].dropped);
    EXPECT_EQ(link.bytes_sent(), golden[l].bytes);
    dropped += link.packets_dropped();
    if (golden[l].queue_p50 < 0.0) {
      EXPECT_TRUE(link.queue_samples().empty());
      continue;
    }
    EXPECT_EQ(link.queue_samples().median(), golden[l].queue_p50);
    EXPECT_EQ(link.queue_samples().percentile(95), golden[l].queue_p95);
  }
  EXPECT_GT(dropped, 0u);  // the MW chain saturates
}

// --- Wire-ordering trace with ties ------------------------------------------

/// FNV-1a over 64-bit words.
struct TraceHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t n = 0;
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void delivery(Time when, std::uint32_t flow, std::uint64_t seq,
                std::uint64_t events_before) {
    std::uint64_t bits;
    std::memcpy(&bits, &when, sizeof(bits));
    word(bits);
    word(flow);
    word(seq);
    word(events_before);
    ++n;
  }
};

/// Two senders (0, 1) into hub 2 over identical zero-propagation links, a
/// bottleneck 2 -> 3, and zero-propagation return links. TCP data
/// (1500 B), ACKs (40 B) and twin CBR streams with equal phases share the
/// links, so arrivals tie across links and packet sizes mix on each wire.
/// Every local delivery's (time bits, flow, seq) goes into the hash; seq
/// is the TCP segment for data, the cumulative ack for ACKs, and the
/// per-flow arrival ordinal for CBR packets. So does the number of events
/// processed before it, which places the delivery among same-time events
/// (e.g. before its zero-propagation link's done event).
TEST(Simulator, WireOrderingTraceWithTiesMatchesGolden) {
  Simulator sim;
  Network net(sim, 4);
  const std::size_t up0 = net.add_link(0, 2, 1e8, 0.0, 500);
  const std::size_t up1 = net.add_link(1, 2, 1e8, 0.0, 500);
  const std::size_t neck = net.add_link(2, 3, 2e7, 0.001, 40);
  const std::size_t back = net.add_link(3, 2, 2e7, 0.0, 500);
  const std::size_t down0 = net.add_link(2, 0, 1e8, 0.0, 500);
  const std::size_t down1 = net.add_link(2, 1, 1e8, 0.0, 500);
  for (const std::uint32_t s : {0u, 1u}) {
    const std::size_t up = s == 0 ? up0 : up1;
    const std::size_t down = s == 0 ? down0 : down1;
    net.node(s).set_route(s, 3, &net.link(up));
    net.node(2).set_route(s, 3, &net.link(neck));
    net.node(3).set_route(3, s, &net.link(back));
    net.node(2).set_route(3, s, &net.link(down));
  }

  TcpRegistry registry;
  TcpFlow::Params params;
  params.mss_bytes = 1448;
  params.wire_overhead = 52;
  std::vector<std::unique_ptr<TcpFlow>> tcp;
  tcp.push_back(std::make_unique<TcpFlow>(net, registry, 1, 0, 3, 120 * 1448,
                                          params));
  tcp.push_back(std::make_unique<TcpFlow>(net, registry, 2, 1, 3, 120 * 1448,
                                          params));
  TraceHash trace;
  std::vector<std::uint64_t> cbr_count(8, 0);
  for (const std::uint32_t node : {0u, 1u, 3u}) {
    net.node(node).set_local_deliver([&, node](const Packet& p) {
      const std::uint64_t before = sim.events_processed();
      if (p.flow_id == 1 || p.flow_id == 2) {
        trace.delivery(sim.now(), p.flow_id, p.is_ack ? p.ack : p.seq,
                       before);
        tcp[p.flow_id - 1]->on_packet(p, node);
      } else {
        trace.delivery(sim.now(), p.flow_id, cbr_count[p.flow_id]++, before);
      }
    });
  }
  FlowMonitor monitor;
  UdpCbrSource cbr3(net, monitor, 3, 0, 3, 4e6);
  UdpCbrSource cbr4(net, monitor, 4, 1, 3, 4e6);
  cbr3.start(0.0, 0.3, 11);  // equal seeds: equal phases, tied emissions
  cbr4.start(0.0, 0.3, 11);
  tcp[0]->start(0.002);
  tcp[1]->start(0.002);  // tied starts: tied first flights on up0 / up1
  sim.run();

  EXPECT_TRUE(tcp[0]->complete());
  EXPECT_TRUE(tcp[1]->complete());
  EXPECT_GT(net.link(neck).packets_dropped(), 0u);
  EXPECT_EQ(net.link(neck).packets_dropped(), 58u);
  EXPECT_EQ(trace.n, 1084u);
  EXPECT_EQ(trace.h, 0xc99728f612f695d8ULL);
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDeliver), 2226u);
  EXPECT_EQ(sim.events_processed(EventKind::kLinkDone), 2226u);
  EXPECT_EQ(sim.events_processed(), 5280u);
}

}  // namespace
}  // namespace cisp::net
