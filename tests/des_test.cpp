// Regression tests for the calendar-queue DES core and the sharded packet
// backend: a golden event-order trace against a reference priority-queue
// implementation, run_until boundary semantics, FIFO tie-breaking,
// calendar resize stress, the Karn-compliant TCP RTT sampling rule, shard
// partitioning, and byte-identical packet results across shard and thread
// counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "design/problem.hpp"
#include "net/builder.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "net/shard.hpp"
#include "net/sim.hpp"
#include "net/tcp.hpp"
#include "net/traffic_model.hpp"
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

// --- Sharding ------------------------------------------------------------

LinkPlan two_component_plan() {
  LinkPlan plan;
  plan.node_count = 4;
  plan.links.push_back({0, 1, 1e7, 0.002, 50, true});
  plan.links.push_back({2, 3, 1e7, 0.002, 50, true});
  return plan;
}

TEST(Shard, GroupsDemandsByEdgeDisjointRoutes) {
  LinkPlan plan;
  plan.node_count = 3;
  plan.links.push_back({0, 1, 1e7, 0.001, 50, true});
  plan.links.push_back({1, 2, 1e7, 0.001, 50, true});
  const TopologyView topo = view_from_plan(plan);
  const std::vector<TrafficDemand> demands = {
      {0, 2, 1e6},  // edges 0->1->2: unions both forward edges
      {1, 0, 1e6},  // reverse edge of link 0: independent direction
      {0, 1, 1e6},  // shares the 0->1 edge with demand 0
  };
  const RoutingResult routes =
      compute_routes(topo.view, demands, RoutingScheme::ShortestPath);
  const ShardPlan shards = shard_by_path_edges(routes, demands.size());
  ASSERT_EQ(shards.shards.size(), 2u);
  EXPECT_EQ(shards.shards[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(shards.shards[1], (std::vector<std::size_t>{1}));
  // Folding to one shard keeps every demand, in order.
  const ShardPlan folded = shard_by_path_edges(routes, demands.size(), 1);
  ASSERT_EQ(folded.shards.size(), 1u);
  EXPECT_EQ(folded.shards[0], (std::vector<std::size_t>{0, 1, 2}));
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

/// Bitwise comparison of two packet reports: stats the figures print plus
/// the full per-pair breakdown.
void expect_reports_identical(const TrafficReport& a, const TrafficReport& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.stats.mean_delay_s, b.stats.mean_delay_s));
  EXPECT_TRUE(same(a.stats.loss_rate, b.stats.loss_rate));
  EXPECT_TRUE(same(a.stats.offered_bps, b.stats.offered_bps));
  EXPECT_TRUE(same(a.stats.delivered_bps, b.stats.delivered_bps));
  EXPECT_TRUE(same(a.stats.mean_stretch, b.stats.mean_stretch));
  EXPECT_TRUE(same(a.stats.max_stretch, b.stats.max_stretch));
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_TRUE(same(a.pairs[i].delivered_bps, b.pairs[i].delivered_bps));
    EXPECT_TRUE(same(a.pairs[i].latency_s, b.pairs[i].latency_s));
    EXPECT_TRUE(same(a.pairs[i].stretch, b.pairs[i].stretch));
  }
}

TEST(Shard, PacketResultsByteIdenticalAcrossShardAndThreadCounts) {
  const design::DesignInput input = four_site_input();
  design::CapacityPlan cap;
  cap.aggregate_gbps = 1.0;
  const LinkPlan plan = two_component_plan();
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
  options.plan = plan;
  options.sim_duration_s = 0.1;
  options.drain_s = 0.05;
  options.seed = 42;
  options.threads = 1;
  options.packet_shards = 1;  // the pre-sharding single-simulator run
  const TrafficReport baseline = model->run(demands, options);
  EXPECT_GT(baseline.stats.loss_rate, 0.0);  // the overload is real

  const struct {
    std::size_t shards;
    std::size_t threads;
  } cells[] = {{0, 1}, {0, 2}, {0, 4}, {0, 0}, {2, 2}, {4, 4}, {3, 2}};
  for (const auto& cell : cells) {
    options.packet_shards = cell.shards;
    options.threads = cell.threads;
    const TrafficReport report = model->run(demands, options);
    expect_reports_identical(baseline, report);
  }
}

}  // namespace
}  // namespace cisp::net
