#pragma once
// Point-to-point unidirectional link with a FIFO drop-tail queue, the
// serialization/propagation model, and built-in monitoring (utilization,
// queue occupancy, drops) — the counterpart of ns-3's PointToPointNetDevice
// plus the paper's custom link-utilization monitor.
//
// Packets in flight ride the link's own FIFO "wire". A packet that starts
// serializing at t gets the arrival time t + (serialization + propagation)
// and a schedule sequence number taken right then — exactly the (when,
// seq) a per-packet arrival event would have had. Only the wire's head
// holds a calendar entry; when it fires, the link pops the head, pushes
// the next head under its own stamp, and then delivers. Arrivals on one
// FIFO link have non-decreasing times and increasing seqs, so the head is
// always its wire's (when, seq)-minimum and the simulator pops the same
// sequence as if every packet held its own event. That monotonicity is
// checked, not assumed: an arrival that would overtake the one before it
// (possible only when a tiny packet's serialization falls below the ulp
// of the clock) raises cisp::Error.

#include <functional>
#include <limits>

#include "net/fifo_ring.hpp"
#include "net/sim.hpp"
#include "util/stats.hpp"

namespace cisp::net {

class Link {
 public:
  using DeliverFn = std::function<void(const Packet&)>;

  /// `queue_packets` caps the FIFO (drop-tail); use kUnboundedQueue for an
  /// infinite buffer (the Fig. 6 setup).
  static constexpr std::size_t kUnboundedQueue =
      std::numeric_limits<std::size_t>::max();

  Link(Simulator& sim, double rate_bps, Time prop_delay_s,
       std::size_t queue_packets, DeliverFn deliver);

  /// Hands a packet to the link; queues, transmits, or drops it.
  void send(const Packet& packet);

  [[nodiscard]] double rate_bps() const noexcept { return rate_bps_; }
  [[nodiscard]] Time prop_delay_s() const noexcept { return prop_delay_s_; }

  // --- monitoring ---
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_; }
  /// Queue length (packets) sampled at every enqueue attempt.
  [[nodiscard]] const CountHistogram& queue_samples() const noexcept {
    return queue_samples_;
  }
  /// Fraction of [0, now] the transmitter was busy. A transmission in
  /// progress counts only up to `now`; `now` must not precede the start
  /// of the latest transmission.
  [[nodiscard]] double utilization(Time now) const;

 private:
  friend class Simulator;  ///< typed event dispatch

  /// One packet in flight: its stamped arrival event and the packet.
  struct WireEntry {
    Time when;
    std::uint64_t seq;
    Packet packet;
  };

  void start_transmission(const Packet& packet);
  void transmission_done();
  /// The wire head's kLinkDeliver fired: pop it, hand the next head to
  /// the calendar, then deliver.
  void wire_arrival();

  Simulator& sim_;
  double rate_bps_;
  Time prop_delay_s_;
  std::size_t queue_cap_;
  DeliverFn deliver_;

  FifoRing<Packet> queue_;
  FifoRing<WireEntry> wire_;
  bool busy_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t bytes_ = 0;
  Time busy_time_ = 0.0;  ///< summed serialization of every started packet
  Time tx_end_ = 0.0;     ///< when the latest transmission ends
  CountHistogram queue_samples_;
};

}  // namespace cisp::net
