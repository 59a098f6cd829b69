#include "net/link.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cisp::net {

Link::Link(Simulator& sim, double rate_bps, Time prop_delay_s,
           std::size_t queue_packets, DeliverFn deliver)
    : sim_(sim),
      rate_bps_(rate_bps),
      prop_delay_s_(prop_delay_s),
      queue_cap_(queue_packets),
      deliver_(std::move(deliver)) {
  CISP_REQUIRE(rate_bps_ > 0.0, "link rate must be positive");
  CISP_REQUIRE(prop_delay_s_ >= 0.0, "propagation delay must be >= 0");
  CISP_REQUIRE(deliver_ != nullptr, "link needs a delivery callback");
}

void Link::send(const Packet& packet) {
  queue_samples_.add(queue_.size());
  if (!busy_) {
    start_transmission(packet);
    return;
  }
  if (queue_.size() >= queue_cap_) {
    ++drops_;
    return;
  }
  queue_.push_back(packet);
}

void Link::start_transmission(const Packet& packet) {
  const Time serialization =
      static_cast<double>(packet.size_bytes) * 8.0 / rate_bps_;
  const Time arrival = sim_.now() + (serialization + prop_delay_s_);
  CISP_REQUIRE(wire_.empty() || arrival >= wire_.back().when,
               "link arrival overtakes the packet ahead of it (serialization "
               "below the clock's resolution)");
  busy_ = true;
  busy_time_ += serialization;
  tx_end_ = sim_.now() + serialization;
  ++sent_;
  bytes_ += packet.size_bytes;
  // The arrival is stamped before the done event is scheduled, so a
  // zero-propagation link still delivers before dequeuing the next packet
  // (the FIFO tie-break the old closure core established).
  const std::uint64_t seq = sim_.take_seq();
  if (wire_.empty()) sim_.push_wire_head(arrival, seq, this);
  wire_.push_back({arrival, seq, packet});
  sim_.schedule_link_done(serialization, this);
}

void Link::transmission_done() {
  busy_ = false;
  if (!queue_.empty()) {
    const Packet next = queue_.front();
    queue_.pop_front();
    start_transmission(next);
  }
}

void Link::wire_arrival() {
  const Packet packet = wire_.front().packet;
  wire_.pop_front();
  // The successor goes in before the delivery can schedule anything: it
  // is the minimum of what is left on this wire, and it was (in the
  // per-packet view) already pending.
  if (!wire_.empty()) {
    const WireEntry& next = wire_.front();
    sim_.push_wire_head(next.when, next.seq, this);
  }
  deliver_(packet);
}

double Link::utilization(Time now) const {
  if (now <= 0.0) return 0.0;
  // busy_time_ counts the latest transmission in full; take back the
  // part of it still ahead of `now`.
  return (busy_time_ - std::max(0.0, tx_end_ - now)) / now;
}

}  // namespace cisp::net
