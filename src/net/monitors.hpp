#pragma once
// FlowMonitor (ns-3's FlowMonitor counterpart): per-flow delay, throughput
// and loss accounting, fed by sources and sinks.

#include <vector>

#include "net/sim.hpp"
#include "util/stats.hpp"

namespace cisp::net {

class FlowMonitor {
 public:
  struct FlowStats {
    std::uint64_t sent_packets = 0;
    std::uint64_t received_packets = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t received_bytes = 0;
    OnlineStats delay_s;  ///< one-way delay of delivered packets
  };

  void on_send(const Packet& packet);
  void on_receive(const Packet& packet, Time now);

  /// Stats of a flow the monitor has seen (sent or received a packet).
  [[nodiscard]] const FlowStats& flow(std::uint32_t flow_id) const;
  /// Stats of `flow_id`, or nullptr when the monitor has not seen it.
  [[nodiscard]] const FlowStats* find(std::uint32_t flow_id) const noexcept;

  /// Aggregate mean one-way delay over all delivered packets, seconds.
  /// Summed per flow in ascending flow-id order.
  [[nodiscard]] double mean_delay_s() const;
  /// Aggregate loss rate in [0, 1]: 1 - received/sent packets.
  [[nodiscard]] double loss_rate() const;
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t total_received() const noexcept {
    return received_;
  }

 private:
  FlowStats& slot(std::uint32_t flow_id);

  /// Indexed by flow id: flow ids are demand indices, so the table is
  /// dense. An unseen id reads all-zero.
  std::vector<FlowStats> flows_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace cisp::net
