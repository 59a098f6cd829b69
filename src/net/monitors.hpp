#pragma once
// FlowMonitor (ns-3's FlowMonitor counterpart): per-flow delay, throughput
// and loss accounting, fed by sources and sinks.

#include <unordered_map>
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

  [[nodiscard]] const FlowStats& flow(std::uint32_t flow_id) const;
  [[nodiscard]] const std::unordered_map<std::uint32_t, FlowStats>& flows()
      const noexcept {
    return flows_;
  }

  /// Aggregate mean one-way delay over all delivered packets, seconds.
  /// Summed per flow in ascending flow-id order, so the result does not
  /// depend on the flow map's iteration order.
  [[nodiscard]] double mean_delay_s() const;
  /// Aggregate loss rate in [0, 1]: 1 - received/sent packets.
  [[nodiscard]] double loss_rate() const;
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t total_received() const noexcept {
    return received_;
  }

 private:
  std::unordered_map<std::uint32_t, FlowStats> flows_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace cisp::net
