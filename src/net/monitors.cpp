#include "net/monitors.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cisp::net {

void FlowMonitor::on_send(const Packet& packet) {
  auto& f = flows_[packet.flow_id];
  ++f.sent_packets;
  f.sent_bytes += packet.size_bytes;
  ++sent_;
}

void FlowMonitor::on_receive(const Packet& packet, Time now) {
  auto& f = flows_[packet.flow_id];
  ++f.received_packets;
  f.received_bytes += packet.size_bytes;
  f.delay_s.add(now - packet.sent_at);
  ++received_;
}

const FlowMonitor::FlowStats& FlowMonitor::flow(std::uint32_t flow_id) const {
  const auto it = flows_.find(flow_id);
  CISP_REQUIRE(it != flows_.end(), "unknown flow id");
  return it->second;
}

double FlowMonitor::mean_delay_s() const {
  if (received_ == 0) return 0.0;
  // Accumulate per-flow sums in ascending flow-id order: a fixed outer
  // order keeps the aggregate independent of the hash map's layout.
  std::vector<std::uint32_t> ids;
  ids.reserve(flows_.size());
  for (const auto& [id, stats] : flows_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  double sum = 0.0;
  for (const std::uint32_t id : ids) sum += flows_.at(id).delay_s.sum();
  return sum / static_cast<double>(received_);
}

double FlowMonitor::loss_rate() const {
  if (sent_ == 0) return 0.0;
  return 1.0 - static_cast<double>(received_) / static_cast<double>(sent_);
}

}  // namespace cisp::net
