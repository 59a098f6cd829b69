#include "net/monitors.hpp"

#include "util/error.hpp"

namespace cisp::net {

namespace {
bool seen(const FlowMonitor::FlowStats& f) noexcept {
  return f.sent_packets > 0 || f.received_packets > 0;
}
}  // namespace

FlowMonitor::FlowStats& FlowMonitor::slot(std::uint32_t flow_id) {
  if (flow_id >= flows_.size()) flows_.resize(std::size_t{flow_id} + 1);
  return flows_[flow_id];
}

void FlowMonitor::on_send(const Packet& packet) {
  auto& f = slot(packet.flow_id);
  ++f.sent_packets;
  f.sent_bytes += packet.size_bytes;
  ++sent_;
}

void FlowMonitor::on_receive(const Packet& packet, Time now) {
  auto& f = slot(packet.flow_id);
  ++f.received_packets;
  f.received_bytes += packet.size_bytes;
  f.delay_s.add(now - packet.sent_at);
  ++received_;
}

const FlowMonitor::FlowStats* FlowMonitor::find(
    std::uint32_t flow_id) const noexcept {
  if (flow_id >= flows_.size() || !seen(flows_[flow_id])) return nullptr;
  return &flows_[flow_id];
}

const FlowMonitor::FlowStats& FlowMonitor::flow(std::uint32_t flow_id) const {
  const FlowStats* const f = find(flow_id);
  CISP_REQUIRE(f != nullptr, "unknown flow id");
  return *f;
}

double FlowMonitor::mean_delay_s() const {
  if (received_ == 0) return 0.0;
  double sum = 0.0;
  for (const FlowStats& f : flows_) {
    if (seen(f)) sum += f.delay_s.sum();
  }
  return sum / static_cast<double>(received_);
}

double FlowMonitor::loss_rate() const {
  if (sent_ == 0) return 0.0;
  return 1.0 - static_cast<double>(received_) / static_cast<double>(sent_);
}

}  // namespace cisp::net
