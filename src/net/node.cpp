#include "net/node.hpp"

#include <bit>

#include "util/error.hpp"

namespace cisp::net {

namespace {
constexpr std::uint64_t route_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}
}  // namespace

void Node::set_route(std::uint32_t src, std::uint32_t dst, Link* next) {
  CISP_REQUIRE(next != nullptr, "null next-hop link");
  if (2 * (route_count_ + 1) > routes_.size()) grow_routes();
  const std::uint64_t key = route_key(src, dst);
  const std::size_t mask = routes_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    RouteSlot& slot = routes_[i];
    if (slot.next == nullptr) {
      slot = {key, next};
      ++route_count_;
      return;
    }
    if (slot.key == key) {
      slot.next = next;
      return;
    }
  }
}

void Node::grow_routes() {
  std::vector<RouteSlot> old = std::move(routes_);
  const std::size_t size = old.empty() ? 16 : 2 * old.size();
  routes_.assign(size, RouteSlot{});
  route_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const RouteSlot& slot : old) {
    if (slot.next == nullptr) continue;
    std::size_t i = home(slot.key);
    while (routes_[i].next != nullptr) i = (i + 1) & (size - 1);
    routes_[i] = slot;
  }
}

void Node::receive(const Packet& packet) {
  if (packet.dst == id_) {
    if (local_) {
      local_(packet);
    } else {
      ++sink_drops_;
    }
    return;
  }
  if (!routes_.empty()) {
    const std::uint64_t key = route_key(packet.src, packet.dst);
    const std::size_t mask = routes_.size() - 1;
    for (std::size_t i = home(key); routes_[i].next != nullptr;
         i = (i + 1) & mask) {
      if (routes_[i].key == key) {
        routes_[i].next->send(packet);
        return;
      }
    }
  }
  ++routing_drops_;
}

Network::Network(Simulator& sim, std::size_t node_count) : sim_(sim) {
  nodes_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<Node>(static_cast<std::uint32_t>(i)));
  }
}

std::size_t Network::add_link(std::uint32_t from, std::uint32_t to,
                              double rate_bps, Time prop_delay_s,
                              std::size_t queue_packets) {
  CISP_REQUIRE(from < nodes_.size() && to < nodes_.size(),
               "link endpoint out of range");
  CISP_REQUIRE(from != to, "self-link");
  Node* dst_node = nodes_[to].get();
  links_.push_back(std::make_unique<Link>(
      sim_, rate_bps, prop_delay_s, queue_packets,
      [dst_node](const Packet& p) { dst_node->receive(p); }));
  link_ends_.push_back({from, to});
  return links_.size() - 1;
}

std::size_t Network::add_duplex_link(std::uint32_t a, std::uint32_t b,
                                     double rate_bps, Time prop_delay_s,
                                     std::size_t queue_packets) {
  const std::size_t first =
      add_link(a, b, rate_bps, prop_delay_s, queue_packets);
  add_link(b, a, rate_bps, prop_delay_s, queue_packets);
  return first;
}

void Network::inject(const Packet& packet) {
  CISP_REQUIRE(packet.src < nodes_.size() && packet.dst < nodes_.size(),
               "packet endpoints out of range");
  nodes_[packet.src]->receive(packet);
}

}  // namespace cisp::net
