#pragma once
// Network topology container: nodes that forward packets along statically
// installed per-(src,dst) routes, links between them, and local delivery
// to attached applications.

#include <memory>
#include <vector>

#include "net/link.hpp"

namespace cisp::net {

class Network;

/// A router/host. Forwarding is per (src, dst) pair so path-based routing
/// schemes (min-max utilization, throughput-optimal) can install
/// non-destination-based routes.
class Node {
 public:
  using LocalDeliverFn = std::function<void(const Packet&)>;

  explicit Node(std::uint32_t id) : id_(id) {}

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  void set_local_deliver(LocalDeliverFn fn) { local_ = std::move(fn); }
  /// Installs the next-hop link for packets of (src, dst).
  void set_route(std::uint32_t src, std::uint32_t dst, Link* next);

  /// Receives a packet: delivers locally or forwards. Packets with no
  /// installed route are counted as routing drops, packets addressed to
  /// this node while it has no local sink as sink drops.
  void receive(const Packet& packet);

  [[nodiscard]] std::uint64_t routing_drops() const noexcept {
    return routing_drops_;
  }
  [[nodiscard]] std::uint64_t sink_drops() const noexcept {
    return sink_drops_;
  }

 private:
  friend class Network;

  /// One slot of the route table; `next == nullptr` marks it empty.
  struct RouteSlot {
    std::uint64_t key = 0;  ///< src << 32 | dst
    Link* next = nullptr;
  };
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    route_shift_);
  }
  void grow_routes();

  std::uint32_t id_;
  LocalDeliverFn local_;
  /// Open-addressing route table (linear probing, power-of-two size, at
  /// most half full): one multiply, a shift and usually one slot read
  /// per forwarded packet.
  std::vector<RouteSlot> routes_;
  unsigned route_shift_ = 64;
  std::size_t route_count_ = 0;
  std::uint64_t routing_drops_ = 0;
  std::uint64_t sink_drops_ = 0;
};

/// Owns the simulator wiring of nodes and links.
class Network {
 public:
  Network(Simulator& sim, std::size_t node_count);

  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_[i]; }

  /// Adds a unidirectional link a -> b; returns its index.
  std::size_t add_link(std::uint32_t from, std::uint32_t to, double rate_bps,
                       Time prop_delay_s,
                       std::size_t queue_packets = 1000);
  /// Adds both directions with identical parameters; returns the index of
  /// the a -> b direction (b -> a is the next index).
  std::size_t add_duplex_link(std::uint32_t a, std::uint32_t b,
                              double rate_bps, Time prop_delay_s,
                              std::size_t queue_packets = 1000);

  [[nodiscard]] Link& link(std::size_t i) { return *links_[i]; }
  [[nodiscard]] const Link& link(std::size_t i) const { return *links_[i]; }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] std::uint32_t link_from(std::size_t i) const {
    return link_ends_[i].first;
  }
  [[nodiscard]] std::uint32_t link_to(std::size_t i) const {
    return link_ends_[i].second;
  }

  /// Injects a packet at its source node (applications call this).
  void inject(const Packet& packet);

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> link_ends_;
};

}  // namespace cisp::net
