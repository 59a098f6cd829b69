#pragma once
// Analytic per-flow monitors for the fluid backend — the FlowMonitor
// counterpart when no packets exist. Latency is path propagation (the
// quantity the paper's §5 experiments track: queueing is negligible below
// saturation), loss is the unserved fraction of offered demand, stretch is
// path latency over the direct geodesic latency at c, and utilization
// comes from the allocator's per-edge loads.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow/demand_matrix.hpp"
#include "net/flow/max_min.hpp"

namespace cisp::net::flow {

/// Direct (geodesic) distance oracle in km between two sites — the stretch
/// denominator. Typically DesignInput::geodesic_km.
using DirectKmFn = std::function<double(std::uint32_t, std::uint32_t)>;

/// Aggregate flow-level statistics of one allocation.
struct FlowLevelStats {
  std::size_t flows = 0;
  std::uint64_t users = 0;
  double offered_bps = 0.0;
  double delivered_bps = 0.0;
  /// 1 - delivered/offered: the fluid analogue of packet loss.
  double loss_rate = 0.0;
  /// Delivered-rate-weighted mean one-way path latency, s.
  double mean_delay_s = 0.0;
  /// Delivered-rate-weighted mean of per-pair stretch.
  double mean_stretch = 0.0;
  double max_stretch = 0.0;
  /// Mean/max of edge_load/capacity over edges carrying load.
  double mean_link_utilization = 0.0;
  double max_link_utilization = 0.0;
  std::size_t allocation_rounds = 0;
};

/// Per-city-pair outcome (one row per aggregated pair demand).
struct PairOutcome {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t users = 0;
  double offered_bps = 0.0;
  double delivered_bps = 0.0;
  double latency_s = 0.0;  ///< one-way path propagation latency
  double stretch = 0.0;    ///< path latency / direct latency at c
};

/// Aggregates pair outcomes + allocator loads into backend-comparable
/// statistics.
[[nodiscard]] FlowLevelStats summarize(
    const SimTopologyView& view, const std::vector<PairOutcome>& outcomes,
    const Allocation& allocation);

}  // namespace cisp::net::flow
