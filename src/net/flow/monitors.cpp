#include "net/flow/monitors.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cisp::net::flow {

FlowLevelStats summarize(const SimTopologyView& view,
                         const std::vector<PairOutcome>& outcomes,
                         const Allocation& allocation) {
  FlowLevelStats stats;
  stats.flows = outcomes.size();
  stats.allocation_rounds = allocation.rounds;
  double delay_acc = 0.0;
  double stretch_acc = 0.0;
  for (const PairOutcome& row : outcomes) {
    stats.users += row.users;
    stats.offered_bps += row.offered_bps;
    stats.delivered_bps += row.delivered_bps;
    delay_acc += row.latency_s * row.delivered_bps;
    stretch_acc += row.stretch * row.delivered_bps;
    stats.max_stretch = std::max(stats.max_stretch, row.stretch);
  }
  if (stats.delivered_bps > 0.0) {
    stats.mean_delay_s = delay_acc / stats.delivered_bps;
    stats.mean_stretch = stretch_acc / stats.delivered_bps;
  }
  if (stats.offered_bps > 0.0) {
    stats.loss_rate =
        std::max(0.0, 1.0 - stats.delivered_bps / stats.offered_bps);
  }

  CISP_REQUIRE(
      allocation.edge_load_bps.size() == view.capacity_bps.size(),
      "allocation/view size mismatch");
  double util_acc = 0.0;
  std::size_t loaded = 0;
  for (std::size_t e = 0; e < allocation.edge_load_bps.size(); ++e) {
    if (allocation.edge_load_bps[e] <= 0.0 || view.capacity_bps[e] <= 0.0) {
      continue;
    }
    const double util = allocation.edge_load_bps[e] / view.capacity_bps[e];
    util_acc += util;
    ++loaded;
    stats.max_link_utilization = std::max(stats.max_link_utilization, util);
  }
  if (loaded > 0) stats.mean_link_utilization = util_acc / loaded;
  return stats;
}

}  // namespace cisp::net::flow
