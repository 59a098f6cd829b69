#pragma once
// Umbrella header for the cISP library: a complete reproduction of
// "cISP: A Speed-of-Light Internet Service Provider" (NSDI 2022).
//
// Subsystem map (see DESIGN.md for the full inventory):
//   util/     deterministic RNG, statistics, table output
//   geo/      great-circle geometry and latency arithmetic
//   terrain/  synthetic elevation + clutter (SRTM/NED substitute)
//   rf/       Fresnel clearance, rain attenuation, fade margins
//   infra/    cities, tower registry, fiber conduits (data substitutes)
//   graph/    Dijkstra, k-shortest paths, max-flow, concurrent flow
//   lp/       two-phase simplex (Gurobi substitute for the LP relaxations)
//   design/   the paper's pipeline: hops -> links -> topology -> capacity
//   net/      traffic backends behind the TrafficModel seam: packet-level
//             discrete-event simulator (ns-3 substitute) + fluid flow-level
//             max-min allocation (net/flow/) for millions-of-users scale
//   weather/  storm process + outage model + year-long study
//   apps/     gaming, web-browsing and economic models

#include "apps/augmentation.hpp"  // IWYU pragma: export
#include "apps/econ.hpp"        // IWYU pragma: export
#include "apps/gaming.hpp"      // IWYU pragma: export
#include "apps/web.hpp"         // IWYU pragma: export
#include "design/capacity.hpp"  // IWYU pragma: export
#include "design/cost_model.hpp"  // IWYU pragma: export
#include "design/exact.hpp"     // IWYU pragma: export
#include "design/export.hpp"    // IWYU pragma: export
#include "design/parallel_series.hpp"  // IWYU pragma: export
#include "design/greedy.hpp"    // IWYU pragma: export
#include "design/lp_rounding.hpp"  // IWYU pragma: export
#include "design/scenario.hpp"  // IWYU pragma: export
#include "engine/collector.hpp"   // IWYU pragma: export
#include "engine/executor.hpp"    // IWYU pragma: export
#include "engine/experiment.hpp"  // IWYU pragma: export
#include "engine/report.hpp"      // IWYU pragma: export
#include "engine/result.hpp"      // IWYU pragma: export
#include "engine/runner.hpp"      // IWYU pragma: export
#include "engine/sweep.hpp"       // IWYU pragma: export
#include "geo/geodesic.hpp"     // IWYU pragma: export
#include "geo/spatial_index.hpp"  // IWYU pragma: export
#include "graph/dijkstra.hpp"   // IWYU pragma: export
#include "graph/ksp.hpp"        // IWYU pragma: export
#include "graph/maxflow.hpp"    // IWYU pragma: export
#include "graph/mcf.hpp"        // IWYU pragma: export
#include "infra/databases.hpp"  // IWYU pragma: export
#include "infra/fiber.hpp"      // IWYU pragma: export
#include "infra/towers.hpp"     // IWYU pragma: export
#include "lp/simplex.hpp"       // IWYU pragma: export
#include "net/builder.hpp"      // IWYU pragma: export
#include "net/control/candidate_racing.hpp"  // IWYU pragma: export
#include "net/control/route_repair.hpp"      // IWYU pragma: export
#include "net/control/weather_coupling.hpp"  // IWYU pragma: export
#include "net/flow/alpha_fair.hpp"  // IWYU pragma: export
#include "net/flow/multipath.hpp"   // IWYU pragma: export
#include "net/scenario/demand_scenario.hpp"  // IWYU pragma: export
#include "net/scenario/failure_model.hpp"    // IWYU pragma: export
#include "net/te/split.hpp"     // IWYU pragma: export
#include "net/tcp.hpp"          // IWYU pragma: export
#include "net/traffic_model.hpp"  // IWYU pragma: export
#include "rf/fresnel.hpp"       // IWYU pragma: export
#include "rf/link_budget.hpp"   // IWYU pragma: export
#include "rf/rain.hpp"          // IWYU pragma: export
#include "rf/technology.hpp"    // IWYU pragma: export
#include "terrain/regions.hpp"  // IWYU pragma: export
#include "util/ascii_map.hpp"   // IWYU pragma: export
#include "util/table.hpp"       // IWYU pragma: export
#include "weather/study.hpp"    // IWYU pragma: export
