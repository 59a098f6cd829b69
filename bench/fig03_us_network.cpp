// Fig. 3 + §4: the flagship US network — ~120 population centers, a
// 3,000-tower budget, 100 km hops, provisioned for 100 Gbps. The paper
// reports 1.05x mean stretch, 1,660/552/86 tower-tower hops needing
// +0/+1/+2 new towers per end, and $0.81/GB.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto scenario = bench::us_scenario(ctx);
  const double budget = ctx.params.real("budget", 3000.0);
  const auto problem = design::city_city_problem(scenario, budget);

  engine::ResultSet results;
  results.note("centers=" + std::to_string(problem.sites.size()) +
               " candidates=" + std::to_string(problem.input.candidates().size()) +
               " towers=" + std::to_string(scenario.tower_graph.towers.size()) +
               " feasible_hops=" +
               std::to_string(scenario.tower_graph.feasible_hops));

  const auto fiber_only = design::StretchEvaluator::evaluate(problem.input, {});
  const auto topo = design::solve_greedy(problem.input);

  design::CapacityParams cap;
  cap.aggregate_gbps = ctx.params.real("aggregate_gbps", 100.0);
  const auto plan = design::plan_capacity(problem.input, topo, problem.links,
                                          scenario.tower_graph.towers, cap);
  const auto cost = design::cost_of(plan);

  auto& summary = results.add_table(
      "fig03_summary", "Fig 3 / §4: US cISP design summary (paper values in [])",
      {"metric", "measured", "paper"});
  summary.row({"mean stretch (fiber only)",
               engine::Value::real(fiber_only.mean_stretch, 3), "1.93"});
  summary.row({"mean stretch (cISP)", engine::Value::real(topo.mean_stretch, 3),
               "1.05"});
  summary.row({"budget (towers)", engine::Value::real(budget, 0), "3000"});
  summary.row({"towers used", engine::Value::real(topo.cost_towers, 0),
               "<=3000"});
  summary.row({"MW links built", topo.links.size(), "~200"});
  summary.row({"tower-tower hops", plan.base_hops, "2298 (1660+552+86)"});
  const auto hops_extra = [&](int extra) {
    const auto it = plan.hops_by_extra.find(extra);
    return it == plan.hops_by_extra.end() ? std::size_t{0} : it->second;
  };
  std::size_t three_plus = 0;
  for (const auto& [extra, count] : plan.hops_by_extra) {
    if (extra >= 3) three_plus += count;
  }
  summary.row({"hops needing +0 towers/end", hops_extra(0), "1660"});
  summary.row({"hops needing +1 tower/end", hops_extra(1), "552"});
  summary.row({"hops needing +2 towers/end", hops_extra(2), "86"});
  summary.row({"hops needing +3 or more", three_plus, "0"});
  summary.row({"new towers built", plan.new_towers, "-"});
  summary.row({"demand carried on MW (Gbps)",
               engine::Value::real(plan.routed_on_mw_gbps, 1), "~100"});
  summary.row({"cost per GB", engine::Value::money(cost.usd_per_gb), "$0.81"});
  summary.row({"5-yr total cost ($M)",
               engine::Value::real(cost.total_usd / 1e6, 0), "-"});
  std::size_t feasible = 0;
  for (const auto& l : problem.links) feasible += l.feasible;
  summary.row({"site-to-site MW links feasible/total (candidates after "
               "pruning)",
               std::to_string(feasible) + "/" +
                   std::to_string(problem.links.size()) + " (" +
                   std::to_string(problem.input.candidates().size()) + ")",
               "-"});
  summary.row({"radio installs (hops x series)", plan.installed_hop_series,
               "-"});

  // Per-link map data (the Fig. 3 picture): endpoints, length, series.
  auto& links = results.add_table(
      "fig03_links", "Fig 3: built MW links (top 15 by traffic)",
      {"from", "to", "mw_km", "stretch", "demand_gbps", "series"});
  auto sorted = plan.links;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.demand_gbps > b.demand_gbps;
            });
  for (std::size_t i = 0; i < std::min<std::size_t>(15, sorted.size()); ++i) {
    const auto& link = sorted[i];
    const auto& cand = problem.input.candidates()[link.candidate_index];
    links.row({problem.names[link.site_a], problem.names[link.site_b],
               engine::Value::real(cand.mw_km, 0),
               engine::Value::real(
                   cand.mw_km /
                       problem.input.geodesic_km(link.site_a, link.site_b),
                   3),
               engine::Value::real(link.demand_gbps, 2),
               static_cast<std::int64_t>(link.series)});
  }

  // The Fig. 3 picture: population centers and built MW links. Fiber
  // paths (the dashed black links of the figure) are implicit wherever no
  // MW link was built.
  results.note(bench::topology_map_note(
      scenario, problem, topo, 110, 32,
      "Fig 3 map: o = population center, * = MW link"));
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "fig03_us_network",
     .description = "Fig. 3 / §4: flagship US network design summary",
     .tags = {"bench", "design", "capacity"},
     .params = {{"budget", "3000", "tower budget for the design"},
                {"aggregate_gbps", "100",
                 "aggregate throughput the capacity plan provisions"}}},
    run};

}  // namespace
