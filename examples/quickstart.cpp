// Quickstart: design a small speed-of-light network in a few steps.
//
// Builds a coarse US scenario (synthetic terrain + towers + fiber), designs
// a hybrid MW/fiber topology for the 20 biggest population centers under a
// 600-tower budget, and reports what the network achieves. Registered as
// the `quickstart` experiment — run it via `cisp_experiments run quickstart`.

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  // 1. Substrates: terrain, tower registry, feasible microwave hops.
  design::ScenarioOptions options;
  options.fast = true;       // coarse rasters: seconds, not minutes
  options.top_cities = 60;   // cities feeding the tower registry
  const design::Scenario scenario = design::build_us_scenario(options);

  engine::ResultSet results;
  results.note("towers: " + std::to_string(scenario.tower_graph.towers.size()) +
               ", feasible MW hops: " +
               std::to_string(scenario.tower_graph.feasible_hops));

  // 2. Problem instance: 20 centers, population-product traffic, fiber
  //    fallback, 600-tower budget.
  const double budget = ctx.params.real("budget_towers", 600.0);
  const design::SiteProblem problem =
      design::city_city_problem(scenario, budget, /*max_centers=*/20);

  // 3. Solve: fiber-only baseline vs the cISP design heuristic.
  const design::Topology fiber_only =
      design::StretchEvaluator::evaluate(problem.input, {});
  const design::Topology designed = design::solve_greedy(problem.input);

  // 4. Provision capacity for 50 Gbps and get the price tag.
  design::CapacityParams cap;
  cap.aggregate_gbps = ctx.params.real("aggregate_gbps", 50.0);
  const auto plan = design::plan_capacity(problem.input, designed,
                                          problem.links,
                                          scenario.tower_graph.towers, cap);
  const auto cost = design::cost_of(plan);

  auto& summary = results.add_table("quickstart_summary",
                                    "Quickstart: designed network",
                                    {"metric", "value"});
  summary.row({"mean stretch, fiber only",
               engine::Value::real(fiber_only.mean_stretch, 3)});
  summary.row({"mean stretch, designed",
               engine::Value::real(designed.mean_stretch, 3)});
  summary.row({"MW links", designed.links.size()});
  summary.row({"towers used", engine::Value::real(designed.cost_towers, 0)});
  summary.row({"provisioned Gbps",
               engine::Value::real(cap.aggregate_gbps, 0)});
  summary.row({"hop installs", plan.installed_hop_series});
  summary.row({"new towers", plan.new_towers});
  summary.row({"cost per GB", engine::Value::money(cost.usd_per_gb)});

  // 5. A few example city pairs.
  design::StretchEvaluator eval(problem.input);
  for (const std::size_t l : designed.links) eval.add_link(l);
  auto& pairs = results.add_table("quickstart_pairs",
                                  "pair latencies (one-way)",
                                  {"from", "to", "latency_ms", "stretch"});
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{{0, 1}, {0, 2},
                                                             {1, 3}}) {
    const double ms = geo::c_latency_for_km(eval.effective_km(a, b));
    pairs.row({problem.names[a], problem.names[b],
               engine::Value::real(ms, 2),
               engine::Value::real(eval.pair_stretch(a, b), 2)});
  }
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "quickstart",
     .description = "Quickstart: design a small cISP end to end",
     .tags = {"example", "design"},
     .params = {{"budget_towers", "600", "tower budget"},
                {"aggregate_gbps", "50", "provisioned throughput"}}},
    run};

}  // namespace
