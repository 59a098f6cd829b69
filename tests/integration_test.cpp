// Cross-module integration tests: the designed topology's predicted
// latencies must match what packets actually experience in the simulator;
// the weather study must be consistent with the outage model; and the full
// public API must compose the way the examples and benches use it.

#include <gtest/gtest.h>

#include <algorithm>

#include "cisp.hpp"

namespace cisp {
namespace {

/// Shared coarse scenario (built once for the whole file).
const design::Scenario& scenario() {
  static const design::Scenario s = [] {
    design::ScenarioOptions options;
    options.fast = true;
    options.top_cities = 50;
    return design::build_us_scenario(options);
  }();
  return s;
}

struct Designed {
  design::SiteProblem problem;
  design::Topology topology;
  design::CapacityPlan plan;
};

const Designed& designed() {
  static const Designed d = [] {
    auto problem = design::city_city_problem(scenario(), 800.0, 20);
    auto topology = design::solve_greedy(problem.input);
    design::CapacityParams cap;
    cap.aggregate_gbps = 50.0;
    auto plan = design::plan_capacity(problem.input, topology, problem.links,
                                      scenario().tower_graph.towers, cap);
    return Designed{std::move(problem), std::move(topology), std::move(plan)};
  }();
  return d;
}

TEST(Integration, SimulatedDelaysMatchDesignPredictions) {
  const auto& d = designed();
  net::BuildOptions build;
  build.rate_scale = 0.02;
  auto instance = net::build_sim(d.problem.input, d.plan, build);

  // Low load so queueing is negligible: measured one-way delay per flow
  // must equal the design's effective-km latency within the fiber-mesh
  // sparsification tolerance.
  std::vector<infra::PopulationCenter> centers = scenario().centers;
  centers.resize(20);
  const auto traffic = infra::population_product_traffic(centers);
  const auto demands = net::demands_from_traffic(traffic, 5.0, build.rate_scale);
  net::install_routes(*instance.network, instance.view, demands,
                      net::RoutingScheme::ShortestPath);
  const auto sources =
      net::attach_udp_workload(instance, demands, 0.0, 0.2, 11);
  instance.sim->run_until(0.5);

  design::StretchEvaluator eval(d.problem.input);
  for (const std::size_t l : d.topology.links) eval.add_link(l);

  std::size_t checked = 0;
  for (std::uint32_t flow_id = 0; flow_id < demands.size(); ++flow_id) {
    const auto* const measured = instance.monitor.find(flow_id);
    if (measured == nullptr || measured->received_packets < 10) continue;
    const auto& stats = *measured;
    const auto& demand = demands[flow_id];
    const double predicted_ms =
        geo::c_latency_for_km(eval.effective_km(demand.src, demand.dst));
    const double measured_ms = stats.delay_s.mean() * 1000.0;
    // Fiber mesh sparsification + serialization allow a few percent.
    EXPECT_GT(measured_ms, predicted_ms * 0.99) << flow_id;
    EXPECT_LT(measured_ms, predicted_ms * 1.12 + 0.3) << flow_id;
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

TEST(Integration, MwLinksCarryTheLatencySensitiveShare) {
  const auto& d = designed();
  // The capacity plan's MW share and the evaluator's MW-win share must
  // agree: pairs whose effective km beat fiber are exactly those routed
  // over at least one MW link.
  design::StretchEvaluator eval(d.problem.input);
  for (const std::size_t l : d.topology.links) eval.add_link(l);
  const auto& input = d.problem.input;
  double mw_share = 0.0;
  double total = 0.0;
  for (std::size_t s = 0; s < input.site_count(); ++s) {
    for (std::size_t t = 0; t < input.site_count(); ++t) {
      if (s == t) continue;
      total += input.traffic(s, t);
      if (eval.effective_km(s, t) < input.fiber_effective_km(s, t) - 1e-9) {
        mw_share += input.traffic(s, t);
      }
    }
  }
  const double plan_share = d.plan.routed_on_mw_gbps / d.plan.aggregate_gbps;
  EXPECT_NEAR(mw_share / total, plan_share, 0.02);
}

TEST(Integration, WeatherStudyConsistentWithOutageModel) {
  const auto& d = designed();
  const weather::RainField rain(scenario().region.box);
  weather::StudyParams params;
  params.days = 60;
  const auto result = weather::run_weather_study(
      d.problem, d.topology, scenario().tower_graph.towers, rain, params);
  // Best-day stretch equals the fair-weather design stretch per pair:
  // its traffic-weighted analogue cannot beat the designed topology.
  design::StretchEvaluator eval(d.problem.input);
  for (const std::size_t l : d.topology.links) eval.add_link(l);
  Samples fair;
  const std::size_t n = d.problem.input.site_count();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = s + 1; t < n; ++t) {
      fair.add(eval.pair_stretch(s, t));
    }
  }
  // The best day across the year should match fair weather closely.
  EXPECT_NEAR(result.best_stretch.median(), fair.median(), 0.02);
  // And no weather sample can beat fair weather.
  EXPECT_GE(result.best_stretch.min(), fair.min() - 1e-9);
}

TEST(Integration, EndToEndPublicApiComposition) {
  // The quickstart flow, condensed: every public piece composes.
  const auto& d = designed();
  EXPECT_GT(d.topology.links.size(), 5u);
  EXPECT_LT(d.topology.mean_stretch, 1.6);
  const auto cost = design::cost_of(d.plan);
  EXPECT_GT(cost.usd_per_gb, 0.01);
  EXPECT_LT(cost.usd_per_gb, 10.0);
  // Apps layer consumes design latencies.
  const double rtt_ms =
      2.0 * geo::c_latency_for_km(d.problem.input.fiber_effective_km(0, 1));
  const auto frame = apps::augmented_frame_time(rtt_ms * 3.0);
  EXPECT_GT(frame.mean_ms, 0.0);
}

}  // namespace
}  // namespace cisp
