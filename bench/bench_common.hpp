#pragma once
// Shared plumbing for the experiment registration TUs in bench/ and
// examples/: scenario construction honouring the run context's fast flag,
// and fast-mode scaling helpers. Everything here is a pure function of the
// ExperimentContext — no env vars, no printing; run knobs arrive through
// the cisp_experiments driver's flags and parameter overrides.

#include <sstream>
#include <string>

#include "cisp.hpp"

namespace cisp::bench {

/// Default US scenario: full fidelity unless the run context asks for the
/// coarse (smoke-test) substrates.
inline design::Scenario us_scenario(const engine::ExperimentContext& ctx,
                                    design::ScenarioOptions options = {}) {
  options.fast = options.fast || ctx.fast;
  if (options.fast && options.top_cities > 80) options.top_cities = 80;
  return design::build_us_scenario(options);
}

inline design::Scenario eu_scenario(const engine::ExperimentContext& ctx,
                                    design::ScenarioOptions options = {}) {
  options.fast = options.fast || ctx.fast;
  if (options.fast && options.top_cities > 80) options.top_cities = 80;
  return design::build_europe_scenario(options);
}

/// Splits on a single-character delimiter, keeping empty tokens (callers
/// decide whether those are errors or skippable).
inline std::vector<std::string> split_list(const std::string& text,
                                           char delim) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(delim, begin);
    if (end == std::string::npos) end = text.size();
    tokens.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return tokens;
}

/// Scales a sweep count down in fast mode.
inline int pick(const engine::ExperimentContext& ctx, int full, int fast) {
  return ctx.fast ? fast : full;
}
inline double pick(const engine::ExperimentContext& ctx, double full,
                   double fast) {
  return ctx.fast ? fast : full;
}
inline std::size_t pick(const engine::ExperimentContext& ctx,
                        std::size_t full, std::size_t fast) {
  return ctx.fast ? fast : full;
}

// ---------------------------------------------------------------------------
// Traffic backends: shared plumbing for experiments that realize a demand
// matrix on a designed topology through the net::TrafficModel seam.
// ---------------------------------------------------------------------------

/// The declared `traffic_backend` tunable shared by simulation experiments.
inline engine::ParamSpec traffic_backend_param(
    std::string default_value = "packet") {
  return {"traffic_backend", std::move(default_value),
          "traffic realization backend: packet (DES), flow (fluid max-min "
          "rate allocation) or elastic (fluid weighted alpha-fair)"};
}

/// The declared `alpha` tunable of the elastic backend (1 = proportional
/// fairness; >= 64 recovers max-min exactly).
inline engine::ParamSpec alpha_param() {
  return {"alpha", "1",
          "elastic backend fairness exponent (1 = proportional fairness, "
          ">= 64 = max-min limit)"};
}

inline net::TrafficBackend traffic_backend(const engine::ExperimentContext& ctx,
                                           const char* fallback = "packet") {
  return net::parse_traffic_backend(
      ctx.params.text("traffic_backend", fallback));
}

/// Comma-separated backend list (the scenario experiments compare several
/// backends side by side on one grid axis): "flow,elastic" -> {Flow,
/// Elastic}.
inline std::vector<net::TrafficBackend> traffic_backend_list(
    const engine::ExperimentContext& ctx, const char* fallback) {
  std::vector<net::TrafficBackend> backends;
  for (const std::string& token :
       split_list(ctx.params.text("traffic_backend", fallback), ',')) {
    if (!token.empty()) {
      backends.push_back(net::parse_traffic_backend(token));
    }
  }
  CISP_REQUIRE(!backends.empty(), "traffic_backend list is empty");
  return backends;
}

/// One designed-and-provisioned US city-city instance plus the
/// population-product traffic over its (trimmed) centers — the setup every
/// scale/scenario experiment repeats before loading traffic.
struct DesignedInstance {
  design::SiteProblem problem;
  design::Topology topo;
  design::CapacityPlan plan;
  std::vector<infra::PopulationCenter> centers;  ///< trimmed to the problem
  std::vector<std::vector<double>> traffic;
};

inline DesignedInstance designed_instance(const engine::ExperimentContext& ctx,
                                          double budget, std::size_t centers,
                                          double aggregate_gbps = 100.0) {
  design::Scenario scenario = us_scenario(ctx);
  design::SiteProblem problem =
      design::city_city_problem(scenario, budget, centers);
  design::Topology topo = design::solve_greedy(problem.input);
  design::CapacityParams cap;
  cap.aggregate_gbps = aggregate_gbps;
  design::CapacityPlan plan = design::plan_capacity(
      problem.input, topo, problem.links, scenario.tower_graph.towers, cap);
  std::vector<infra::PopulationCenter> pcs = scenario.centers;
  if (pcs.size() > centers) pcs.resize(centers);
  auto traffic = infra::population_product_traffic(pcs);
  return {std::move(problem), std::move(topo), std::move(plan),
          std::move(pcs), std::move(traffic)};
}

/// Per-cell knobs for run_traffic_cell.
struct TrafficCell {
  net::RoutingScheme scheme = net::RoutingScheme::ShortestPath;
  double aggregate_gbps = 100.0;
  double sim_s = 0.3;          ///< packet backend: source emission window
  std::uint64_t seed = 0;      ///< packet backend: source phase seed
  double alpha = 1.0;          ///< elastic backend: fairness exponent
};

/// One traffic evaluation through the TrafficModel seam — the
/// demand-scaling / route-install / workload-attach boilerplate formerly
/// repeated by ablation_routing, fig05_perturbation and fig11_traffic_mix.
inline net::TrafficStats run_traffic_cell(
    net::TrafficBackend backend, const design::DesignInput& input,
    const design::CapacityPlan& plan, const net::BuildOptions& build,
    const std::vector<std::vector<double>>& traffic, const TrafficCell& cell) {
  const auto demands = net::flow::DemandMatrix::from_traffic(
      traffic, cell.aggregate_gbps, build.rate_scale);
  const auto model = net::make_traffic_model(backend, input, plan, build);
  net::TrafficRunOptions run;
  run.scheme = cell.scheme;
  run.sim_duration_s = cell.sim_s;
  run.seed = cell.seed;
  run.alpha = cell.alpha;
  return model->run(demands, run).stats;
}

/// The measured cISP-vs-conventional latency factor for the §7 application
/// experiments: one small designed instance evaluated through `backend`
/// over fiber + MW links, then over the fiber-only substrate.
struct AugmentationMeasurement {
  double factor = 1.0 / 3.0;
  net::TrafficStats cisp;
  net::TrafficStats conventional;
};

inline AugmentationMeasurement measure_augmentation(
    const engine::ExperimentContext& ctx, net::TrafficBackend backend) {
  const auto centers = static_cast<std::size_t>(pick(ctx, 30, 15));
  const auto instance = designed_instance(ctx, 2000.0, centers);

  net::BuildOptions build;
  build.rate_scale = pick(ctx, 0.05, 0.02);
  TrafficCell cell;
  cell.sim_s = pick(ctx, 0.2, 0.1);
  cell.seed = 4242;
  // Load far below capacity so both substrates report uncongested latency.
  cell.aggregate_gbps = 50.0;

  AugmentationMeasurement out;
  out.cisp = run_traffic_cell(backend, instance.problem.input, instance.plan,
                              build, instance.traffic, cell);
  const design::CapacityPlan fiber_only;  // no MW links: the conventional net
  out.conventional =
      run_traffic_cell(backend, instance.problem.input, fiber_only, build,
                       instance.traffic, cell);
  out.factor = apps::augmentation_factor(out.cisp, out.conventional);
  return out;
}

/// Renders an AsciiMap of the designed topology (population centers as
/// 'o', built MW links as '*') into a note-ready string.
inline std::string topology_map_note(const design::Scenario& scenario,
                                     const design::SiteProblem& problem,
                                     const design::Topology& topo,
                                     std::size_t cols, std::size_t rows,
                                     const std::string& heading) {
  std::ostringstream os;
  os << heading << '\n';
  AsciiMap map(scenario.region.box.lat_min, scenario.region.box.lat_max,
               scenario.region.box.lon_min, scenario.region.box.lon_max, cols,
               rows);
  for (const std::size_t l : topo.links) {
    const auto& cand = problem.input.candidates()[l];
    map.line(problem.sites[cand.site_a].lat_deg,
             problem.sites[cand.site_a].lon_deg,
             problem.sites[cand.site_b].lat_deg,
             problem.sites[cand.site_b].lon_deg, '*');
  }
  for (const auto& site : problem.sites) {
    map.plot(site.lat_deg, site.lon_deg, 'o');
  }
  map.print(os);
  return os.str();
}

}  // namespace cisp::bench
