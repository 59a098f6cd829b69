#include "setup.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace perfbench {

using namespace cisp;

namespace {

constexpr std::size_t kCenters = 40;
constexpr double kBudgetTowers = 3000.0;
/// The substrate (terrain detail + tower registry) is the same in every
/// run: the design moves by ~10% in stretch from one substrate seed to
/// the next (1.14-1.30 over seeds 1-5), so --seed drives only the rain
/// field and the packet sources.
constexpr std::uint64_t kScenarioSeed = 2022;

design::ScenarioOptions scenario_options() {
  design::ScenarioOptions options;
  options.seed = kScenarioSeed;
  options.top_cities = 80;
  options.fast = true;
  return options;
}

/// The fast-mode branch of design::build_us_scenario, assembled call by
/// call so every substrate layer gets its own clock. Traced set-ups only;
/// check_layered_setup holds it to the library's own build.
design::Scenario scenario_by_layer(SetupLayers& layers) {
  design::ScenarioOptions options = scenario_options();
  options.hop.profile_step_km = std::max(options.hop.profile_step_km, 2.0);
  options.towers.rural_towers =
      std::min<std::size_t>(options.towers.rural_towers, 4500);
  options.towers.metro_scale = std::min(options.towers.metro_scale, 6.0);
  options.towers.corridor_towers_per_100km =
      std::min(options.towers.corridor_towers_per_100km, 4.0);
  options.towers.seed = options.seed;

  design::Scenario scenario;
  scenario.name = "us";
  scenario.region = terrain::contiguous_us(options.seed);
  scenario.region.raster_cell_deg = 0.05;
  scenario.options = options;
  scenario.raster = timed(layers.raster_ms, [&] {
    return std::make_shared<const terrain::RasterTerrain>(
        scenario.region.make_terrain(), scenario.region.box,
        scenario.region.raster_cell_deg);
  });
  layers.cells = scenario.raster->cell_count();

  scenario.cities = infra::top_cities(infra::us_cities(), options.top_cities);
  scenario.centers =
      infra::coalesce_cities(scenario.cities, options.coalesce_km);
  auto towers = timed(layers.towers_ms, [&] {
    return infra::generate_towers(scenario.region, scenario.cities,
                                  options.towers);
  });
  layers.towers = towers.size();
  scenario.tower_graph = timed(layers.hop_graph_ms, [&] {
    return design::build_tower_graph(*scenario.raster, std::move(towers),
                                     options.hop);
  });
  layers.feasible_hops = scenario.tower_graph.feasible_hops;
  return scenario;
}

}  // namespace

Instance build_instance(std::size_t threads, bool traced,
                        SetupLayers& layers) {
  const design::Scenario scenario =
      traced ? scenario_by_layer(layers)
             : design::build_us_scenario(scenario_options());

  auto problem = timed(layers.problem_ms, [&] {
    return design::city_city_problem(scenario, kBudgetTowers, kCenters);
  });
  layers.candidates = problem.input.candidates().size();
  if (traced) {
    // Link engineering is the first half of city_city_problem; a traced
    // set-up repeats it alone to give it its own clock.
    timed(layers.link_eng_ms, [&] {
      return design::engineer_links(scenario.tower_graph, problem.sites,
                                    scenario.options.link)
          .size();
    });
  }
  design::GreedyOptions greedy;
  greedy.solver.threads = threads;
  auto topo = timed(layers.greedy_ms, [&] {
    return design::solve_greedy(problem.input, greedy);
  });
  design::CapacityParams cap;
  cap.aggregate_gbps = kAggregateGbps;
  auto plan = timed(layers.capacity_ms, [&] {
    return design::plan_capacity(problem.input, topo, problem.links,
                                 scenario.tower_graph.towers, cap);
  });
  auto centers = scenario.centers;
  if (centers.size() > kCenters) centers.resize(kCenters);
  return {std::move(problem), std::move(topo), std::move(plan),
          infra::population_product_traffic(centers)};
}

void check_layered_setup(const Instance& layered, std::size_t threads) {
  SetupLayers unused;
  const Instance library = build_instance(threads, /*traced=*/false, unused);
  if (library.problem.input.candidates().size() !=
          layered.problem.input.candidates().size() ||
      library.topo.mean_stretch != layered.topo.mean_stretch) {
    throw std::runtime_error(
        "the layer-by-layer set-up designs another network than "
        "design::build_us_scenario");
  }
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
