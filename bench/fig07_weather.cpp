// Fig. 7: stretch across all city pairs over a year of weather. For each
// day a random 30-minute interval's precipitation knocks out MW links
// whose hops exceed their fade margins; traffic reroutes over surviving
// MW + fiber. The paper finds 99th-percentile stretch ~= fair-weather
// stretch, and median worst-case 1.7x better than fiber.
//
// Registered experiment: the day grid executes through engine::run_sweep
// inside weather::run_weather_study (one task per day, per-day seeds), so
// the year parallelizes while staying bit-identical across thread counts.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto scenario = bench::us_scenario(ctx);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 0, 30)));
  const auto problem = design::city_city_problem(
      scenario, ctx.params.real("budget", 3000.0), centers);
  const auto topo = design::solve_greedy(problem.input);

  const weather::RainField rain(scenario.region.box);
  engine::ResultSet results;
  results.note("storm cells simulated over the year: " +
               std::to_string(rain.cell_count()));

  weather::StudyParams params;
  params.days = ctx.params.integer("days", bench::pick(ctx, 365, 60));
  params.threads = ctx.threads;
  const auto result = weather::run_weather_study(
      problem, topo, scenario.tower_graph.towers, rain, params);

  auto& cdf = results.add_table(
      "fig07_weather_cdf", "Fig 7: CDF of stretch across city pairs",
      {"percentile", "best", "99th_pctile_day", "worst_day", "fiber"});
  for (const double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    cdf.row({engine::Value::real(p, 0),
             engine::Value::real(result.best_stretch.percentile(p), 3),
             engine::Value::real(result.p99_stretch.percentile(p), 3),
             engine::Value::real(result.worst_stretch.percentile(p), 3),
             engine::Value::real(result.fiber_stretch.percentile(p), 3)});
  }

  auto& summary = results.add_table("fig07_summary", "Fig 7 summary claims",
                                    {"metric", "measured", "paper"});
  summary.row({"median best (fair weather)",
               engine::Value::real(result.best_stretch.median(), 3),
               "~1.05-1.2"});
  summary.row({"median 99th-percentile day",
               engine::Value::real(result.p99_stretch.median(), 3),
               "~= best (nearly unchanged)"});
  summary.row({"median worst day",
               engine::Value::real(result.worst_stretch.median(), 3),
               "1.7x better than fiber"});
  summary.row({"median fiber",
               engine::Value::real(result.fiber_stretch.median(), 3),
               "~1.9-2.0"});
  summary.row(
      {"fiber/worst ratio (median)",
       engine::Value::real(
           result.fiber_stretch.median() / result.worst_stretch.median(), 2),
       "1.7"});
  summary.row({"mean fraction of links down",
               fmt(result.mean_links_down_fraction * 100.0, 2) + "%",
               "small"});
  summary.row({"days with any outage",
               std::to_string(result.days_with_any_outage) + "/" +
                   std::to_string(params.days),
               "-"});

  // A week of July (convective season) at 3-hour steps: which built links
  // the rain field takes down, as they happen (first 12 outages).
  const weather::OutageModel outage;
  auto& log = results.add_table("fig07_outage_log",
                                "July outage log (3-hour sampling)",
                                {"day", "link", "state"});
  for (double t = 190.0 * weather::kDayS;
       t < 197.0 * weather::kDayS && log.row_count() < 12;
       t += 3.0 * 3600.0) {
    for (const std::size_t cand : topo.links) {
      if (log.row_count() == 12) break;
      const auto& c = problem.input.candidates()[cand];
      const auto link = std::find_if(
          problem.links.begin(), problem.links.end(), [&](const auto& l) {
            return l.feasible && l.site_a == c.site_a && l.site_b == c.site_b;
          });
      if (outage.link_down(*link, scenario.tower_graph.towers, rain, t)) {
        log.row({engine::Value::real(t / weather::kDayS, 1),
                 problem.names[c.site_a] + " <-> " + problem.names[c.site_b],
                 "DOWN"});
      }
    }
  }
  if (log.row_count() == 0) results.note("(no outages in the sampled week)");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "fig07_weather",
     .description = "Fig. 7: weather-degraded stretch CDFs over a year",
     .tags = {"bench", "weather", "sweep"},
     .params = {{"days", "365 (60 in fast mode)",
                 "days simulated in the weather study"},
                {"budget", "3000", "tower budget for the design"},
                {"centers", "0 (30 in fast mode)",
                 "population centers in the design problem (0 = all)"}}},
    run};

}  // namespace
