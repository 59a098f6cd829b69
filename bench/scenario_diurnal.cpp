// scenario_diurnal: a day in the life of a cISP. One design carries
// 10^5-10^6 endpoints whose offered load follows a time-of-day sinusoid
// with per-city solar timezone offsets (East Coast evening peaks lead the
// West Coast's by ~3 hours), optionally composed with a regional
// population skew. Each epoch of the UTC day is one sweep cell: the base
// demand matrix is re-phased by the diurnal scenario generator and
// realized through the selected fluid backend, reporting how served
// fraction, delay and stretch move as the load swings around the
// provisioned capacity.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto backend = bench::traffic_backend(ctx, "flow");
  CISP_REQUIRE(backend != net::TrafficBackend::Packet,
               "scenario_diurnal runs 10^5+ endpoints — use the flow or "
               "elastic backend");
  const auto users = static_cast<std::uint64_t>(ctx.params.integer(
      "users", bench::pick(ctx, 1000000, 100000)));
  const auto epochs = static_cast<std::size_t>(
      ctx.params.integer("epochs", bench::pick(ctx, 12, 6)));
  const double load_pct = ctx.params.real("load", 85.0);
  const double amplitude = ctx.params.real("amplitude", 0.6);
  const double skew_gamma = ctx.params.real("skew", 0.0);
  const double alpha = ctx.params.real("alpha", 1.0);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  CISP_REQUIRE(epochs >= 1, "at least one epoch required");

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  // Mean-activity aggregate pinned at `load` % of provisioned capacity;
  // the sinusoid then swings the instantaneous offer around it.
  net::BuildOptions build;
  build.rate_scale = 1.0;
  const double offered_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
  const double per_user_bps = offered_bps / static_cast<double>(users);
  auto base = net::flow::DemandMatrix::from_users(instance.traffic, users,
                                                  per_user_bps);
  if (skew_gamma != 0.0) {
    std::vector<std::uint64_t> pops;
    for (const auto& pc : instance.centers) pops.push_back(pc.population);
    net::scenario::RegionalSkew skew;
    skew.site_weight = net::scenario::population_skew_weights(pops,
                                                              skew_gamma);
    base = net::scenario::apply_regional_skew(base, skew);
  }

  net::scenario::DiurnalProfile profile;
  profile.tz_offset_hours =
      net::scenario::timezone_offsets(instance.problem.sites);
  profile.amplitude = amplitude;

  // The substrate never changes across the day: plan it once and hand it
  // to every epoch through the seam instead of replanning per cell.
  const net::LinkPlan link_plan =
      net::plan_links(instance.problem.input, instance.plan, build);

  std::vector<double> epoch_hours;
  for (std::size_t k = 0; k < epochs; ++k) {
    epoch_hours.push_back(24.0 * static_cast<double>(k) /
                          static_cast<double>(epochs));
  }

  engine::Grid grid;
  grid.axis("epoch_utc", epoch_hours);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        const auto demands = net::scenario::apply_diurnal(
            base, profile, point.value("epoch_utc"));
        const auto model =
            net::make_traffic_model(backend, instance.problem.input,
                                    instance.plan, build);
        net::TrafficRunOptions run_options;
        run_options.alpha = alpha;
        run_options.plan = link_plan;
        return model->run(demands, run_options);
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  results.note("design: stretch=" + fmt(instance.topo.mean_stretch, 3) +
               " mw_links=" + std::to_string(instance.plan.links.size()) +
               " backend=" + net::to_string(backend) +
               " users=" + std::to_string(users) +
               " mean-load=" + fmt(load_pct, 1) + "%");

  auto& table = results.add_table(
      "scenario_diurnal",
      "Diurnal demand: served fraction and stretch across the UTC day",
      {"epoch_utc", "offered_gbps", "served_%", "mean_delay_ms",
       "mean_stretch", "p99_pair_stretch", "max_util", "alloc_rounds"});
  for (std::size_t k = 0; k < epoch_hours.size(); ++k) {
    const net::TrafficReport& report = sweep.at(k);
    Samples pair_stretch;
    for (const auto& pair : report.pairs) pair_stretch.add(pair.stretch);
    const double served =
        report.stats.offered_bps > 0.0
            ? report.stats.delivered_bps / report.stats.offered_bps * 100.0
            : 0.0;
    table.row({engine::Value::real(epoch_hours[k], 1),
               engine::Value::real(report.stats.offered_bps / 1e9, 2),
               engine::Value::real(served, 2),
               engine::Value::real(report.stats.mean_delay_s * 1000.0, 3),
               engine::Value::real(report.stats.mean_stretch, 3),
               engine::Value::real(
                   pair_stretch.empty() ? 0.0 : pair_stretch.percentile(99.0),
                   3),
               engine::Value::real(report.stats.max_link_utilization, 2),
               static_cast<std::int64_t>(report.stats.allocation_rounds)});
  }
  results.note(
      "Expected shape: offered load follows the activity sinusoid (peaks "
      "when the\nbig East Coast metros hit the evening); served % dips only "
      "in epochs whose\noffer exceeds provisioned capacity, and stretch "
      "stays at the design value\n(routes do not move — only rates do).");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "scenario_diurnal",
     .description =
         "Diurnal demand scenario: stretch/served vs time-of-day epoch",
     .tags = {"bench", "simulation", "scenario", "scale", "sweep"},
     .params = {{"users", "1000000 (100000 in fast mode)",
                 "endpoints apportioned across city pairs"},
                {"epochs", "12 (6 in fast mode)",
                 "time-of-day sample points across the UTC day"},
                {"load", "85",
                 "mean-activity offered load, % of provisioned capacity"},
                {"amplitude", "0.6", "peak-to-mean swing of the sinusoid"},
                {"skew", "0",
                 "regional population-skew exponent (0 = proportional, > 0 "
                 "concentrates demand in large metros)"},
                {"centers", "40 (25 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"},
                bench::alpha_param(),
                bench::traffic_backend_param("flow")}},
    run};

}  // namespace
