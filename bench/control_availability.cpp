// control_availability: a year of weather-driven topology churn through
// the failure-reactive control plane. One design is provisioned once; the
// synthetic rain field derates/downs MW links epoch by epoch (rain
// attenuation vs fade margin, weather_coupling); the RouteRepairer
// incrementally repairs only the affected city pairs under a
// stretch-bounded detour policy; and the fluid backends realize the same
// 10^5-endpoint demand matrix on every degraded substrate. Emits per-pair
// availability percentiles (fraction of epochs a pair was served) per
// stretch bound and backend — the stretch/availability frontier — plus
// the weather-calibrated FailureModel::RandomDown probabilities as a
// note, closing the loop between fig07-class weather and the failure
// scenarios.

#include <algorithm>
#include <string>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto backends = bench::traffic_backend_list(ctx, "flow,elastic");
  for (const auto backend : backends) {
    CISP_REQUIRE(backend != net::TrafficBackend::Packet,
                 "control_availability sweeps thousands of epochs — fluid "
                 "backends only");
  }
  const auto users = static_cast<std::uint64_t>(
      ctx.params.integer("users", 100000));
  const double load_pct = ctx.params.real("load", 70.0);
  const double alpha = ctx.params.real("alpha", 1.0);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  const auto epochs = static_cast<std::size_t>(
      ctx.params.integer("epochs", bench::pick(ctx, 1460, 96)));
  CISP_REQUIRE(epochs >= 1, "need at least one epoch");
  // A pair is "available" in an epoch when it gets at least this fraction
  // of its offered demand.
  const double served_frac = ctx.params.real("served_frac", 0.99);
  const auto detour_k =
      static_cast<std::size_t>(ctx.params.integer("detour_k", 3));

  std::vector<double> stretch_bounds;
  for (const std::string& token : bench::split_list(
           ctx.params.text("max_stretch", "1.2,1.5,2.5,1e9"), ',')) {
    if (!token.empty()) stretch_bounds.push_back(std::stod(token));
  }
  CISP_REQUIRE(!stretch_bounds.empty(), "max_stretch list is empty");

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  net::BuildOptions build;
  build.rate_scale = 1.0;
  const double offered_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
  const auto demands = net::flow::DemandMatrix::from_users(
      instance.traffic, users, offered_bps / static_cast<double>(users));
  const auto demand_list = demands.to_demands();

  const net::LinkPlan base_plan =
      net::plan_links(instance.problem.input, instance.plan, build);
  std::size_t mw_links = 0;
  for (const auto& link : base_plan.links) mw_links += link.is_mw ? 1 : 0;

  // The weather pipeline: one rain field over the design's bounding box,
  // per-link geometry, and per-epoch capacity factors precomputed ONCE
  // and replayed across every sweep cell (the cells differ only in how
  // routing reacts).
  terrain::BoundingBox box;
  box.lat_min = 90.0;
  box.lat_max = -90.0;
  box.lon_min = 180.0;
  box.lon_max = -180.0;
  for (const auto& site : instance.problem.sites) {
    box.lat_min = std::min(box.lat_min, site.lat_deg - 2.0);
    box.lat_max = std::max(box.lat_max, site.lat_deg + 2.0);
    box.lon_min = std::min(box.lon_min, site.lon_deg - 2.0);
    box.lon_max = std::max(box.lon_max, site.lon_deg + 2.0);
  }
  weather::RainParams rain_params;
  rain_params.seed = splitmix64(ctx.base_seed + 7);
  const weather::RainField rain(box, rain_params);
  const net::control::LinkWeatherSampler sampler(
      base_plan,
      net::control::link_geometry(base_plan, instance.problem.sites));

  std::vector<std::vector<double>> epoch_factors(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const double t_s = (static_cast<double>(e) + 0.5) * weather::kYearS /
                       static_cast<double>(epochs);
    sampler.factors(rain.snapshot(t_s), epoch_factors[e]);
  }

  // The FailureModel coupling: the same pipeline calibrates RandomDown's
  // per-link probabilities from the year of samples.
  std::vector<double> down_p(base_plan.links.size(), 0.0);
  std::size_t down_link_epochs = 0;
  for (const auto& factors : epoch_factors) {
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (base_plan.links[i].is_mw && factors[i] == 0.0) {
        down_p[i] += 1.0;
        ++down_link_epochs;
      }
    }
  }
  double max_p = 0.0;
  for (std::size_t i = 0; i < down_p.size(); ++i) {
    down_p[i] /= static_cast<double>(epochs);
    max_p = std::max(max_p, down_p[i]);
  }
  net::scenario::FailureModel coupled;
  coupled.kind = net::scenario::FailureModel::Kind::RandomDown;
  coupled.per_link_down_probability = down_p;
  coupled.seed = hash_combine(splitmix64(ctx.base_seed), 23);
  const auto coupled_draw = net::scenario::apply_failures(base_plan, coupled);

  struct Cell {
    double served_mean = 0.0;
    double served_min = 1.0;
    double avail_p50 = 0.0;
    double avail_p10 = 0.0;
    double avail_p01 = 0.0;
    double avail_min = 0.0;
    double p99_stretch_med = 0.0;
    double p99_stretch_max = 0.0;
    double denied_pair_frac = 0.0;
    double touched_pairs_mean = 0.0;
    std::size_t repaired_epochs = 0;
  };

  engine::Grid grid;
  grid.axis("max_stretch", stretch_bounds)
      .index_axis("backend", backends.size());
  grid.base_seed(ctx.base_seed);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        net::control::DetourPolicy policy;
        policy.max_stretch = point.value("max_stretch");
        policy.candidates = detour_k;
        net::control::RouteRepairer repairer(
            base_plan, demand_list, policy,
            [&](std::uint32_t s, std::uint32_t t) {
              return instance.problem.input.geodesic_km(s, t);
            });
        const auto backend = backends[point.index("backend")];
        const auto traffic_model =
            net::make_traffic_model(backend, instance.problem.input,
                                    instance.plan, build);

        const std::size_t pair_count = demands.pairs().size();
        std::vector<std::uint32_t> available(pair_count, 0);
        Samples epoch_p99;
        double served_acc = 0.0;
        double denied_acc = 0.0;
        double touched_acc = 0.0;
        Cell cell;
        for (std::size_t e = 0; e < epochs; ++e) {
          const auto deltas = net::control::deltas_from_factors(
              base_plan, epoch_factors[e], repairer.link_state());
          const auto repair = repairer.apply(deltas);
          if (!deltas.empty()) ++cell.repaired_epochs;
          touched_acc += static_cast<double>(repair.touched_pairs);
          denied_acc += static_cast<double>(repair.denied_pairs);

          net::TrafficRunOptions run_options;
          run_options.alpha = alpha;
          run_options.plan = base_plan;
          run_options.routes =
              net::single_path_routes(repairer.traffic_paths());
          run_options.capacity_factor = repairer.capacity_factors();
          const auto report = traffic_model->run(demands, run_options);

          Samples pair_stretch;
          for (std::size_t p = 0; p < report.pairs.size(); ++p) {
            const auto& pair = report.pairs[p];
            if (pair.offered_bps <= 0.0 ||
                pair.delivered_bps >= served_frac * pair.offered_bps) {
              ++available[p];
            }
            if (pair.delivered_bps > 0.0) pair_stretch.add(pair.stretch);
          }
          if (!pair_stretch.empty()) {
            epoch_p99.add(pair_stretch.percentile(99.0));
          }
          served_acc += report.stats.offered_bps > 0.0
                            ? report.stats.delivered_bps /
                                  report.stats.offered_bps
                            : 1.0;
          cell.served_min = std::min(
              cell.served_min, report.stats.offered_bps > 0.0
                                   ? report.stats.delivered_bps /
                                         report.stats.offered_bps
                                   : 1.0);
        }

        Samples avail;
        for (const std::uint32_t count : available) {
          avail.add(static_cast<double>(count) /
                    static_cast<double>(epochs));
        }
        cell.served_mean = served_acc / static_cast<double>(epochs);
        cell.avail_p50 = avail.percentile(50.0);
        cell.avail_p10 = avail.percentile(10.0);
        cell.avail_p01 = avail.percentile(1.0);
        cell.avail_min = avail.percentile(0.0);
        cell.p99_stretch_med =
            epoch_p99.empty() ? 0.0 : epoch_p99.percentile(50.0);
        cell.p99_stretch_max =
            epoch_p99.empty() ? 0.0 : epoch_p99.percentile(100.0);
        cell.denied_pair_frac =
            denied_acc / static_cast<double>(epochs) /
            static_cast<double>(pair_count);
        cell.touched_pairs_mean =
            touched_acc / static_cast<double>(epochs);
        return cell;
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  results.note(
      "design: stretch=" + fmt(instance.topo.mean_stretch, 3) +
      " mw_links=" + std::to_string(mw_links) +
      " users=" + std::to_string(users) + " load=" + fmt(load_pct, 1) +
      "% epochs=" + std::to_string(epochs) +
      " served_frac=" + fmt(served_frac, 3));
  results.note(
      "weather-calibrated RandomDown coupling: mean link-down epochs/yr=" +
      fmt(mw_links > 0 ? static_cast<double>(down_link_epochs) /
                             static_cast<double>(mw_links)
                       : 0.0,
          2) +
      " max per-link p=" + fmt(max_p, 4) + " (one seeded draw fails " +
      std::to_string(coupled_draw.failed_links.size()) + "/" +
      std::to_string(mw_links) + " MW links)");

  auto& table = results.add_table(
      "control_availability",
      "Weather-driven availability: per-pair availability percentiles vs "
      "detour stretch bound",
      {"max_stretch", "backend", "epochs", "repaired", "served_%",
       "min_served_%", "avail_p50", "avail_p10", "avail_p01", "avail_min",
       "p99_stretch", "p99_stretch_max", "denied_%", "touched_pairs"});
  for (std::size_t s = 0; s < stretch_bounds.size(); ++s) {
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const Cell& cell = sweep.at(s * backends.size() + b);
      table.row({engine::Value::real(stretch_bounds[s], 2),
                 net::to_string(backends[b]),
                 static_cast<std::int64_t>(epochs),
                 static_cast<std::int64_t>(cell.repaired_epochs),
                 engine::Value::real(cell.served_mean * 100.0, 3),
                 engine::Value::real(cell.served_min * 100.0, 3),
                 engine::Value::real(cell.avail_p50, 4),
                 engine::Value::real(cell.avail_p10, 4),
                 engine::Value::real(cell.avail_p01, 4),
                 engine::Value::real(cell.avail_min, 4),
                 engine::Value::real(cell.p99_stretch_med, 3),
                 engine::Value::real(cell.p99_stretch_max, 3),
                 engine::Value::real(cell.denied_pair_frac * 100.0, 3),
                 engine::Value::real(cell.touched_pairs_mean, 1)});
    }
  }
  results.note(
      "Expected shape: a loose stretch bound buys availability (displaced "
      "pairs\ndetour over fiber and stay served); a tight bound trades it "
      "away (pairs are\ndenied rather than stretched, so avail percentiles "
      "drop while p99 stretch\nstays low). touched_pairs is the mean "
      "repair working set per epoch — far\nbelow the pair count, which is "
      "what makes the year cheap.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "control_availability",
     .description =
         "Control plane: a year of weather epochs through derate -> "
         "incremental repair -> traffic, per-pair availability percentiles "
         "vs detour stretch bound",
     .tags = {"bench", "simulation", "scenario", "control", "sweep"},
     .params =
         {{"users", "100000", "endpoints apportioned across pairs"},
          {"load", "70", "offered load, % of provisioned capacity"},
          {"epochs", "1460 (96 in fast mode)",
           "weather epochs spread across the simulated year"},
          {"max_stretch", "1.2,1.5,2.5,1e9",
           "detour stretch bounds swept as an axis"},
          {"detour_k", "3", "Yen candidates per displaced pair"},
          {"served_frac", "0.99",
           "delivered/offered threshold counting a pair available"},
          {"centers", "40 (25 in fast mode)",
           "population centers in the design problem"},
          {"budget", "3000", "tower budget for the design"},
          bench::alpha_param(),
          bench::traffic_backend_param("flow,elastic")}},
    run};

}  // namespace
