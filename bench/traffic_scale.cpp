// traffic_scale: the millions-of-users experiment the flow backend exists
// for. A cISP is designed and provisioned once; the endpoint count then
// sweeps decades from 10^3 to `users` (default 10^6), each scale
// apportioning that many users across city pairs (largest-remainder over
// the population-product matrix) and realizing them as aggregated fluid
// flows — memory stays O(city_pairs) no matter how many users ride.
//
// Reports per-scale delay/stretch/served-fraction/utilization plus the
// per-city-pair stretch breakdown at the largest scale. Scales run as
// parallel sweep cells. The packet backend (calendar-queue DES with
// packet arenas) is allowed up to 2e5 endpoints; beyond that, per-packet
// state outruns memory at 10^6 users' rates and the fluid backends are
// the right tool.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto backend = bench::traffic_backend(ctx, "flow");
  const auto max_users = static_cast<std::uint64_t>(ctx.params.integer(
      "users", bench::pick(ctx, 1000000, 100000)));
  const double per_user_kbps = ctx.params.real("per_user_kbps", 100.0);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  CISP_REQUIRE(max_users >= 1000, "users must be at least 1000");
  CISP_REQUIRE(backend != net::TrafficBackend::Packet || max_users <= 200000,
               "packet backend is capped at 2e5 endpoints — use "
               "--set traffic_backend=flow (or elastic) for larger scales");

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  std::vector<double> scales;
  for (std::uint64_t users = 1000; users < max_users; users *= 10) {
    scales.push_back(static_cast<double>(users));
  }
  scales.push_back(static_cast<double>(max_users));

  // Each user offers per_user_kbps until the aggregate hits the target
  // load of the provisioned capacity (beyond that the per-user rate
  // shrinks — the network is the limit, as in the paper's load sweeps).
  // Flow capacities are left unscaled (rate_scale = 1): no packets exist,
  // so there is nothing to thin out.
  net::BuildOptions build;
  build.rate_scale =
      backend == net::TrafficBackend::Packet ? bench::pick(ctx, 0.05, 0.02)
                                             : 1.0;
  const double load_pct = ctx.params.real("load", 70.0);

  engine::Grid grid;
  grid.axis("users", scales);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        const auto users = static_cast<std::uint64_t>(point.value("users"));
        const double load_cap_bps =
            kAggregateGbps * 1e9 * load_pct / 100.0;
        const double offered_bps = std::min(
            static_cast<double>(users) * per_user_kbps * 1e3, load_cap_bps);
        const double per_user_bps =
            offered_bps / static_cast<double>(users) * build.rate_scale;
        const auto demands = net::flow::DemandMatrix::from_users(
            instance.traffic, users, per_user_bps);
        const auto model =
            net::make_traffic_model(backend, instance.problem.input,
                                    instance.plan, build);
        net::TrafficRunOptions run_options;
        run_options.sim_duration_s = bench::pick(ctx, 0.2, 0.1);
        run_options.seed = 21;
        return model->run(demands, run_options);
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  results.note("design: stretch=" + fmt(instance.topo.mean_stretch, 3) +
               " mw_links=" + std::to_string(instance.plan.links.size()) +
               " backend=" + net::to_string(backend));

  auto& table = results.add_table(
      "traffic_scale",
      "Traffic scale: fixed design load aggregated over growing user counts",
      {"users", "flows", "offered_gbps", "served_%", "mean_delay_ms",
       "mean_stretch", "p95_pair_stretch", "max_util", "alloc_rounds"});
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const net::TrafficReport& report = sweep.at(s);
    Samples pair_stretch;
    for (const auto& pair : report.pairs) pair_stretch.add(pair.stretch);
    const double served =
        report.stats.offered_bps > 0.0
            ? report.stats.delivered_bps / report.stats.offered_bps * 100.0
            : 0.0;
    table.row({static_cast<std::int64_t>(report.stats.users),
               static_cast<std::int64_t>(report.stats.flows),
               // Un-thin the packet backend's rate_scale so the offered
               // column is comparable across backends and to `load`.
               engine::Value::real(
                   report.stats.offered_bps / 1e9 / build.rate_scale, 2),
               engine::Value::real(served, 2),
               engine::Value::real(report.stats.mean_delay_s * 1000.0, 3),
               engine::Value::real(report.stats.mean_stretch, 3),
               engine::Value::real(
                   pair_stretch.empty() ? 0.0 : pair_stretch.percentile(95.0),
                   3),
               engine::Value::real(
                   backend == net::TrafficBackend::Packet
                       ? report.stats.predicted_max_utilization
                       : report.stats.max_link_utilization,
                   2),
               static_cast<std::int64_t>(report.stats.allocation_rounds)});
  }

  // Per-city-pair stretch at the largest scale: the heaviest pairs by
  // assigned users (the acceptance quantity — stretch is reported per
  // pair, not only in aggregate).
  const net::TrafficReport& largest = sweep.at(scales.size() - 1);
  std::vector<std::size_t> order(largest.pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (largest.pairs[a].users != largest.pairs[b].users) {
      return largest.pairs[a].users > largest.pairs[b].users;
    }
    return a < b;
  });
  auto& pairs_table = results.add_table(
      "traffic_scale_pairs",
      "Per-city-pair stretch at the largest scale (top pairs by users)",
      {"src", "dst", "users", "latency_ms", "stretch", "served_%"});
  const std::size_t top = std::min<std::size_t>(order.size(), 15);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& pair = largest.pairs[order[i]];
    const double served = pair.offered_bps > 0.0
                              ? pair.delivered_bps / pair.offered_bps * 100.0
                              : 0.0;
    const auto& names = instance.problem.names;
    pairs_table.row(
        {pair.src < names.size() ? names[pair.src]
                                 : std::to_string(pair.src),
         pair.dst < names.size() ? names[pair.dst]
                                 : std::to_string(pair.dst),
         static_cast<std::int64_t>(pair.users),
         engine::Value::real(pair.latency_s * 1000.0, 3),
         engine::Value::real(pair.stretch, 3),
         engine::Value::real(served, 1)});
  }
  results.note(
      "Expected shape: offered load grows with the user base until it hits "
      "the\ntarget load; delay/stretch stay near the design values and "
      "served % ~100\nbelow capacity. The flow backend's cost is "
      "O(city_pairs) — 10^6 users run\nin the same memory as 10^3.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "traffic_scale",
     .description =
         "Flow-level scale sweep: 10^3..10^6+ endpoints on one design",
     .tags = {"bench", "simulation", "scale", "sweep"},
     .params = {{"users", "1000000 (100000 in fast mode)",
                 "largest endpoint count in the sweep"},
                {"per_user_kbps", "100",
                 "per-user offered rate; the aggregate is capped at `load` "
                 "% of provisioned capacity"},
                {"load", "70", "offered load, % of provisioned capacity"},
                {"centers", "40 (25 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"},
                bench::traffic_backend_param("flow")}},
    run};

}  // namespace
