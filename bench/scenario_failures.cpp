// scenario_failures: graceful degradation under link loss. One design is
// provisioned once; the failure model then cuts MW links out of the
// backend-neutral LinkPlan BEFORE routing — deterministically (the k
// largest-capacity trunks, the adversarial case) or as seeded random
// draws with expected count k — and every fluid backend realizes the same
// demands on the degraded substrate. Since PR 7 each cell runs TWICE:
// with routes pinned latency-shortest on the degraded plan (the PR 5
// behaviour, kept as a regression anchor for its non-monotonicity
// finding) and through the control plane's incremental repair + detour
// policy, side by side in the same table.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto backends = bench::traffic_backend_list(ctx, "flow,elastic");
  for (const auto backend : backends) {
    CISP_REQUIRE(backend != net::TrafficBackend::Packet,
                 "scenario_failures compares fluid backends — packet would "
                 "need per-cell simulator rebuilds at 10^5 endpoints");
  }
  const auto users = static_cast<std::uint64_t>(
      ctx.params.integer("users", 100000));
  const double load_pct = ctx.params.real("load", 70.0);
  const double alpha = ctx.params.real("alpha", 1.0);
  const auto mode = net::scenario::parse_failure_kind(
      ctx.params.text("failure_mode", "cut"));
  CISP_REQUIRE(mode != net::scenario::FailureModel::Kind::None,
               "pick failure_mode=cut or rand (k=0 covers the no-failure "
               "baseline)");
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  const double max_stretch = ctx.params.real("max_stretch", 1e9);
  const auto detour_k =
      static_cast<std::size_t>(ctx.params.integer("detour_k", 3));

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  net::BuildOptions build;
  build.rate_scale = 1.0;
  const double offered_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
  const auto demands = net::flow::DemandMatrix::from_users(
      instance.traffic, users, offered_bps / static_cast<double>(users));
  const auto demand_list = demands.to_demands();

  // The backend-neutral substrate the failure model mutates.
  const net::LinkPlan base_plan =
      net::plan_links(instance.problem.input, instance.plan, build);
  std::size_t mw_links = 0;
  for (const auto& link : base_plan.links) mw_links += link.is_mw ? 1 : 0;

  std::vector<double> cut_counts;
  for (const int k : ctx.fast ? std::vector<int>{0, 2, 4}
                              : std::vector<int>{0, 1, 2, 4, 6, 8}) {
    if (static_cast<std::size_t>(k) <= mw_links) {
      cut_counts.push_back(static_cast<double>(k));
    }
  }

  const char* const routing_modes[] = {"pinned", "repaired"};
  constexpr std::size_t kRoutingModes = 2;

  struct Cell {
    std::size_t realized_failures = 0;
    std::size_t detoured = 0;
    std::size_t denied = 0;
    net::TrafficReport report;
  };

  engine::Grid grid;
  grid.axis("failed", cut_counts)
      .index_axis("routing", kRoutingModes)
      .index_axis("backend", backends.size());
  grid.base_seed(ctx.base_seed);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        net::scenario::FailureModel model;
        model.kind = mode;
        const auto k = static_cast<std::size_t>(point.value("failed"));
        if (mode == net::scenario::FailureModel::Kind::CutLargestK) {
          model.k = k;
        } else {
          // Expected-count parameterization; the seed depends only on the
          // `failed` axis so both routings and backends see the SAME draw.
          model.down_probability =
              mw_links > 0 ? std::min(1.0, static_cast<double>(k) /
                                               static_cast<double>(mw_links))
                           : 0.0;
          model.seed = hash_combine(splitmix64(ctx.base_seed + 17), k);
        }
        const auto outcome =
            net::scenario::apply_failures(base_plan, model);
        const auto backend = backends[point.index("backend")];
        const auto traffic_model =
            net::make_traffic_model(backend, instance.problem.input,
                                    instance.plan, build);
        net::TrafficRunOptions run_options;
        run_options.alpha = alpha;
        Cell cell;
        cell.realized_failures = outcome.failed_links.size();
        if (point.index("routing") == 0) {
          // Pinned: latency-shortest on the degraded plan (the PR 5
          // regression anchor).
          run_options.plan = outcome.plan;
          cell.report = traffic_model->run(demands, run_options);
        } else {
          // Repaired: the control plane masks the failed links on the
          // INTACT plan and hands repaired routes to the allocator.
          net::control::DetourPolicy policy;
          policy.max_stretch = max_stretch;
          policy.candidates = detour_k;
          net::control::RouteRepairer repairer(
              base_plan, demand_list, policy,
              [&](std::uint32_t s, std::uint32_t t) {
                return instance.problem.input.geodesic_km(s, t);
              });
          std::vector<net::control::LinkDelta> deltas;
          deltas.reserve(outcome.failed_links.size());
          for (const std::size_t link : outcome.failed_links) {
            deltas.push_back(net::control::LinkDelta{link, false, 1.0});
          }
          const auto stats = repairer.apply(deltas);
          cell.detoured = stats.detoured_pairs;
          cell.denied = stats.denied_pairs;
          run_options.plan = base_plan;
          run_options.routes =
              net::single_path_routes(repairer.traffic_paths());
          run_options.capacity_factor = repairer.capacity_factors();
          cell.report = traffic_model->run(demands, run_options);
        }
        return cell;
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  results.note("design: stretch=" + fmt(instance.topo.mean_stretch, 3) +
               " mw_links=" + std::to_string(mw_links) +
               " mode=" + net::scenario::to_string(mode) +
               " users=" + std::to_string(users) +
               " load=" + fmt(load_pct, 1) + "%" +
               " max_stretch=" + fmt(max_stretch, 2) +
               " detour_k=" + std::to_string(detour_k));

  auto& table = results.add_table(
      "scenario_failures",
      "Link failures: pinned vs repaired routing, per backend",
      {"failed", "routing", "backend", "realized", "served_%",
       "unserved_gbps", "p50_stretch", "p99_stretch", "detoured", "denied",
       "mean_delay_ms", "max_util"});
  for (std::size_t f = 0; f < cut_counts.size(); ++f) {
    for (std::size_t r = 0; r < kRoutingModes; ++r) {
      for (std::size_t b = 0; b < backends.size(); ++b) {
        const Cell& cell = sweep.at(
            (f * kRoutingModes + r) * backends.size() + b);
        const auto& stats = cell.report.stats;
        Samples pair_stretch;
        for (const auto& pair : cell.report.pairs) {
          if (pair.delivered_bps > 0.0) pair_stretch.add(pair.stretch);
        }
        const double served = stats.offered_bps > 0.0
                                  ? stats.delivered_bps / stats.offered_bps
                                  : 0.0;
        table.row(
            {static_cast<std::int64_t>(cut_counts[f]), routing_modes[r],
             net::to_string(backends[b]),
             static_cast<std::int64_t>(cell.realized_failures),
             engine::Value::real(served * 100.0, 2),
             engine::Value::real(
                 (stats.offered_bps - stats.delivered_bps) / 1e9, 2),
             engine::Value::real(
                 pair_stretch.empty() ? 0.0 : pair_stretch.percentile(50.0),
                 3),
             engine::Value::real(
                 pair_stretch.empty() ? 0.0 : pair_stretch.percentile(99.0),
                 3),
             static_cast<std::int64_t>(cell.detoured),
             static_cast<std::int64_t>(cell.denied),
             engine::Value::real(stats.mean_delay_s * 1000.0, 3),
             engine::Value::real(stats.max_link_utilization, 2)});
      }
    }
  }
  results.note(
      "Expected shape: cutting trunks moves the affected pairs onto fiber "
      "detours,\nso stretch percentiles climb with k. Under PINNED routing "
      "(latency-shortest\non the degraded plan — the PR 5 behaviour, kept "
      "as a regression anchor)\nunserved demand is NOT monotone in k: "
      "routes stay on surviving MW links\neven when those saturate (rates "
      "are capped, not rerouted), while a pair\nwhose trunk is fully cut "
      "falls back to plentiful fiber and is served at\nhigher stretch. "
      "Under REPAIRED routing the control plane's capacity-aware\ndetours "
      "send displaced pairs to idle fiber instead, so unserved demand "
      "is\nmonotone non-decreasing in k (and zero while fiber capacity "
      "lasts).\nFiber never fails, so every pair stays routable; `denied` "
      "counts pairs the\nmax_stretch bound refused.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "scenario_failures",
     .description =
         "Failure scenario: pinned vs repaired routing, stretch/unserved vs "
         "failed-link count per backend",
     .tags = {"bench", "simulation", "scenario", "sweep"},
     .params = {{"users", "100000", "endpoints apportioned across pairs"},
                {"load", "70", "offered load, % of provisioned capacity"},
                {"failure_mode", "cut",
                 "cut (deterministic largest-k) or rand (seeded draws with "
                 "expected count k)"},
                {"centers", "40 (25 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"},
                {"max_stretch", "1e9",
                 "repaired routing: detour stretch bound (effectively "
                 "unbounded by default)"},
                {"detour_k", "3",
                 "repaired routing: Yen candidates per displaced pair"},
                bench::alpha_param(),
                bench::traffic_backend_param("flow,elastic")}},
    run};

}  // namespace
