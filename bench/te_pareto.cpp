// te_pareto: the multipath story on the backend_fairness fixture. One
// cISP is designed and provisioned for the 4:3:3 blend; the same
// user-apportioned demands are then routed three ways at several load
// points, with and without adversarial trunk cuts:
//
//   * shortest — single latency-shortest path per pair on the (possibly
//     degraded) plan: the PR 5 baseline every earlier experiment used;
//   * te       — net/te/solve_splits: per-pair weighted splits over the
//     k-shortest + disjoint + MCF candidate pool, minimizing max link
//     utilization subject to the SAME stretch bound, realized as
//     weighted subflows through the max-min allocator;
//   * racing   — per-flow happy-eyeballs: the control plane's repaired
//     MW route races the fiber fallback per pair, the earliest
//     handshake wins (control/candidate_racing.hpp).
//
// Together the rows trace the stretch/throughput/fairness Pareto
// surface: TE buys served throughput at bounded stretch by spreading
// aggregates, racing buys availability (denied pairs recover on fiber)
// at per-pair fiber latency.

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto users = static_cast<std::uint64_t>(ctx.params.integer(
      "users", bench::pick(ctx, 200000, 50000)));
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 30, 15)));
  const double budget = ctx.params.real("budget", 3000.0);
  const double max_stretch = ctx.params.real("max_stretch", 2.5);
  const auto k_paths =
      static_cast<std::size_t>(ctx.params.integer("k_paths", 4));

  // The backend_fairness design fixture: provisioned for the paper's
  // 4:3:3 application blend at 100 Gbps aggregate.
  const auto scenario = bench::us_scenario(ctx);
  const auto designed =
      design::mixed_problem(scenario, budget, 4.0, 3.0, 3.0, centers);
  const auto topo = design::solve_greedy(designed.input);
  design::CapacityParams cap;
  cap.aggregate_gbps = 100.0;
  const auto plan = design::plan_capacity(designed.input, topo, designed.links,
                                          scenario.tower_graph.towers, cap);
  const auto classes = design::mixed_traffic_classes(scenario, centers);
  const auto traffic =
      net::scenario::blend_traffic(classes.matrices, {4.0, 3.0, 3.0});

  net::BuildOptions build;
  build.rate_scale = 1.0;  // fluid-only: no DES affordability scaling
  const net::LinkPlan base_plan =
      net::plan_links(designed.input, plan, build);
  std::size_t mw_links = 0;
  for (const auto& link : base_plan.links) mw_links += link.is_mw ? 1 : 0;
  const net::flow::DirectKmFn direct_km = [&](std::uint32_t s,
                                              std::uint32_t t) {
    return designed.input.geodesic_km(s, t);
  };

  // Past-saturation points on purpose (the provisioning leaves ~2x
  // headroom): scarcity is where the three routings separate.
  const std::vector<double> loads{50.0, 150.0, 300.0};
  std::vector<double> cut_counts{0.0};
  const auto k_cut = static_cast<std::size_t>(
      ctx.params.integer("cut", bench::pick(ctx, 4, 2)));
  if (k_cut > 0 && k_cut <= mw_links) {
    cut_counts.push_back(static_cast<double>(k_cut));
  }
  const char* const modes[] = {"shortest", "te", "racing"};
  constexpr std::size_t kModes = 3;

  struct Cell {
    net::TrafficReport report;
    std::size_t denied = 0;
    std::size_t split_pairs = 0;    // te: pairs carrying >1 path
    std::size_t recovered = 0;      // racing: denied pairs fiber saved
    double te_max_util = 0.0;       // te: LP-predicted max utilization
  };

  engine::Grid grid;
  grid.axis("load", loads).axis("failed", cut_counts).index_axis("mode",
                                                                 kModes);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        const double load = point.value("load");
        const double offered_bps = cap.aggregate_gbps * 1e9 * load / 100.0;
        const auto demands = net::flow::DemandMatrix::from_users(
            traffic, users, offered_bps / static_cast<double>(users),
            build.rate_scale);
        const auto demand_list = demands.to_demands();

        // Adversarial cuts: the k largest-capacity MW trunks.
        net::scenario::FailureModel failure;
        failure.kind = net::scenario::FailureModel::Kind::CutLargestK;
        failure.k = static_cast<std::size_t>(point.value("failed"));
        const auto outcome = net::scenario::apply_failures(base_plan,
                                                           failure);
        std::vector<double> factors(base_plan.links.size(), 1.0);
        for (const std::size_t link : outcome.failed_links) {
          factors[link] = 0.0;
        }

        const auto model = net::make_traffic_model(
            net::TrafficBackend::Flow, designed.input, plan, build);
        net::TrafficRunOptions run_options;
        Cell cell;
        switch (point.index("mode")) {
          case 0: {  // shortest: latency-shortest on the degraded plan
            run_options.plan = outcome.plan;
            cell.report = model->run(demands, run_options);
            break;
          }
          case 1: {  // te: weighted splits on the degraded view
            net::TopologyView view = net::view_from_plan(base_plan);
            for (std::size_t e = 0; e < view.view.capacity_bps.size();
                 ++e) {
              view.view.capacity_bps[e] *=
                  factors[view.view.edge_to_link[e] / 2];
            }
            net::te::SplitOptions split_options;
            split_options.candidates.k_shortest = k_paths;
            split_options.candidates.max_stretch = max_stretch;
            net::te::SplitResult split = net::te::solve_splits(
                view.view, demand_list, direct_km, split_options);
            cell.denied = split.denied_pairs;
            cell.split_pairs = split.split_pairs;
            cell.te_max_util = split.max_utilization;
            run_options.plan = base_plan;
            run_options.routes = std::move(split.routes);
            run_options.capacity_factor = std::move(factors);
            cell.report = model->run(demands, run_options);
            break;
          }
          default: {  // racing: repaired MW route vs fiber fallback
            net::control::DetourPolicy policy;
            policy.max_stretch = max_stretch;
            net::control::RouteRepairer repairer(base_plan, demand_list,
                                                 policy, direct_km);
            std::vector<net::control::LinkDelta> deltas;
            deltas.reserve(outcome.failed_links.size());
            for (const std::size_t link : outcome.failed_links) {
              deltas.push_back(net::control::LinkDelta{link, false, 1.0});
            }
            repairer.apply(deltas);
            const net::control::CandidateRacer racer(base_plan, demand_list,
                                                     {});
            const net::control::RacingReport race =
                racer.race(repairer.routes(), repairer.link_state());
            cell.denied = race.failed_pairs;
            cell.recovered = race.recovered_pairs;
            run_options.plan = base_plan;
            run_options.routes =
                net::single_path_routes(race.traffic_paths());
            run_options.capacity_factor = std::move(factors);
            cell.report = model->run(demands, run_options);
            break;
          }
        }
        return cell;
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  results.note("design: stretch=" + fmt(topo.mean_stretch, 3) +
               " mw_links=" + std::to_string(mw_links) +
               " users=" + std::to_string(users) +
               " max_stretch=" + fmt(max_stretch, 2) +
               " k_paths=" + std::to_string(k_paths));

  auto& table = results.add_table(
      "te_pareto",
      "Multipath TE Pareto: shortest vs TE splits vs candidate racing",
      {"load_%", "failed", "mode", "served_%", "p50_stretch", "p99_stretch",
       "jain_served", "max_util", "denied", "split_pairs", "recovered"});
  for (std::size_t l = 0; l < loads.size(); ++l) {
    for (std::size_t f = 0; f < cut_counts.size(); ++f) {
      for (std::size_t m = 0; m < kModes; ++m) {
        const Cell& cell = sweep.at((l * cut_counts.size() + f) * kModes + m);
        const auto& stats = cell.report.stats;
        Samples pair_stretch;
        double sum = 0.0;
        double sum_sq = 0.0;
        std::size_t pairs = 0;
        for (const auto& pair : cell.report.pairs) {
          if (pair.delivered_bps > 0.0) pair_stretch.add(pair.stretch);
          if (pair.offered_bps <= 0.0) continue;
          const double served =
              std::min(1.0, pair.delivered_bps / pair.offered_bps);
          sum += served;
          sum_sq += served * served;
          ++pairs;
        }
        const double jain =
            sum_sq > 0.0 ? sum * sum / (static_cast<double>(pairs) * sum_sq)
                         : 1.0;
        const double served_total =
            stats.offered_bps > 0.0
                ? stats.delivered_bps / stats.offered_bps * 100.0
                : 0.0;
        table.row(
            {static_cast<std::int64_t>(loads[l]),
             static_cast<std::int64_t>(cut_counts[f]), modes[m],
             engine::Value::real(served_total, 2),
             engine::Value::real(
                 pair_stretch.empty() ? 0.0 : pair_stretch.percentile(50.0),
                 3),
             engine::Value::real(
                 pair_stretch.empty() ? 0.0 : pair_stretch.percentile(99.0),
                 3),
             engine::Value::real(jain, 4),
             engine::Value::real(stats.max_link_utilization, 2),
             static_cast<std::int64_t>(cell.denied),
             static_cast<std::int64_t>(cell.split_pairs),
             static_cast<std::int64_t>(cell.recovered)});
      }
    }
  }
  results.note(
      "Expected shape: below capacity all modes serve ~100% and the table "
      "is a\nlatency comparison (TE's tiebreak keeps it at shortest-path "
      "stretch when\nutilization permits). Past saturation TE serves "
      "MEASURABLY more than\nshortest at the same stretch bound — splitting "
      "aggregates across the\ncandidate pool moves load off the max-utilized "
      "trunk — and its max_util\ncolumn drops accordingly. Racing tracks "
      "shortest on throughput but trades\nstretch for availability under "
      "cuts: pairs whose MW route died (or was\ndenied by the stretch bound) "
      "recover on fiber instead of going dark.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "te_pareto",
     .description =
         "Multipath TE: shortest vs k-path MCF/LP splits vs candidate "
         "racing on stretch/throughput/fairness",
     .tags = {"bench", "simulation", "scenario", "sweep"},
     .params = {{"users", "200000 (50000 in fast mode)",
                 "endpoints apportioned across pairs"},
                {"centers", "30 (15 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"},
                {"max_stretch", "2.5",
                 "stretch bound shared by the TE candidate pool and the "
                 "racing detour policy"},
                {"k_paths", "4", "k-shortest candidates per pair"},
                {"cut", "4 (2 in fast mode)",
                 "largest-capacity MW trunks cut in the failure cells"}}},
    run};

}  // namespace
