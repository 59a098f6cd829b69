// micro_perf: the hot-path kernel suite as a registered experiment. Each
// kernel is timed with a repeat-until-min-duration harness (median-free
// mean ns/op over the measured reps) and lands as one row of the "kernels"
// table — so `cisp_experiments run micro_perf` needs no external benchmark
// dependency, and `cisp_experiments perf --out` can lift the rows straight
// into one schema-versioned BENCH json sample for the perf gate.
//
// Kernel sizes follow the fast flag: smoke runs measure the same code
// paths at reduced instance sizes (comparisons are only valid
// like-for-like; the BENCH json records the flag).

#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "net/tcp.hpp"
#include "net/timeline/timeline.hpp"

namespace {
using namespace cisp;

using Clock = std::chrono::steady_clock;

/// Times `fn` by doubling the repetition count until the batch takes at
/// least `min_ms`, then reports mean ns per call over the final batch.
/// The warmup call (outside timing) touches lazily built fixtures.
struct KernelTiming {
  double ns_per_op = 0.0;
  std::uint64_t reps = 0;
};

KernelTiming time_kernel(const std::function<void()>& fn, double min_ms) {
  fn();  // warmup: fixture construction, caches, page faults
  std::uint64_t reps = 1;
  double best_ms = 0.0;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) fn();
    const std::chrono::duration<double, std::milli> elapsed =
        Clock::now() - start;
    if (elapsed.count() >= min_ms || reps >= (1ULL << 24)) {
      best_ms = elapsed.count();
      break;
    }
    // Jump straight to the projected count when the batch was way short.
    const double scale = elapsed.count() > 0.0
                             ? std::max(2.0, min_ms / elapsed.count() * 1.2)
                             : 2.0;
    reps = static_cast<std::uint64_t>(
        std::min(1.7e7, std::ceil(static_cast<double>(reps) * scale)));
  }
  // Re-time the chosen batch and keep the fastest of three: wall-clock
  // noise on a shared machine is one-sided (contention only ever adds
  // time), and a single batch of a long kernel would otherwise carry
  // +-25% jitter straight into the regression gate.
  for (int pass = 1; pass < 3; ++pass) {
    const auto start = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) fn();
    const std::chrono::duration<double, std::milli> elapsed =
        Clock::now() - start;
    best_ms = std::min(best_ms, elapsed.count());
  }
  return {best_ms * 1e6 / static_cast<double>(reps), reps};
}

const terrain::RasterTerrain& bench_raster() {
  static const terrain::RasterTerrain raster = [] {
    const auto region = terrain::contiguous_us();
    return terrain::RasterTerrain(region.make_terrain(),
                                  {.lat_min = 38.0, .lat_max = 42.0,
                                   .lon_min = -106.0, .lon_max = -98.0},
                                  0.02);
  }();
  return raster;
}

graphs::Graph random_graph(std::size_t nodes, std::size_t edges) {
  Rng rng(7);
  graphs::Graph g(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto a = static_cast<graphs::NodeId>(rng.uniform_index(nodes));
    const auto b = static_cast<graphs::NodeId>(rng.uniform_index(nodes));
    if (a != b) g.add_edge(a, b, rng.uniform(1.0, 100.0));
  }
  return g;
}

/// A dense random transportation LP (m supply rows x m demand rows).
lp::LinearProgram transport_lp(std::size_t m) {
  Rng rng(11);
  lp::LinearProgram problem;
  problem.num_vars = m * m;
  problem.objective.resize(m * m);
  for (auto& c : problem.objective) c = rng.uniform(1.0, 10.0);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> supply(m * m, 0.0);
    std::vector<double> demand(m * m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      supply[i * m + j] = 1.0;
      demand[j * m + i] = 1.0;
    }
    problem.add_less_eq(std::move(supply), 10.0);
    problem.add_greater_eq(std::move(demand), 5.0);
  }
  return problem;
}

design::DesignInput stretch_eval_input(std::size_t n) {
  Rng rng(13);
  std::vector<std::vector<double>> geod(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      geod[i][j] = geod[j][i] = rng.uniform(100.0, 4000.0);
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(n, std::vector<double>(n, 1.0));
  for (std::size_t i = 0; i < n; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cands.push_back({i, i + 1, geod[i][i + 1] * 1.05, 10.0});
  }
  return design::DesignInput(std::move(geod), std::move(fiber),
                             std::move(traffic), std::move(cands), 1e9);
}

/// The 40-site (25 in fast mode) random design instance shared by the
/// solver kernels.
design::DesignInput solver_bench_instance(std::size_t n, double budget) {
  Rng rng(17);
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 4000.0), rng.uniform(0.0, 2000.0)});
  }
  std::vector<std::vector<double>> geod(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> traffic(n, std::vector<double>(n, 0.0));
  std::vector<design::CandidateLink> cands;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      const double d = std::max(50.0, std::hypot(dx, dy));
      geod[i][j] = geod[j][i] = d;
      traffic[i][j] = traffic[j][i] = rng.uniform(0.01, 1.0);
      cands.push_back({i, j, d * rng.uniform(1.02, 1.12),
                       std::ceil(d / 90.0) + 1.0});
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  return design::DesignInput(std::move(geod), std::move(fiber),
                             std::move(traffic), std::move(cands), budget);
}

/// The 30-site designed-and-provisioned instance the allocator kernels
/// load traffic onto.
struct FlowBenchInstance {
  design::DesignInput input;
  design::CapacityPlan plan;
  std::vector<std::vector<double>> traffic;
};

FlowBenchInstance flow_bench_instance() {
  const std::size_t n = 30;
  Rng rng(23);
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 4000.0), rng.uniform(0.0, 2000.0)});
  }
  std::vector<std::vector<double>> geod(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> traffic(n, std::vector<double>(n, 0.0));
  std::vector<design::CandidateLink> cands;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = pts[i].first - pts[j].first;
      const double dy = pts[i].second - pts[j].second;
      const double d = std::max(50.0, std::hypot(dx, dy));
      geod[i][j] = geod[j][i] = d;
      traffic[i][j] = traffic[j][i] = rng.uniform(0.01, 1.0);
      cands.push_back({i, j, d * 1.05, std::ceil(d / 90.0) + 1.0});
    }
  }
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  design::DesignInput input(std::move(geod), std::move(fiber), traffic, cands,
                            300.0);
  const auto topo = design::solve_greedy(input);
  design::CapacityPlan plan;
  plan.aggregate_gbps = 100.0;
  for (const std::size_t link : topo.links) {
    design::LinkProvision prov;
    prov.candidate_index = link;
    prov.site_a = input.candidates()[link].site_a;
    prov.site_b = input.candidates()[link].site_b;
    prov.series = 3;
    plan.links.push_back(prov);
  }
  return {std::move(input), std::move(plan), std::move(traffic)};
}

/// A CBR source for the des_event_loop kernel, scheduled through the
/// typed allocation-free kTimer path (the production path: UdpCbrSource
/// rides the equivalent kUdpEmit kind).
struct CalendarCbrSource {
  net::Simulator& sim;
  net::Link& link;
  std::uint32_t flow_id;
  net::Time interval;
  net::Time stop_at = 0.0;

  static void on_timer(void* ctx) {
    static_cast<CalendarCbrSource*>(ctx)->emit();
  }

  void start(net::Time at, net::Time stop, std::uint64_t seed) {
    stop_at = stop;
    Rng rng(seed);
    sim.schedule_timer_at(at + rng.uniform() * interval, &on_timer, this);
  }

  void emit() {
    if (sim.now() >= stop_at) return;
    net::Packet p;
    p.flow_id = flow_id;
    p.size_bytes = 500;
    p.sent_at = sim.now();
    link.send(p);
    sim.schedule_timer(interval, &on_timer, this);
  }
};

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const double min_ms = ctx.params.real("min_ms", bench::pick(ctx, 80.0, 15.0));
  CISP_REQUIRE(min_ms > 0.0, "min_ms must be positive");

  engine::ResultSet results;
  auto& table = results.add_table(
      "kernels", "Hot-path kernel timings",
      {"kernel", "reps", "ns_per_op", "ops_per_s"});
  const auto add = [&](const std::string& name,
                       const std::function<void()>& fn) {
    const KernelTiming t = time_kernel(fn, min_ms);
    table.row({engine::Value::text(name),
               engine::Value::integer(static_cast<std::int64_t>(t.reps)),
               engine::Value::real(t.ns_per_op, 1),
               engine::Value::real(t.ns_per_op > 0.0 ? 1e9 / t.ns_per_op : 0.0,
                                   1)});
  };

  // --- Substrate kernels: terrain, RF, graph, LP ---------------------------
  const auto& raster = bench_raster();
  const geo::LatLon prof_a{39.5, -105.0};
  const geo::LatLon prof_b{39.9, -104.0};
  add("terrain_profile", [&] {
    volatile auto profile = terrain::build_profile(raster, prof_a, prof_b, 0.5)
                                .dist_km.size();
    (void)profile;
  });
  // The procedural field the raster fill and tower siting call: every
  // 0.05-degree node of the bench raster's patch, 81 x 161 points per op.
  const terrain::SyntheticTerrain synth = terrain::contiguous_us().make_terrain();
  add("synthetic_elevation", [&] {
    double sum = 0.0;
    for (int r = 0; r <= 80; ++r) {
      for (int c = 0; c <= 160; ++c) {
        sum += synth.elevation_m({38.0 + r * 0.05, -106.0 + c * 0.05});
      }
    }
    volatile double sink = sum;
    (void)sink;
  });
  const auto profile = terrain::build_profile(raster, prof_a, prof_b, 0.5);
  add("hop_clearance", [&] {
    volatile bool clear = rf::evaluate_clearance(profile, 90.0, 90.0).clear;
    (void)clear;
  });
  add("rain_attenuation", [&] {
    volatile double db = rf::hop_rain_attenuation_db(80.0, 45.0, 11.0);
    (void)db;
  });
  const auto graph_small = random_graph(1000, 16000);
  add("dijkstra_1k", [&] {
    volatile double d = graphs::dijkstra(graph_small, 0).dist[999];
    (void)d;
  });
  if (!ctx.fast) {
    const auto graph_large = random_graph(10000, 160000);
    add("dijkstra_10k", [&] {
      volatile double d = graphs::dijkstra(graph_large, 0).dist[9999];
      (void)d;
    });
  }
  const auto lp_problem = transport_lp(bench::pick(ctx, std::size_t{12},
                                                   std::size_t{6}));
  add("simplex_transport", [&] {
    volatile double obj = lp::solve(lp_problem).objective;
    (void)obj;
  });
  const auto stretch_input =
      stretch_eval_input(bench::pick(ctx, std::size_t{120}, std::size_t{60}));
  add("stretch_eval_add_link", [&] {
    design::StretchEvaluator eval(stretch_input);
    const std::size_t links = stretch_input.candidates().size();
    for (std::size_t l = 0; l < links; ++l) eval.add_link(l);
    volatile double s = eval.mean_stretch();
    (void)s;
  });

  // --- Solver kernels ------------------------------------------------------
  const auto solver_input = solver_bench_instance(
      bench::pick(ctx, std::size_t{40}, std::size_t{25}),
      bench::pick(ctx, 400.0, 250.0));
  add("greedy_solver", [&] {
    design::GreedyOptions options;
    options.solver.threads = 1;
    volatile double s = design::solve_greedy(solver_input, options)
                            .mean_stretch;
    (void)s;
  });
  design::ExactOptions exact_options;
  exact_options.candidate_pool = design::greedy_candidate_pool(solver_input,
                                                               2.0);
  if (exact_options.candidate_pool.size() > bench::pick(ctx, std::size_t{18},
                                                        std::size_t{14})) {
    exact_options.candidate_pool.resize(
        bench::pick(ctx, std::size_t{18}, std::size_t{14}));
  }
  exact_options.solver.threads = 1;
  add("exact_solver", [&] {
    volatile double s =
        design::solve_exact(solver_input, exact_options).topology.mean_stretch;
    (void)s;
  });

  // --- Allocator kernels at traffic scale ----------------------------------
  const auto flow_instance = flow_bench_instance();
  net::TrafficRunOptions run_options;
  const auto flow_model = net::make_traffic_model(
      net::TrafficBackend::Flow, flow_instance.input, flow_instance.plan);
  const auto elastic_model = net::make_traffic_model(
      net::TrafficBackend::Elastic, flow_instance.input, flow_instance.plan);
  const auto demands_1e5 = net::flow::DemandMatrix::from_users(
      flow_instance.traffic, 100000, 1e5);
  add("max_min_1e5_users", [&] {
    volatile double d = flow_model->run(demands_1e5, run_options)
                            .stats.delivered_bps;
    (void)d;
  });
  if (!ctx.fast) {
    const auto demands_1e6 = net::flow::DemandMatrix::from_users(
        flow_instance.traffic, 1000000, 1e5);
    add("max_min_1e6_users", [&] {
      volatile double d = flow_model->run(demands_1e6, run_options)
                              .stats.delivered_bps;
      (void)d;
    });
  }
  // Saturated elastic instance: per-user demand far above fair share, so
  // the dual ascent must actually price the bottlenecks.
  add("alpha_fair_saturated", [&] {
    volatile double d = elastic_model->run(demands_1e5, run_options)
                            .stats.delivered_bps;
    (void)d;
  });

  // --- Control-plane repair kernels ----------------------------------------
  // Per-draw cost of a 1000-draw failure sweep, like for like: both
  // kernels replay the SAME cyclic delta sequence, the incremental
  // repairer touching only affected trees/pairs, the oracle pricing every
  // source and pair from scratch at each draw's cumulative state. The
  // spread between the two rows is the whole point of the subsystem.
  const std::size_t repair_nodes = bench::pick(ctx, std::size_t{120},
                                               std::size_t{60});
  net::LinkPlan repair_plan;
  std::vector<std::array<double, 2>> repair_xy;
  std::vector<net::TrafficDemand> repair_demands;
  std::vector<std::size_t> repair_mw;
  {
    Rng rng(29);
    repair_plan.node_count = repair_nodes;
    for (std::size_t i = 0; i < repair_nodes; ++i) {
      repair_xy.push_back(
          {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)});
    }
    const auto km = [&](std::size_t a, std::size_t b) {
      return std::hypot(repair_xy[a][0] - repair_xy[b][0],
                        repair_xy[a][1] - repair_xy[b][1]);
    };
    const auto push = [&](std::size_t a, std::size_t b, double gbps,
                          double path_stretch, bool mw) {
      net::PlannedLink link;
      link.a = static_cast<std::uint32_t>(a);
      link.b = static_cast<std::uint32_t>(b);
      link.rate_bps = gbps * 1e9;
      link.latency_s = km(a, b) * path_stretch / geo::kSpeedOfLightKmPerS;
      link.queue_packets = 100;
      link.is_mw = mw;
      if (mw) repair_mw.push_back(repair_plan.links.size());
      repair_plan.links.push_back(link);
    };
    // Fiber chain + closing ring keep the plan connected under any MW
    // churn; two MW shortcuts per node carry the low-stretch routes.
    for (std::size_t i = 0; i + 1 < repair_nodes; ++i) {
      push(i, i + 1, 400.0, 1.8, false);
    }
    push(0, repair_nodes - 1, 400.0, 1.8, false);
    for (std::size_t i = 0; i < repair_nodes; ++i) {
      for (int s = 0; s < 2; ++s) {
        const std::size_t j = (i + 2 + rng.uniform_index(8)) % repair_nodes;
        if (j != i) push(i, j, rng.uniform(2.0, 20.0), 1.0, true);
      }
    }
    for (std::size_t i = 0; i < repair_nodes; ++i) {
      for (int d = 0; d < 8; ++d) {
        const std::size_t t = rng.uniform_index(repair_nodes);
        // Rates sized so the intact plan runs uncongested and failures
        // cause LOCAL congestion — the regime the repairer targets.
        if (t != i) {
          repair_demands.push_back({static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(t),
                                    rng.uniform(5e7, 2e8)});
        }
      }
    }
  }
  const net::flow::DirectKmFn repair_direct =
      [&](std::uint32_t s, std::uint32_t t) {
        return std::hypot(repair_xy[s][0] - repair_xy[t][0],
                          repair_xy[s][1] - repair_xy[t][1]);
      };
  // Weather-shaped churn: sparse, MW-only, with calm epochs (the
  // control_availability year saw churn in only ~half its epochs and a
  // ~10% working set when it did). Disturbed draws down or derate one MW
  // link and lift the disturbance from three disturbed draws ago, so at
  // most three links are off-nominal at once; calm draws are empty.
  std::vector<std::vector<net::control::LinkDelta>> draws;
  {
    Rng rng(31);
    std::vector<std::size_t> window;
    std::size_t disturbed = 0;
    for (std::size_t d = 0; d < 1000; ++d) {
      std::vector<net::control::LinkDelta> batch;
      if (rng.chance(0.5)) {
        const std::size_t link =
            repair_mw[rng.uniform_index(repair_mw.size())];
        if (disturbed++ % 2 == 0) {
          batch.push_back({link, false});
        } else {
          batch.push_back({link, true, rng.uniform(0.3, 0.9)});
        }
        window.push_back(link);
        if (window.size() > 3) {
          batch.push_back({window.front(), true, 1.0});
          window.erase(window.begin());
        }
      }
      draws.push_back(std::move(batch));
    }
  }
  net::control::RouteRepairer repairer(repair_plan, repair_demands, {},
                                       repair_direct);
  std::size_t draw_index = 0;
  add("repair_incremental_draw", [&] {
    volatile std::size_t touched =
        repairer.apply(draws[draw_index]).touched_pairs;
    (void)touched;
    draw_index = (draw_index + 1) % draws.size();
  });
  std::vector<net::control::LinkState> full_state(repair_plan.links.size());
  std::size_t full_index = 0;
  add("repair_full_draw", [&] {
    for (const auto& delta : draws[full_index]) {
      full_state[delta.link] = {delta.up, delta.capacity_factor};
    }
    full_index = (full_index + 1) % draws.size();
    volatile std::size_t n =
        net::control::RouteRepairer::full_recompute(
            repair_plan, repair_demands, {}, repair_direct, full_state)
            .size();
    (void)n;
  });

  // --- Timeline kernels ----------------------------------------------------
  // Per-epoch cost of the streaming timeline, like for like: both kernels
  // evaluate the SAME epoch sequence (diurnal swing + the weather-shaped
  // churn above, replayed as an absolute factor schedule) on the repair
  // fixture. The warm kernel carries routes, demand rewrites and
  // allocator structure epoch-to-epoch; the cold kernel is the
  // independent-cell rebuild every epoch paid before this subsystem
  // existed. The spread between the two rows is the timeline's speedup.
  std::vector<std::vector<double>> timeline_schedule;
  {
    std::vector<double> factors(repair_plan.links.size(), 1.0);
    for (const auto& batch : draws) {
      for (const auto& delta : batch) {
        factors[delta.link] = delta.up ? delta.capacity_factor : 0.0;
      }
      timeline_schedule.push_back(factors);
    }
  }
  net::flow::DemandMatrix timeline_demands = [&] {
    std::vector<net::flow::PairDemand> pairs;
    for (const auto& demand : repair_demands) {
      pairs.push_back({demand.src, demand.dst, 1, demand.rate_bps});
    }
    return net::flow::DemandMatrix::from_pairs(std::move(pairs));
  }();
  net::timeline::TimelineOptions timeline_options;
  timeline_options.factor_schedule = &timeline_schedule;
  timeline_options.diurnal.tz_offset_hours.resize(repair_nodes);
  for (std::size_t i = 0; i < repair_nodes; ++i) {
    // Synthetic solar offsets from the fixture's x coordinate (~4 hours
    // across the 3000 km span), so the diurnal swing moves demand around.
    timeline_options.diurnal.tz_offset_hours[i] = repair_xy[i][0] / 750.0;
  }
  net::timeline::TimelineDriver timeline_driver(
      repair_plan, {}, timeline_demands, repair_direct, timeline_options);
  add("timeline_year_step", [&] {
    volatile double d = timeline_driver.step().delivered_bps;
    (void)d;
  });
  std::size_t cold_epoch = 0;
  add("timeline_year_step_cold", [&] {
    volatile double d = timeline_driver.evaluate_cold(cold_epoch)
                            .delivered_bps;
    (void)d;
    cold_epoch = (cold_epoch + 1) % timeline_schedule.size();
  });

  // --- Multipath TE kernels ------------------------------------------------
  // Per-epoch cost of the TE split solve in the timeline regime: the
  // candidate pool is gathered once against nominal capacities (warm
  // candidate-key hit every draw), while the cycling weather draws change
  // the capacities so the SOLVE key misses and the LP re-runs — the
  // exact work a multipath_te timeline pays per churned epoch.
  net::TopologyView te_topo = net::view_from_plan(repair_plan);
  const std::vector<double> te_nominal = te_topo.view.capacity_bps;
  net::te::SplitWarmState te_warm;
  net::te::SplitOptions te_split_options;
  te_split_options.candidates.mcf_pairs = 32;
  te_split_options.max_lp_pairs = 64;
  te_split_options.gather_capacity_bps = &te_nominal;
  te_split_options.warm = &te_warm;
  std::vector<net::control::LinkState> te_state(repair_plan.links.size());
  std::size_t te_draw = 0;
  add("te_split_solve", [&] {
    for (const auto& delta : draws[te_draw]) {
      te_state[delta.link] = {delta.up, delta.capacity_factor};
    }
    te_draw = (te_draw + 1) % draws.size();
    for (std::size_t e = 0; e < te_topo.view.capacity_bps.size(); ++e) {
      const auto& ls = te_state[te_topo.view.edge_to_link[e] / 2];
      te_topo.view.capacity_bps[e] =
          te_nominal[e] * ls.effective_factor();
    }
    volatile double u = net::te::solve_splits(te_topo.view, repair_demands,
                                              repair_direct,
                                              te_split_options)
                            .max_utilization;
    (void)u;
  });
  // One full happy-eyeballs draw over every pair against the repairer's
  // cumulative link state (fiber fallbacks precomputed at construction).
  const net::control::CandidateRacer te_racer(repair_plan, repair_demands,
                                              {});
  add("te_racing_draw", [&] {
    volatile std::size_t mw =
        te_racer.race(repairer.routes(), repairer.link_state()).mw_winners;
    (void)mw;
  });

  // --- DES packet forwarding -----------------------------------------------
  add("packet_forwarding_10k", [] {
    net::Simulator sim;
    net::Network network(sim, 2);
    const std::size_t l = network.add_duplex_link(0, 1, 1e10, 0.001);
    network.node(0).set_route(0, 1, &network.link(l));
    std::uint64_t delivered = 0;
    network.node(1).set_local_deliver(
        [&](const net::Packet&) { ++delivered; });
    for (int i = 0; i < 10000; ++i) {
      net::Packet p;
      p.src = 0;
      p.dst = 1;
      p.size_bytes = 500;
      network.inject(p);
    }
    sim.run();
    volatile std::uint64_t out = delivered;
    (void)out;
  });

  // --- DES event core at scale ---------------------------------------------
  // 1e5 concurrent CBR timers into one fat link: the pending-event
  // population the 10^5-user packet runs sustain.
  constexpr std::size_t kDesSources = 100000;
  constexpr net::Time kDesInterval = 0.004;
  constexpr net::Time kDesStop = 0.01;
  constexpr net::Time kDesEnd = 0.02;
  add("des_event_loop_1e5", [&] {
    net::Simulator sim;
    std::uint64_t delivered = 0;
    net::Link link(sim, 1e12, 0.001, net::Link::kUnboundedQueue,
                   [&](const net::Packet&) { ++delivered; });
    std::vector<CalendarCbrSource> sources;
    sources.reserve(kDesSources);
    for (std::size_t i = 0; i < kDesSources; ++i) {
      sources.push_back({sim, link, static_cast<std::uint32_t>(i),
                         kDesInterval});
      sources.back().start(0.0, kDesStop, i);
    }
    sim.run_until(kDesEnd);
    volatile std::uint64_t out = delivered;
    (void)out;
  });
  // 1e4 short TCP flows over one duplex link: the typed pace/RTO/start
  // paths plus the ring/bitmap per-segment state, end to end.
  add("des_tcp_flows_1e4", [&] {
    net::Simulator sim;
    net::Network network(sim, 2);
    const std::size_t l = network.add_duplex_link(
        0, 1, 1e11, 0.001, net::Link::kUnboundedQueue);
    network.node(0).set_route(0, 1, &network.link(l));
    network.node(1).set_route(1, 0, &network.link(l + 1));
    net::TcpRegistry registry;
    registry.install(network, 0);
    registry.install(network, 1);
    constexpr std::size_t kFlows = 10000;
    std::vector<std::unique_ptr<net::TcpFlow>> flows;
    flows.reserve(kFlows);
    for (std::size_t f = 0; f < kFlows; ++f) {
      flows.push_back(std::make_unique<net::TcpFlow>(
          network, registry, static_cast<std::uint32_t>(f), 0, 1,
          8 * 1448, net::TcpFlow::Params{}));
      flows.back()->start(static_cast<double>(f) * 1e-6);
    }
    sim.run();
    std::size_t done = 0;
    for (const auto& flow : flows) done += flow->complete() ? 1 : 0;
    volatile std::size_t out = done;
    (void)out;
  });

  // A saturated multi-hop UDP cell on the allocator kernels' designed
  // 30-site topology (MW links plus the fiber mesh) at 250% of the
  // provisioned aggregate: drop-tail queues, link wires many packets deep
  // and the calendar's spill re-tune, end to end through the packet
  // backend.
  {
    net::BuildOptions build;
    build.rate_scale = 0.01;
    const auto packet_model = net::make_traffic_model(
        net::TrafficBackend::Packet, flow_instance.input, flow_instance.plan,
        build);
    const auto saturated = net::flow::DemandMatrix::from_users(
        flow_instance.traffic, 10000, 100e9 * 2.5 / 10000.0,
        build.rate_scale);
    net::TrafficRunOptions cell;
    cell.sim_duration_s = 0.1;
    cell.drain_s = 0.02;
    cell.seed = 5;
    add("des_packet_cell", [&] {
      volatile double d =
          packet_model->run(saturated, cell).stats.delivered_bps;
      (void)d;
    });
  }

  results.note(
      "Wall-clock kernel timings: comparisons are only meaningful between "
      "runs\nwith the same fast flag on the same host. `cisp_experiments "
      "perf --out`\nwrites one run as a BENCH json sample; `perf --against "
      "... --current ...`\ngates >= 5 interleaved samples of two builds.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "micro_perf",
     .description =
         "Hot-path kernel timings: terrain/RF/graph/LP/solver/allocator/DES",
     .tags = {"bench", "perf"},
     .params = {{"min_ms", "80 (15 in fast mode)",
                 "minimum measured wall time per kernel batch"}}},
    run};

}  // namespace
