// Tests for the streaming timeline simulator (net/timeline): the warm
// path (incremental route repair + in-place demand rewrite + warm-started
// allocation) must be byte-identical to evaluating each epoch as an
// independent cell for the max-min backend, at every thread count; the
// alpha-fair warm path must match the cold path within the allocator's
// convergence tolerance; a timeline driven through the TrafficModel seam
// (FluidTrafficModel with route/derate overrides, the scenario_diurnal
// idiom) must agree byte-for-byte with the driver; the WarmState
// fingerprint must silently rebuild on a path change (never reuse stale
// structure); and the SLO fold must order its percentiles sensibly.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "geo/latlon.hpp"
#include "net/builder.hpp"
#include "net/control/route_repair.hpp"
#include "net/control/weather_coupling.hpp"
#include "net/flow/alpha_fair.hpp"
#include "net/flow/max_min.hpp"
#include "net/scenario/demand_scenario.hpp"
#include "net/timeline/timeline.hpp"
#include "net/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "weather/rainfield.hpp"

namespace cisp::net {
namespace {

// ---------------------------------------------------------------------------
// Synthetic planar fixture (same shape as control_test's): fiber chain +
// ring keeps everything connected, MW shortcuts give repair real choices.
// ---------------------------------------------------------------------------

struct Fixture {
  LinkPlan plan;
  std::vector<std::array<double, 2>> xy;
  flow::DemandMatrix base;
  std::vector<std::size_t> mw_links;

  [[nodiscard]] flow::DirectKmFn direct_km() const {
    const auto coords = xy;
    return [coords](std::uint32_t s, std::uint32_t t) {
      const double dx = coords[s][0] - coords[t][0];
      const double dy = coords[s][1] - coords[t][1];
      return std::sqrt(dx * dx + dy * dy);
    };
  }
};

void add_link(LinkPlan& plan, std::uint32_t a, std::uint32_t b, double gbps,
              double km, bool mw, double path_stretch = 1.0) {
  PlannedLink link;
  link.a = a;
  link.b = b;
  link.rate_bps = gbps * 1e9;
  link.latency_s = km * path_stretch / geo::kSpeedOfLightKmPerS;
  link.queue_packets = 100;
  link.is_mw = mw;
  plan.links.push_back(link);
}

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  const std::uint32_t n = 12;
  f.plan.node_count = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    f.xy.push_back({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
  }
  const auto km = [&](std::uint32_t a, std::uint32_t b) {
    return std::hypot(f.xy[a][0] - f.xy[b][0], f.xy[a][1] - f.xy[b][1]);
  };
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    add_link(f.plan, i, i + 1, 400.0, km(i, i + 1), false, 1.8);
  }
  add_link(f.plan, 0, n - 1, 400.0, km(0, n - 1), false, 1.8);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j =
        static_cast<std::uint32_t>((i + 2 + rng.uniform_index(4)) % n);
    if (j == i) continue;
    f.mw_links.push_back(f.plan.links.size());
    add_link(f.plan, i, j, rng.uniform(2.0, 20.0), km(i, j), true);
  }
  std::vector<flow::PairDemand> pairs;
  for (int d = 0; d < 24; ++d) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto t = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (s == t) continue;
    pairs.push_back({s, t, 1 + rng.uniform_index(100),
                     rng.uniform(0.5e9, 3e9)});
  }
  f.base = flow::DemandMatrix::from_pairs(std::move(pairs));
  return f;
}

/// Deterministic per-epoch capacity-factor schedule with downs, derates
/// and calm (all-nominal) stretches — the calm repeats are what gives the
/// warm allocator identical routes to reuse structure on.
std::vector<std::vector<double>> make_schedule(const Fixture& f,
                                               std::size_t epochs) {
  std::vector<std::vector<double>> schedule;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<double> factors(f.plan.links.size(), 1.0);
    if (e % 4 == 1) {
      factors[f.mw_links[e % f.mw_links.size()]] = 0.0;  // binary down
    } else if (e % 4 == 2) {
      factors[f.mw_links[(e + 3) % f.mw_links.size()]] = 0.45;  // derate
    }
    // e % 4 in {0, 3}: all links nominal (calm epoch).
    schedule.push_back(std::move(factors));
  }
  return schedule;
}

scenario::DiurnalProfile make_diurnal(const Fixture& f) {
  scenario::DiurnalProfile diurnal;
  for (const auto& p : f.xy) diurnal.tz_offset_hours.push_back(p[0] / 200.0);
  return diurnal;
}

void expect_epochs_equal(const timeline::EpochStats& warm,
                         const timeline::EpochStats& cold) {
  // Byte-identity on every field the cold oracle fills (repair churn is a
  // warm-path-only observation).
  EXPECT_EQ(warm.utc_hour, cold.utc_hour);
  EXPECT_EQ(warm.growth_scale, cold.growth_scale);
  EXPECT_EQ(warm.offered_bps, cold.offered_bps);
  EXPECT_EQ(warm.delivered_bps, cold.delivered_bps);
  EXPECT_EQ(warm.served_fraction, cold.served_fraction);
  EXPECT_EQ(warm.p99_stretch, cold.p99_stretch);
  EXPECT_EQ(warm.jain_fairness, cold.jain_fairness);
  EXPECT_EQ(warm.denied_fraction, cold.denied_fraction);
  EXPECT_EQ(warm.available_fraction, cold.available_fraction);
  EXPECT_EQ(warm.mean_link_utilization, cold.mean_link_utilization);
  EXPECT_EQ(warm.max_link_utilization, cold.max_link_utilization);
  EXPECT_EQ(warm.allocation_rounds, cold.allocation_rounds);
  EXPECT_EQ(warm.dual_iterations, cold.dual_iterations);
}

// ---------------------------------------------------------------------------
// Warm step == independent cell (max-min), at every thread count
// ---------------------------------------------------------------------------

TEST(Timeline, WarmStepIsByteIdenticalToIndependentCells) {
  const Fixture f = make_fixture(71);
  const auto schedule = make_schedule(f, 16);
  std::vector<timeline::EpochStats> reference;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    timeline::TimelineOptions options;
    options.epochs = 16;
    options.diurnal = make_diurnal(f);
    options.annual_growth = 0.3;
    options.factor_schedule = &schedule;
    options.policy.max_stretch = 2.2;
    options.threads = threads;
    timeline::TimelineDriver driver(f.plan, {}, f.base, f.direct_km(),
                                    options);
    for (std::size_t e = 0; e < options.epochs; ++e) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " epoch " +
                   std::to_string(e));
      const timeline::EpochStats warm = driver.step();
      const timeline::EpochStats cold = driver.evaluate_cold(e);
      expect_epochs_equal(warm, cold);
      // ...and byte-identical across thread counts, churn fields included.
      if (threads == 1) {
        reference.push_back(warm);
      } else {
        expect_epochs_equal(warm, reference[e]);
        EXPECT_EQ(warm.link_deltas, reference[e].link_deltas);
        EXPECT_EQ(warm.touched_pairs, reference[e].touched_pairs);
        EXPECT_EQ(warm.changed_pairs, reference[e].changed_pairs);
      }
    }
    // The calm repeats in the schedule must actually exercise the warm
    // path: identical routes -> the incidence structure gets reused.
    EXPECT_GT(driver.summary().warm_reuses, 0u)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Alpha-fair warm start: same answer within the convergence tolerance
// ---------------------------------------------------------------------------

TEST(Timeline, AlphaFairWarmMatchesColdWithinTolerance) {
  const Fixture f = make_fixture(37);
  const auto schedule = make_schedule(f, 12);
  timeline::TimelineOptions options;
  options.epochs = 12;
  options.diurnal = make_diurnal(f);
  options.annual_growth = 0.2;
  options.factor_schedule = &schedule;
  options.policy.max_stretch = 2.2;
  options.backend = TrafficBackend::Elastic;
  options.alpha = 1.0;
  timeline::TimelineDriver driver(f.plan, {}, f.base, f.direct_km(),
                                  options);
  for (std::size_t e = 0; e < options.epochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const timeline::EpochStats warm = driver.step();
    const timeline::EpochStats cold = driver.evaluate_cold(e);
    // Warm seeds the dual prices, so the iterate path differs; both sides
    // satisfy the same KKT residual and must land on the same allocation
    // up to that tolerance.
    EXPECT_EQ(warm.offered_bps, cold.offered_bps);
    EXPECT_NEAR(warm.delivered_bps, cold.delivered_bps,
                5e-3 * cold.offered_bps);
    EXPECT_NEAR(warm.served_fraction, cold.served_fraction, 5e-3);
    EXPECT_NEAR(warm.jain_fairness, cold.jain_fairness, 2e-2);
    EXPECT_EQ(warm.denied_fraction, cold.denied_fraction);
  }
  EXPECT_GT(driver.summary().warm_reuses, 0u);
}

// ---------------------------------------------------------------------------
// Timeline == independent scenario cells through the TrafficModel seam
// ---------------------------------------------------------------------------

/// The control_test 4-node square design (fiber mesh at 1.9x + one MW
/// diagonal), small enough that the seam comparison is exact.
design::DesignInput seam_input() {
  const double side = 500.0;
  const double diag = side * std::sqrt(2.0);
  std::vector<std::vector<double>> geod = {{0, side, diag, side},
                                           {side, 0, side, diag},
                                           {diag, side, 0, side},
                                           {side, diag, side, 0}};
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 2, diag * 1.05, 10.0}};
  return design::DesignInput(geod, fiber, traffic, cands, 10.0);
}

design::CapacityPlan seam_plan() {
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  return plan;
}

TEST(Timeline, MatchesIndependentCellsThroughTheTrafficModelSeam) {
  const auto input = seam_input();
  const auto plan = seam_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto base = flow::DemandMatrix::from_traffic(traffic, 1.0, 0.1);
  const LinkPlan link_plan = plan_links(input, plan, {});
  const flow::DirectKmFn direct = [&](std::uint32_t s, std::uint32_t t) {
    return input.geodesic_km(s, t);
  };

  // 48 hourly epochs cycling the MW diagonal through nominal / derated /
  // down states (fiber entries are present but inert).
  std::vector<std::size_t> mw;
  for (std::size_t i = 0; i < link_plan.links.size(); ++i) {
    if (link_plan.links[i].is_mw) mw.push_back(i);
  }
  ASSERT_FALSE(mw.empty());
  std::vector<std::vector<double>> schedule;
  for (std::size_t e = 0; e < 48; ++e) {
    std::vector<double> factors(link_plan.links.size(), 1.0);
    if (e % 6 == 2) factors[mw.front()] = 0.5;
    if (e % 6 == 4) factors[mw.front()] = 0.0;
    schedule.push_back(std::move(factors));
  }

  timeline::TimelineOptions options;
  options.epochs = 48;
  options.diurnal.tz_offset_hours = {0.0, 2.0, 5.0, 8.0};
  options.annual_growth = 0.25;
  options.factor_schedule = &schedule;
  timeline::TimelineDriver driver(link_plan, {}, base, direct, options);

  // The independent cell, scenario_diurnal-style: a fresh repairer walked
  // to the epoch's absolute link state, a fresh diurnal demand copy, and a
  // FluidTrafficModel run with route + derate overrides.
  const auto model = make_traffic_model(TrafficBackend::Flow, input, plan);
  for (std::size_t e = 0; e < options.epochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const timeline::EpochStats row = driver.step();

    control::RouteRepairer cell(link_plan, base.to_demands(),
                                options.policy, direct);
    (void)cell.apply(control::deltas_from_factors(link_plan, schedule[e],
                                                  cell.link_state()));

    const double hour = static_cast<double>(e);
    const double growth = 1.0 + options.annual_growth * (hour / 8760.0);
    flow::DemandMatrix demands =
        scenario::apply_diurnal(base, options.diurnal, hour);
    demands.scale_rates(growth);

    TrafficRunOptions run;
    run.plan = link_plan;
    run.routes = single_path_routes(cell.traffic_paths());
    run.capacity_factor = cell.capacity_factors();
    const TrafficReport cell_report = model->run(demands, run);

    EXPECT_EQ(row.offered_bps, cell_report.stats.offered_bps);
    EXPECT_EQ(row.delivered_bps, cell_report.stats.delivered_bps);
    EXPECT_EQ(row.mean_link_utilization,
              cell_report.stats.mean_link_utilization);
    EXPECT_EQ(row.max_link_utilization,
              cell_report.stats.max_link_utilization);
    EXPECT_EQ(row.allocation_rounds, cell_report.stats.allocation_rounds);
    ASSERT_EQ(driver.last_outcomes().size(), cell_report.pairs.size());
    for (std::size_t p = 0; p < cell_report.pairs.size(); ++p) {
      EXPECT_EQ(driver.last_outcomes()[p].delivered_bps,
                cell_report.pairs[p].delivered_bps);
      EXPECT_EQ(driver.last_outcomes()[p].latency_s,
                cell_report.pairs[p].latency_s);
      EXPECT_EQ(driver.last_outcomes()[p].stretch,
                cell_report.pairs[p].stretch);
    }
  }
}

// ---------------------------------------------------------------------------
// WarmState fingerprint: a path change must silently rebuild, never reuse
// ---------------------------------------------------------------------------

TEST(Timeline, WarmStateRebuildsOnPathChangeAndReusesOnRepeat) {
  const Fixture f = make_fixture(19);
  const TopologyView topo = view_from_plan(f.plan);
  control::RouteRepairer repairer(f.plan, f.base.to_demands(), {},
                                  f.direct_km());
  const auto paths_a = repairer.traffic_paths();
  (void)repairer.apply({{f.mw_links.front(), false}});
  const auto paths_b = repairer.traffic_paths();
  bool rerouted = false;
  ASSERT_EQ(paths_a.size(), paths_b.size());
  for (std::size_t p = 0; p < paths_a.size(); ++p) {
    if (paths_a[p].nodes != paths_b[p].nodes ||
        paths_a[p].edges != paths_b[p].edges) {
      rerouted = true;
      break;
    }
  }
  ASSERT_TRUE(rerouted) << "fixture must reroute on the MW down";

  std::vector<double> rates;
  for (const auto& pair : f.base.pairs()) rates.push_back(pair.rate_bps);

  flow::WarmState warm;
  flow::AllocatorOptions with_warm;
  with_warm.warm = &warm;
  (void)flow::max_min_allocate(topo.view, paths_a, rates, with_warm);
  EXPECT_EQ(warm.incidence_reuses, 0u);

  // Different paths, same WarmState handle: the fingerprint must force a
  // rebuild and give the cold answer — correctness never depends on the
  // caller invalidating the state.
  const auto cold = flow::max_min_allocate(topo.view, paths_b, rates, {});
  const auto stale = flow::max_min_allocate(topo.view, paths_b, rates,
                                            with_warm);
  EXPECT_EQ(warm.incidence_reuses, 0u);
  EXPECT_EQ(stale.rate_bps, cold.rate_bps);
  EXPECT_EQ(stale.edge_load_bps, cold.edge_load_bps);
  EXPECT_EQ(stale.rounds, cold.rounds);

  // Same paths again: now the structure is reused, same answer.
  const auto reused = flow::max_min_allocate(topo.view, paths_b, rates,
                                             with_warm);
  EXPECT_EQ(warm.incidence_reuses, 1u);
  EXPECT_EQ(reused.rate_bps, cold.rate_bps);
}

// ---------------------------------------------------------------------------
// SLO fold + option validation
// ---------------------------------------------------------------------------

TEST(Timeline, SloSummaryOrdersPercentilesAndCountsNines) {
  const Fixture f = make_fixture(53);
  const auto schedule = make_schedule(f, 24);
  timeline::TimelineOptions options;
  options.epochs = 24;
  options.diurnal = make_diurnal(f);
  options.factor_schedule = &schedule;
  options.policy.max_stretch = 2.0;
  timeline::TimelineDriver driver(f.plan, {}, f.base, f.direct_km(),
                                  options);
  const auto rows = driver.run();
  ASSERT_EQ(rows.size(), options.epochs);

  const auto availability = driver.pair_availability();
  ASSERT_EQ(availability.size(), f.base.flow_count());
  for (const double a : availability) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }

  const timeline::TimelineSummary summary = driver.summary();
  EXPECT_EQ(summary.epochs, options.epochs);
  EXPECT_EQ(summary.pairs, f.base.flow_count());
  EXPECT_LE(summary.three_nines_fraction, summary.two_nines_fraction);
  EXPECT_LE(summary.min_availability, summary.p01_availability);
  EXPECT_LE(summary.p01_availability, summary.p10_availability);
  EXPECT_LE(summary.p10_availability, summary.p50_availability);
  EXPECT_GT(summary.mean_served_fraction, 0.0);
  EXPECT_LE(summary.worst_served_fraction, summary.mean_served_fraction);
  // The schedule downs MW links in 6 of 24 epochs, so some pair must have
  // felt it and the three-nines set cannot be everyone.
  EXPECT_LT(summary.three_nines_fraction, 1.0);
}

TEST(Timeline, WeatherEpochsPastTheYearReplayItsStart) {
  // A rain field covers one year; epochs past its end sample it from the
  // start again. With a flat diurnal profile and no growth, a driver
  // starting one year in must step exactly like one starting at the same
  // hour of the first year.
  const Fixture f = make_fixture(17);
  std::vector<geo::LatLon> sites;
  for (const auto& p : f.xy) {
    sites.push_back({38.0 + p[1] / 111.0, -100.0 + p[0] / 87.0});
  }
  terrain::BoundingBox box;
  box.lat_min = 37.0;
  box.lat_max = 57.0;
  box.lon_min = -101.0;
  box.lon_max = -76.0;
  weather::RainParams rain_params;
  rain_params.seed = 8;
  rain_params.cells_per_day_winter = 400.0;
  rain_params.cells_per_day_summer = 400.0;
  const weather::RainField rain(box, rain_params);

  timeline::TimelineOptions options;
  options.epochs = 30;
  options.diurnal = make_diurnal(f);
  options.diurnal.amplitude = 0.0;
  options.rain = &rain;
  timeline::TimelineOptions late = options;
  late.start_utc_hour = 24.0 * 365.0 + 3.0;
  options.start_utc_hour = 3.0;

  timeline::TimelineDriver first(f.plan, sites, f.base, f.direct_km(),
                                 options);
  timeline::TimelineDriver replay(f.plan, sites, f.base, f.direct_km(),
                                  late);
  std::size_t churn = 0;
  for (std::size_t e = 0; e < options.epochs; ++e) {
    const timeline::EpochStats a = first.step();
    timeline::EpochStats b = replay.step();
    EXPECT_EQ(b.utc_hour, a.utc_hour + 24.0 * 365.0);
    b.utc_hour = a.utc_hour;
    expect_epochs_equal(a, b);
    EXPECT_EQ(a.link_deltas, b.link_deltas);
    churn += a.link_deltas;
  }
  EXPECT_GT(churn, 0u);  // the weather moved links
}

TEST(Timeline, RejectsInvalidOptions) {
  const Fixture f = make_fixture(11);
  const auto schedule = make_schedule(f, 4);
  timeline::TimelineOptions good;
  good.diurnal = make_diurnal(f);
  good.factor_schedule = &schedule;

  {
    timeline::TimelineOptions bad = good;
    bad.backend = TrafficBackend::Packet;
    EXPECT_THROW(timeline::TimelineDriver(f.plan, {}, f.base, f.direct_km(),
                                          bad),
                 cisp::Error);
  }
  {
    timeline::TimelineOptions bad = good;
    bad.diurnal.floor_activity = 0.0;
    EXPECT_THROW(timeline::TimelineDriver(f.plan, {}, f.base, f.direct_km(),
                                          bad),
                 cisp::Error);
  }
  {
    // Schedule rows must cover every plan link.
    const std::vector<std::vector<double>> short_row = {{1.0}};
    timeline::TimelineOptions bad = good;
    bad.factor_schedule = &short_row;
    EXPECT_THROW(timeline::TimelineDriver(f.plan, {}, f.base, f.direct_km(),
                                          bad),
                 cisp::Error);
  }
  {
    // The diurnal profile must cover every demand site.
    timeline::TimelineOptions bad = good;
    bad.diurnal.tz_offset_hours.resize(2);
    EXPECT_THROW(timeline::TimelineDriver(f.plan, {}, f.base, f.direct_km(),
                                          bad),
                 cisp::Error);
  }
}

}  // namespace
}  // namespace cisp::net
