// Unit and integration tests for the weather subsystem: storm-cell
// kinematics, rain field statistics (wet fractions, seasonal and
// convective structure), the binary outage model, and a reduced Fig. 7
// study on a fast scenario.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "design/greedy.hpp"
#include "geo/geodesic.hpp"
#include "design/scenario.hpp"
#include "util/rng.hpp"
#include "weather/outage.hpp"
#include "weather/rainfield.hpp"
#include "weather/study.hpp"

namespace cisp::weather {
namespace {

const terrain::BoundingBox kUsBox{24.0, 50.0, -125.5, -66.0};

TEST(StormCell, MovesAlongHeadingAndRespectsLifetime) {
  StormCell cell;
  cell.birth_pos = {40.0, -100.0};
  cell.birth_s = 1000.0;
  cell.death_s = 1000.0 + 7200.0;  // 2 hours
  cell.peak_mm_h = 50.0;
  cell.sigma_km = 20.0;
  cell.heading_deg = 90.0;
  cell.speed_kmh = 40.0;
  EXPECT_FALSE(cell.active(0.0));
  EXPECT_TRUE(cell.active(4600.0));
  const auto mid = cell.center_at(cell.birth_s + 3600.0);
  EXPECT_NEAR(geo::distance_km(cell.birth_pos, mid), 40.0, 0.5);
  EXPECT_GT(mid.lon_deg, cell.birth_pos.lon_deg);  // moved east
}

TEST(StormCell, RainPeaksAtCenterAndDecaysWithDistance) {
  StormCell cell;
  cell.birth_pos = {40.0, -100.0};
  cell.birth_s = 0.0;
  cell.death_s = 7200.0;
  cell.peak_mm_h = 60.0;
  cell.sigma_km = 15.0;
  cell.speed_kmh = 0.0;
  const double t = 3600.0;  // mid-life: envelope = sin(pi/2) = 1
  const double at_center = cell.rain_at(cell.birth_pos, t);
  EXPECT_NEAR(at_center, 60.0, 1.0);
  const auto off = geo::destination(cell.birth_pos, 0.0, 15.0);
  EXPECT_NEAR(cell.rain_at(off, t), 60.0 * std::exp(-0.5), 1.0);
  const auto far = geo::destination(cell.birth_pos, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(cell.rain_at(far, t), 0.0);
}

TEST(RainField, DeterministicAndYearScaleCellCount) {
  const RainField a(kUsBox);
  const RainField b(kUsBox);
  EXPECT_EQ(a.cell_count(), b.cell_count());
  // ~30-70 cells/day for a year.
  EXPECT_GT(a.cell_count(), 8000u);
  EXPECT_LT(a.cell_count(), 30000u);
}

TEST(RainField, SummerHasMoreActiveCellsThanWinter) {
  const RainField field(kUsBox);
  std::size_t winter = 0;
  std::size_t summer = 0;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    winter += field.active_cells((10.0 + i) * kDayS + 43200.0).size();
    summer += field.active_cells((190.0 + i) * kDayS + 43200.0).size();
  }
  EXPECT_GT(summer, winter);
}

TEST(RainField, WetFractionIsRealistic) {
  // Point-in-time wet fraction over random (place, time) samples: real
  // mid-latitude continents see rain over a few percent of area-time.
  const RainField field(kUsBox);
  Rng rng(7);
  int wet = 0;
  int heavy = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const geo::LatLon p{rng.uniform(kUsBox.lat_min, kUsBox.lat_max),
                        rng.uniform(kUsBox.lon_min, kUsBox.lon_max)};
    const double rate = field.rain_mm_h(p, rng.uniform() * kYearS);
    if (rate > 0.25) ++wet;
    if (rate > 50.0) ++heavy;
  }
  const double wet_fraction = static_cast<double>(wet) / n;
  EXPECT_GT(wet_fraction, 0.01);
  EXPECT_LT(wet_fraction, 0.20);
  // Violent rain is rare but must exist.
  EXPECT_GT(heavy, 0);
  EXPECT_LT(static_cast<double>(heavy) / n, 0.005);
}

TEST(RainField, RejectsTimeOutsideYear) {
  const RainField field(kUsBox);
  EXPECT_THROW((void)field.rain_mm_h({40, -100}, -1.0), cisp::Error);
  EXPECT_THROW((void)field.rain_mm_h({40, -100}, kYearS + 1.0), cisp::Error);
}

TEST(RainField, ActiveCellsAndSnapshotRejectTimeOutsideYear) {
  // active_cells used to cast t / kDayS to an index unchecked: negative or
  // NaN times were undefined behaviour, late ones read the last day.
  const RainField field(kUsBox);
  for (const double t : {-1.0, -3.0 * kDayS, kYearS + 1.0, std::nan("")}) {
    EXPECT_THROW((void)field.active_cells(t), cisp::Error) << t;
    EXPECT_THROW((void)field.snapshot(t), cisp::Error) << t;
    EXPECT_THROW((void)field.rain_mm_h({40, -100}, t), cisp::Error) << t;
  }
  EXPECT_NO_THROW((void)field.active_cells(kYearS));
  EXPECT_NO_THROW((void)field.snapshot(0.0));
}

TEST(RainField, SnapshotHoldsTheActiveCellsInOrderAndSumsBitIdentically) {
  const RainField field(kUsBox);
  Rng rng(11);
  std::vector<double> times = {0.0, kDayS, 200.0 * kDayS - 1.0, kYearS};
  for (int i = 0; i < 60; ++i) times.push_back(rng.uniform() * kYearS);
  std::size_t cells_seen = 0;
  std::size_t wet = 0;
  for (const double t : times) {
    const std::vector<const StormCell*> active = field.active_cells(t);
    const RainSnapshot snapshot = field.snapshot(t);
    EXPECT_EQ(snapshot.t_s, t);
    ASSERT_EQ(snapshot.cells.size(), active.size()) << t;
    for (std::size_t c = 0; c < active.size(); ++c) {
      const geo::LatLon center = active[c]->center_at(t);
      EXPECT_EQ(snapshot.cells[c].center.pos, center);
      EXPECT_EQ(snapshot.cells[c].cutoff_km, 4.0 * active[c]->sigma_km);
      EXPECT_GT(snapshot.cells[c].skip_km, snapshot.cells[c].cutoff_km);
      // The snapshot cell rains exactly like the cell, at its center and
      // along a ray out past its cutoff.
      for (const double km : {0.0, 0.5, 1.0, 2.0, 3.999, 4.0, 4.001, 6.0}) {
        const geo::LatLon p = geo::destination(
            center, rng.uniform(0.0, 360.0), km * active[c]->sigma_km);
        EXPECT_EQ(snapshot.cells[c].rain_at(p), active[c]->rain_at(p, t));
      }
    }
    cells_seen += active.size();
    // Field sums: bit-identical to the per-point query, wet or dry.
    for (int i = 0; i < 200; ++i) {
      const geo::LatLon p{rng.uniform(kUsBox.lat_min, kUsBox.lat_max),
                          rng.uniform(kUsBox.lon_min, kUsBox.lon_max)};
      const double expected = field.rain_mm_h(p, t);
      EXPECT_EQ(snapshot.rain_mm_h(RainProbe(p)), expected);
      if (expected > 0.0) ++wet;
    }
    // ...and at each center and on rings just inside and outside its
    // cutoff, where the skip bounds decide.
    for (const StormCell* cell : active) {
      const geo::LatLon center = cell->center_at(t);
      EXPECT_EQ(snapshot.rain_mm_h(RainProbe(center)),
                field.rain_mm_h(center, t));
      for (const double sigmas : {3.99, 3.9999999, 4.0, 4.0000001, 4.01}) {
        const geo::LatLon p = geo::destination(
            center, rng.uniform(0.0, 360.0), sigmas * cell->sigma_km);
        EXPECT_EQ(snapshot.rain_mm_h(RainProbe(p)), field.rain_mm_h(p, t));
      }
    }
  }
  EXPECT_GT(cells_seen, 100u);
  EXPECT_GT(wet, 100u);
}

TEST(Outage, DryHopNeverFails) {
  const RainField field(kUsBox, {.seed = 1, .cells_per_day_winter = 0.0,
                                 .cells_per_day_summer = 0.0});
  OutageModel model;
  infra::Tower a{{40.0, -100.0}, 100.0};
  infra::Tower b{{40.0, -99.0}, 100.0};
  EXPECT_FALSE(model.hop_down(a, b, field, 1000.0));
}

TEST(Outage, ViolentCellOverHopKnocksItOut) {
  // One stationary convective monster directly on the hop.
  RainParams params;
  params.seed = 3;
  params.cells_per_day_winter = 0.0;
  params.cells_per_day_summer = 0.0;
  const RainField empty(kUsBox, params);
  OutageModel model;
  // Craft the cell by hand and test through the rf layer directly: the
  // outage threshold for an 85-km hop sits near 40-60 mm/h.
  const double threshold = rf::outage_rain_rate_mm_h(85.0, model.budget);
  EXPECT_GT(threshold, 10.0);
  EXPECT_LT(threshold, 200.0);
  EXPECT_TRUE(rf::hop_fails_in_rain(85.0, threshold * 1.1, model.budget));
  (void)empty;
}

TEST(Outage, LinkDownIffSomeHopDown) {
  const RainField field(kUsBox);
  OutageModel model;
  // Find a moment & place with violent rain by scanning cells.
  bool found_down_hop = false;
  for (double t = 180.0 * kDayS; t < 230.0 * kDayS && !found_down_hop;
       t += kDayS / 4.0) {
    for (const StormCell* cell : field.active_cells(t)) {
      if (cell->peak_mm_h < 60.0) continue;
      const auto center = cell->center_at(t);
      if (!kUsBox.contains(center)) continue;
      infra::Tower a{geo::destination(center, 270.0, 40.0), 100.0};
      infra::Tower b{geo::destination(center, 90.0, 40.0), 100.0};
      if (model.hop_down(a, b, field, t)) {
        found_down_hop = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_down_hop);
}

TEST(Study, ReducedYearStudyMatchesPaperShape) {
  design::ScenarioOptions options;
  options.fast = true;
  options.top_cities = 40;
  const auto scenario = design::build_us_scenario(options);
  const auto problem = design::city_city_problem(scenario, 500.0, 20);
  const auto topo = design::solve_greedy(problem.input);
  ASSERT_FALSE(topo.links.empty());

  const RainField rain(scenario.region.box);
  StudyParams params;
  params.days = 120;  // reduced year for test speed
  const auto result = run_weather_study(problem, topo,
                                        scenario.tower_graph.towers, rain,
                                        params);
  ASSERT_EQ(result.best_stretch.count(), 20u * 19u / 2u);
  // Paper's qualitative claims:
  // (1) best <= p99 <= worst pairwise distributions;
  EXPECT_LE(result.best_stretch.median(), result.p99_stretch.median() + 1e-9);
  EXPECT_LE(result.p99_stretch.median(), result.worst_stretch.median() + 1e-9);
  // (2) even the worst day stays well below fiber for the median pair;
  EXPECT_LT(result.worst_stretch.median(), result.fiber_stretch.median());
  // (3) outages happen (weather is real) but most links stay up.
  EXPECT_GT(result.days_with_any_outage, 0);
  EXPECT_LT(result.mean_links_down_fraction, 0.25);
}

TEST(Study, ResultBitIdenticalAcrossThreadCounts) {
  design::ScenarioOptions options;
  options.fast = true;
  options.top_cities = 30;
  const auto scenario = design::build_us_scenario(options);
  const auto problem = design::city_city_problem(scenario, 400.0, 12);
  const auto topo = design::solve_greedy(problem.input);
  ASSERT_FALSE(topo.links.empty());

  const RainField rain(scenario.region.box);
  StudyParams params;
  params.days = 40;
  params.threads = 1;
  const auto serial = run_weather_study(problem, topo,
                                        scenario.tower_graph.towers, rain,
                                        params);
  params.threads = 4;
  const auto parallel = run_weather_study(problem, topo,
                                          scenario.tower_graph.towers, rain,
                                          params);
  // The per-day seeds and the day-ordered merge make the whole result
  // bit-identical, not merely statistically equivalent.
  EXPECT_EQ(serial.best_stretch.values(), parallel.best_stretch.values());
  EXPECT_EQ(serial.p99_stretch.values(), parallel.p99_stretch.values());
  EXPECT_EQ(serial.worst_stretch.values(), parallel.worst_stretch.values());
  EXPECT_EQ(serial.fiber_stretch.values(), parallel.fiber_stretch.values());
  EXPECT_EQ(serial.mean_links_down_fraction,
            parallel.mean_links_down_fraction);
  EXPECT_EQ(serial.days_with_any_outage, parallel.days_with_any_outage);
}

}  // namespace
}  // namespace cisp::weather
