// Unit and property tests for src/terrain: noise determinism/continuity,
// synthetic terrain shape (ridges where geography says so), the ridge-reach
// skip against the per-ridge loop it replaced, raster fidelity and input
// checks, and profile extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "geo/geodesic.hpp"
#include "terrain/heightfield.hpp"
#include "terrain/noise.hpp"
#include "terrain/profile.hpp"
#include "terrain/regions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::terrain {
namespace {

TEST(ValueNoise, DeterministicForSeed) {
  ValueNoise a(123);
  ValueNoise b(123);
  ValueNoise c(124);
  EXPECT_DOUBLE_EQ(a.at(1.5, 2.5), b.at(1.5, 2.5));
  EXPECT_NE(a.at(1.5, 2.5), c.at(1.5, 2.5));
}

TEST(ValueNoise, BoundedOutput) {
  ValueNoise n(7);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double v = n.at(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0));
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ValueNoise, ContinuityProperty) {
  // |n(x+eps) - n(x)| must vanish with eps (C1 interpolation).
  ValueNoise n(11);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    const double y = rng.uniform(-50.0, 50.0);
    EXPECT_NEAR(n.at(x, y), n.at(x + 1e-6, y), 1e-4);
    EXPECT_NEAR(n.at(x, y), n.at(x, y + 1e-6), 1e-4);
  }
}

TEST(Fbm, BoundedAndDeterministic) {
  Fbm f({.seed = 42, .octaves = 5, .frequency = 1.0});
  Fbm g({.seed = 42, .octaves = 5, .frequency = 1.0});
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-30.0, 30.0);
    const double y = rng.uniform(-30.0, 30.0);
    const double v = f.at(x, y);
    EXPECT_DOUBLE_EQ(v, g.at(x, y));
    EXPECT_GE(v, -1.001);
    EXPECT_LE(v, 1.001);
  }
}

TEST(Fbm, RejectsBadParams) {
  EXPECT_THROW(Fbm({.seed = 1, .octaves = 0}), Error);
  EXPECT_THROW(Fbm({.seed = 1, .octaves = 3, .frequency = 0.0}), Error);
}

TEST(SyntheticTerrain, RockiesHigherThanGreatPlains) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  // Colorado Rockies vs central Kansas.
  const double rockies = terrain.elevation_m({39.5, -106.0});
  const double plains = terrain.elevation_m({38.5, -98.0});
  EXPECT_GT(rockies, 1500.0);
  EXPECT_LT(plains, 700.0);
  EXPECT_GT(rockies, plains + 800.0);
}

TEST(SyntheticTerrain, AppalachiansModestButPresent) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  const double appalachia = terrain.elevation_m({36.5, -81.7});
  const double coastal_plain = terrain.elevation_m({35.0, -78.0});
  EXPECT_GT(appalachia, coastal_plain);
  EXPECT_GT(appalachia, 500.0);
}

TEST(SyntheticTerrain, AlpsDominateEurope) {
  const auto region = europe();
  const SyntheticTerrain terrain = region.make_terrain();
  const double alps = terrain.elevation_m({46.5, 9.5});
  const double po_valley = terrain.elevation_m({45.1, 10.0});
  const double north_german_plain = terrain.elevation_m({52.5, 10.0});
  EXPECT_GT(alps, 1500.0);
  EXPECT_GT(alps, north_german_plain + 1000.0);
  EXPECT_LT(north_german_plain, 600.0);
  (void)po_valley;
}

TEST(SyntheticTerrain, NonNegativeEverywhereProperty) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  Rng rng(21);
  for (int i = 0; i < 5000; ++i) {
    const geo::LatLon p{rng.uniform(region.box.lat_min, region.box.lat_max),
                        rng.uniform(region.box.lon_min, region.box.lon_max)};
    EXPECT_GE(terrain.elevation_m(p), 0.0);
    EXPECT_GE(terrain.clutter_m(p), 0.0);
    EXPECT_LE(terrain.clutter_m(p), 24.0 + 1e-9);
  }
}

// --- Ridge-reach skip oracle ---------------------------------------------

/// The segment distance of src/terrain/heightfield.cpp, verbatim.
double reference_distance_to_segment_km(const geo::LatLon& p,
                                        const geo::LatLon& a,
                                        const geo::LatLon& b) noexcept {
  const double seg_len = geo::distance_km(a, b);
  if (seg_len < 1e-9) return geo::distance_km(p, a);
  const double d_ap = geo::distance_km(a, p);
  if (d_ap < 1e-9) return 0.0;
  const double delta13 = d_ap / geo::kEarthRadiusKm;
  const double theta13 = geo::deg_to_rad(geo::initial_bearing_deg(a, p));
  const double theta12 = geo::deg_to_rad(geo::initial_bearing_deg(a, b));
  const double cross =
      std::asin(std::clamp(std::sin(delta13) * std::sin(theta13 - theta12),
                           -1.0, 1.0)) *
      geo::kEarthRadiusKm;
  const double cos_ratio = std::clamp(
      std::cos(delta13) / std::cos(cross / geo::kEarthRadiusKm), -1.0, 1.0);
  double along = std::acos(cos_ratio) * geo::kEarthRadiusKm;
  // acos loses the sign: a point "behind" a has along-track ~0 but large
  // distance; detect via bearing difference.
  const double bearing_diff =
      std::fabs(std::remainder(theta13 - theta12, 2.0 * 3.14159265358979323846));
  if (bearing_diff > 3.14159265358979323846 / 2.0) along = -along;
  if (along <= 0.0) return d_ap;
  if (along >= seg_len) return geo::distance_km(p, b);
  return std::fabs(cross);
}

/// What the oracle saw, per (point, ridge) evaluation of the reference.
struct OracleStats {
  std::size_t points = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  std::size_t skippable = 0;     ///< d > cutoff + L/2: the reach test skips it
  std::size_t near_kept = 0;     ///< 4.28 sigma <= d, envelope kept
  std::size_t near_dropped = 0;  ///< d <= 4.30 sigma, envelope dropped
};

/// SyntheticTerrain::elevation_m as the loop over every ridge that the
/// reach skip replaced, verbatim; the fBm fields come from the same seeds
/// as SyntheticTerrain's constructor. `stats` only observes.
class ReferenceTerrain {
 public:
  explicit ReferenceTerrain(SyntheticTerrain::Params params)
      : params_(std::move(params)),
        plains_({.seed = splitmix64(params_.seed ^ 0xA11CE5),
                 .octaves = 4,
                 .frequency = params_.plains_freq}),
        rough_({.seed = splitmix64(params_.seed ^ 0xB0B5),
                .octaves = 5,
                .frequency = params_.rough_freq}) {
    for (const Ridge& ridge : params_.ridges) {
      skip_beyond_km_.push_back(ridge.width_km * std::sqrt(2.0 * std::log(1e4)) +
                                0.5 * geo::distance_km(ridge.a, ridge.b));
    }
  }

  [[nodiscard]] double elevation_m(const geo::LatLon& p,
                                   OracleStats& stats) const {
    double elev = params_.base_m;
    elev += params_.plains_amp_m * plains_.at(p.lon_deg, p.lat_deg);
    elev += params_.rough_amp_m * rough_.at(p.lon_deg, p.lat_deg);
    for (const Ridge& ridge : params_.ridges) {
      const double d = reference_distance_to_segment_km(p, ridge.a, ridge.b);
      const double sigma = ridge.width_km;
      const double envelope = std::exp(-(d * d) / (2.0 * sigma * sigma));
      observe(ridge, d, envelope, stats);
      if (envelope < 1e-4) continue;
      // Modulate the crest so ridges have peaks and passes rather than a
      // uniform wall; reuse the rough field at a ridge-specific offset.
      const double crest_mod =
          0.75 + 0.25 * rough_.at(p.lon_deg * 0.7 + ridge.peak_m,
                                  p.lat_deg * 0.7 - ridge.width_km);
      elev += ridge.peak_m * envelope * crest_mod;
    }
    return std::max(0.0, elev);
  }

 private:
  void observe(const Ridge& ridge, double d, double envelope,
               OracleStats& stats) const {
    const auto k = static_cast<std::size_t>(&ridge - params_.ridges.data());
    if (d > skip_beyond_km_[k]) ++stats.skippable;
    const double sigma = ridge.width_km;
    if (envelope >= 1e-4 && d >= 4.28 * sigma) ++stats.near_kept;
    if (envelope < 1e-4 && d <= 4.30 * sigma) ++stats.near_dropped;
  }

  SyntheticTerrain::Params params_;
  Fbm plains_;
  Fbm rough_;
  /// Per ridge: cutoff + L/2. Past it the reach test skips the ridge.
  std::vector<double> skip_beyond_km_;
};

void compare_at(const SyntheticTerrain& fast, const ReferenceTerrain& ref,
                const geo::LatLon& p, OracleStats& stats) {
  ++stats.points;
  const double got = fast.elevation_m(p);
  const double want = ref.elevation_m(p, stats);
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return;
  }
  if (stats.mismatches++ == 0) {
    std::ostringstream os;
    os.precision(17);
    os << p << ": skip " << got << ", reference " << want;
    stats.first_mismatch = os.str();
  }
}

/// Points at 4.28-4.30 sigma from both endpoints and from the axis of every
/// ridge: the envelope cutoff (4.2919 sigma) falls inside each ring band.
std::vector<geo::LatLon> cutoff_rings(const std::vector<Ridge>& ridges) {
  std::vector<geo::LatLon> points;
  for (const Ridge& ridge : ridges) {
    for (int k = 0; k <= 4; ++k) {
      const double r = ridge.width_km * (4.28 + 0.005 * k);
      for (int deg = 0; deg < 360; deg += 2) {
        points.push_back(geo::destination(ridge.a, deg, r));
        points.push_back(geo::destination(ridge.b, deg, r));
      }
      for (int i = 1; i < 64; ++i) {
        const geo::LatLon q = geo::interpolate(ridge.a, ridge.b, i / 64.0);
        const double track = geo::initial_bearing_deg(q, ridge.b);
        points.push_back(geo::destination(q, track + 90.0, r));
        points.push_back(geo::destination(q, track - 90.0, r));
      }
    }
  }
  return points;
}

TEST(SyntheticTerrain, RidgeSkipIsBitIdenticalToTheReference) {
  for (const Region& region : {contiguous_us(2022), europe(7)}) {
    SCOPED_TRACE(region.name);
    const SyntheticTerrain fast = region.make_terrain();
    const ReferenceTerrain ref(region.terrain_params);
    OracleStats stats;
    const BoundingBox& box = region.box;
    // Every 0.05-degree node of the region's box.
    const auto rows = static_cast<int>(
        std::lround((box.lat_max - box.lat_min) / 0.05));
    const auto cols = static_cast<int>(
        std::lround((box.lon_max - box.lon_min) / 0.05));
    for (int r = 0; r <= rows; ++r) {
      for (int c = 0; c <= cols; ++c) {
        compare_at(fast, ref, {box.lat_min + r * 0.05, box.lon_min + c * 0.05},
                   stats);
      }
    }
    // Random points within 5 degrees of the box.
    Rng rng(region.terrain_params.seed ^ 0x5EED);
    for (int i = 0; i < 500000; ++i) {
      compare_at(fast, ref,
                 {rng.uniform(box.lat_min - 5.0, box.lat_max + 5.0),
                  rng.uniform(box.lon_min - 5.0, box.lon_max + 5.0)},
                 stats);
    }
    for (const geo::LatLon& p : cutoff_rings(region.terrain_params.ridges)) {
      compare_at(fast, ref, p, stats);
    }
    EXPECT_EQ(stats.mismatches, 0u)
        << "of " << stats.points << " points; first " << stats.first_mismatch;
    // The oracle exercised both sides of the skip.
    EXPECT_GT(stats.skippable, stats.points);
    EXPECT_GT(stats.near_kept, 0u);
    EXPECT_GT(stats.near_dropped, 0u);
  }
}

TEST(Flatland, IsFlat) {
  const auto region = flatland({.lat_min = 30, .lat_max = 40,
                                .lon_min = -100, .lon_max = -90});
  const SyntheticTerrain terrain = region.make_terrain();
  EXPECT_DOUBLE_EQ(terrain.elevation_m({35.0, -95.0}), 100.0);
  EXPECT_DOUBLE_EQ(terrain.clutter_m({35.0, -95.0}), 0.0);
}

TEST(RasterTerrain, MatchesSourceWithinTolerance) {
  const auto region = contiguous_us();
  const SyntheticTerrain source = region.make_terrain();
  const BoundingBox patch{.lat_min = 38.0, .lat_max = 41.0,
                          .lon_min = -106.0, .lon_max = -102.0};
  const RasterTerrain raster(source, patch, 0.01);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const geo::LatLon p{rng.uniform(38.05, 40.95), rng.uniform(-105.95, -102.05)};
    // 0.01 deg cells ~1.1 km; synthetic terrain slope is bounded, so the
    // bilinear error stays small relative to mountain heights.
    EXPECT_NEAR(raster.elevation_m(p), source.elevation_m(p), 60.0);
  }
}

TEST(RasterTerrain, ClampsOutsideBox) {
  const auto region = flatland({.lat_min = 30, .lat_max = 31,
                                .lon_min = -100, .lon_max = -99});
  const SyntheticTerrain source = region.make_terrain();
  const RasterTerrain raster(source, region.box, 0.05);
  EXPECT_DOUBLE_EQ(raster.elevation_m({29.0, -100.5}), 100.0);
  EXPECT_DOUBLE_EQ(raster.elevation_m({35.0, -50.0}), 100.0);
}

TEST(RasterTerrain, RejectsDegenerateBox) {
  const auto region = contiguous_us();
  const SyntheticTerrain source = region.make_terrain();
  EXPECT_THROW(RasterTerrain(source,
                             {.lat_min = 40, .lat_max = 40, .lon_min = -100,
                              .lon_max = -90},
                             0.01),
               Error);
}

TEST(RasterTerrain, RejectsNonFiniteBoxAndCellSize) {
  const auto region = flatland({.lat_min = 30, .lat_max = 31,
                                .lon_min = -100, .lon_max = -99});
  const SyntheticTerrain source = region.make_terrain();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RasterTerrain(source,
                             {.lat_min = 30, .lat_max = inf, .lon_min = -100,
                              .lon_max = -99},
                             0.05),
               Error);
  EXPECT_THROW(RasterTerrain(source,
                             {.lat_min = 30, .lat_max = 31, .lon_min = -inf,
                              .lon_max = -99},
                             0.05),
               Error);
  EXPECT_THROW(RasterTerrain(source,
                             {.lat_min = nan, .lat_max = 31, .lon_min = -100,
                              .lon_max = -99},
                             0.05),
               Error);
  EXPECT_THROW(RasterTerrain(source, region.box, inf), Error);
  EXPECT_THROW(RasterTerrain(source, region.box, 0.05, inf), Error);
}

TEST(RasterTerrain, NanCoordinateSamplesAsNan) {
  const auto region = flatland({.lat_min = 30, .lat_max = 31,
                                .lon_min = -100, .lon_max = -99});
  const RasterTerrain raster(region.make_terrain(), region.box, 0.05);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(raster.elevation_m({nan, -99.5})));
  EXPECT_TRUE(std::isnan(raster.clutter_m({30.5, nan})));
}

TEST(Profile, RejectsNonFiniteEndpoints) {
  const auto region = flatland({.lat_min = 30, .lat_max = 31,
                                .lon_min = -100, .lon_max = -99});
  const RasterTerrain raster(region.make_terrain(), region.box, 0.05);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(build_profile(raster, {nan, -99.5}, {30.5, -99.2}, 0.5), Error);
}

TEST(Profile, EndpointsAndMonotoneDistance) {
  const auto region = contiguous_us();
  const RasterTerrain terrain = region.make_raster_terrain();
  const geo::LatLon a{41.88, -87.63};  // Chicago
  const geo::LatLon b{41.81, -86.47};  // Galien, MI (the paper's 96 km hop)
  const auto profile = build_profile(terrain, a, b, 0.5);
  ASSERT_GE(profile.size(), 2u);
  EXPECT_NEAR(profile.total_km, geo::distance_km(a, b), 1e-9);
  EXPECT_DOUBLE_EQ(profile.dist_km.front(), 0.0);
  EXPECT_NEAR(profile.dist_km.back(), profile.total_km, 1e-9);
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_GT(profile.dist_km[i], profile.dist_km[i - 1]);
  }
  EXPECT_EQ(profile.ground_m.size(), profile.clutter_m.size());
}

TEST(Profile, StepControlsResolution) {
  const auto region = flatland({.lat_min = 30, .lat_max = 40,
                                .lon_min = -100, .lon_max = -90});
  const SyntheticTerrain terrain = region.make_terrain();
  const geo::LatLon a{35.0, -98.0};
  const geo::LatLon b{35.0, -97.0};
  const auto coarse = build_profile(terrain, a, b, 10.0);
  const auto fine = build_profile(terrain, a, b, 0.1);
  EXPECT_LT(coarse.size(), fine.size());
  EXPECT_THROW(build_profile(terrain, a, b, -1.0), Error);
}

}  // namespace
}  // namespace cisp::terrain
