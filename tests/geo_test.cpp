// Unit and property tests for src/geo: geodesic arithmetic against known
// city distances, great-circle interpolation invariants, latency helpers,
// and the spatial index.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geo/geodesic.hpp"
#include "geo/latlon.hpp"
#include "geo/spatial_index.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::geo {
namespace {

const LatLon kNyc{40.7128, -74.0060};
const LatLon kChicago{41.8781, -87.6298};
const LatLon kLa{34.0522, -118.2437};
const LatLon kLondon{51.5074, -0.1278};

TEST(Geodesic, KnownCityDistances) {
  // Reference great-circle distances (±1% tolerance).
  EXPECT_NEAR(distance_km(kNyc, kChicago), 1145.0, 15.0);
  EXPECT_NEAR(distance_km(kNyc, kLa), 3936.0, 40.0);
  EXPECT_NEAR(distance_km(kNyc, kLondon), 5570.0, 56.0);
}

TEST(Geodesic, SymmetricAndIdentity) {
  EXPECT_DOUBLE_EQ(distance_km(kNyc, kChicago), distance_km(kChicago, kNyc));
  EXPECT_DOUBLE_EQ(distance_km(kNyc, kNyc), 0.0);
}

TEST(Geodesic, TriangleInequalityProperty) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const LatLon a{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    const LatLon b{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    const LatLon c{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    EXPECT_LE(distance_km(a, c),
              distance_km(a, b) + distance_km(b, c) + 1e-6);
  }
}

TEST(Geodesic, CLatencyMatchesHandComputation) {
  // 2998 km at c is ~10 ms one way.
  EXPECT_NEAR(c_latency_for_km(2997.92458), 10.0, 1e-9);
  EXPECT_NEAR(c_latency_ms(kNyc, kChicago),
              distance_km(kNyc, kChicago) / 299792.458 * 1000.0, 1e-12);
}

TEST(Geodesic, FiberLatencyIsFiftyPercentSlower) {
  EXPECT_NEAR(fiber_latency_for_km(1000.0) / c_latency_for_km(1000.0), 1.5,
              1e-12);
}

TEST(Geodesic, InterpolateEndpointsExact) {
  const LatLon p0 = interpolate(kNyc, kLa, 0.0);
  const LatLon p1 = interpolate(kNyc, kLa, 1.0);
  EXPECT_NEAR(distance_km(p0, kNyc), 0.0, 1e-6);
  EXPECT_NEAR(distance_km(p1, kLa), 0.0, 1e-6);
}

TEST(Geodesic, InterpolateMidpointEquidistant) {
  const LatLon mid = interpolate(kNyc, kLa, 0.5);
  EXPECT_NEAR(distance_km(kNyc, mid), distance_km(mid, kLa), 1e-6);
}

TEST(Geodesic, InterpolateLiesOnGreatCircleProperty) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const LatLon a{rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)};
    const LatLon b{rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)};
    const double f = rng.uniform();
    const LatLon m = interpolate(a, b, f);
    // Along-path additivity: d(a,m) + d(m,b) == d(a,b).
    EXPECT_NEAR(distance_km(a, m) + distance_km(m, b), distance_km(a, b),
                1e-6);
    // Fractional position matches f.
    if (distance_km(a, b) > 1.0) {
      EXPECT_NEAR(distance_km(a, m) / distance_km(a, b), f, 1e-9);
    }
  }
}

TEST(Geodesic, DestinationRoundTripProperty) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const LatLon origin{rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)};
    const double bearing = rng.uniform(0.0, 360.0);
    const double dist = rng.uniform(1.0, 2000.0);
    const LatLon dest = destination(origin, bearing, dist);
    EXPECT_NEAR(distance_km(origin, dest), dist, dist * 1e-9 + 1e-6);
  }
}

TEST(Geodesic, BearingCardinalDirections) {
  const LatLon origin{40.0, -100.0};
  EXPECT_NEAR(initial_bearing_deg(origin, {45.0, -100.0}), 0.0, 0.1);
  EXPECT_NEAR(initial_bearing_deg(origin, {35.0, -100.0}), 180.0, 0.1);
  EXPECT_NEAR(initial_bearing_deg(origin, {40.0, -95.0}), 90.0, 2.0);
}

TEST(Geodesic, SamplePathEndpointsAndSpacing) {
  const auto path = sample_path(kNyc, kChicago, 50.0);
  ASSERT_GE(path.size(), 2u);
  EXPECT_NEAR(distance_km(path.front(), kNyc), 0.0, 1e-6);
  EXPECT_NEAR(distance_km(path.back(), kChicago), 0.0, 1e-6);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(distance_km(path[i - 1], path[i]), 50.0 + 1e-6);
  }
}

TEST(Geodesic, SamplePathRejectsBadStep) {
  EXPECT_THROW(sample_path(kNyc, kChicago, 0.0), Error);
}

/// The per-call slerp that interpolate() ran before sample_path shared one
/// basis per path, verbatim: it rebuilds both unit vectors, the angle and
/// its sine for every point.
LatLon reference_interpolate(const LatLon& a, const LatLon& b, double f) {
  const auto unit = [](const LatLon& p) {
    const double lat = deg_to_rad(p.lat_deg);
    const double lon = deg_to_rad(p.lon_deg);
    return Vec3{std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
                std::sin(lat)};
  };
  const Vec3 va = unit(a);
  const Vec3 vb = unit(b);
  const double dot = std::clamp(
      va.x * vb.x + va.y * vb.y + va.z * vb.z, -1.0, 1.0);
  const double omega = std::acos(dot);
  if (omega < 1e-12) return a;
  const double sa = std::sin((1.0 - f) * omega) / std::sin(omega);
  const double sb = std::sin(f * omega) / std::sin(omega);
  const Vec3 v{sa * va.x + sb * vb.x, sa * va.y + sb * vb.y,
               sa * va.z + sb * vb.z};
  const double norm = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
  const double lat = std::asin(std::clamp(v.z / norm, -1.0, 1.0));
  const double lon = std::atan2(v.y, v.x);
  return {rad_to_deg(lat), rad_to_deg(lon)};
}

bool bitwise_equal(const LatLon& x, const LatLon& y) {
  return std::bit_cast<std::uint64_t>(x.lat_deg) ==
             std::bit_cast<std::uint64_t>(y.lat_deg) &&
         std::bit_cast<std::uint64_t>(x.lon_deg) ==
             std::bit_cast<std::uint64_t>(y.lon_deg);
}

/// sample_path(a, b, step)[i] must be bitwise interpolate(a, b, i / n), and
/// both bitwise the per-call reference.
void expect_path_is_interpolate(const LatLon& a, const LatLon& b,
                                double step_km) {
  const auto path = sample_path(a, b, step_km);
  ASSERT_GE(path.size(), 2u);
  const auto n = static_cast<double>(path.size() - 1);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const double f = static_cast<double>(i) / n;
    ASSERT_TRUE(bitwise_equal(path[i], interpolate(a, b, f)))
        << a << " -> " << b << " step " << step_km << " point " << i;
    ASSERT_TRUE(bitwise_equal(path[i], reference_interpolate(a, b, f)))
        << a << " -> " << b << " step " << step_km << " point " << i;
  }
}

TEST(Geodesic, SamplePathIsBitwiseInterpolate) {
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const LatLon a{rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)};
    const LatLon b{rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)};
    expect_path_is_interpolate(a, b, rng.uniform(5.0, 500.0));
  }
  // Hop-scale paths at the hop graph's coarse and fine steps.
  for (int i = 0; i < 2000; ++i) {
    const LatLon a{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
    const LatLon b = destination(a, rng.uniform(0.0, 360.0),
                                 rng.uniform(0.5, 100.0));
    expect_path_is_interpolate(a, b, 2.0);
    expect_path_is_interpolate(a, b, 0.5);
  }
  // Coincident endpoints, and paths shorter than one step.
  expect_path_is_interpolate(kNyc, kNyc, 1.0);
  expect_path_is_interpolate(kNyc, {40.7128, -74.0061}, 1.0);
  expect_path_is_interpolate(kNyc, kChicago, 5000.0);
  // Near-antipodal paths, where sin(omega) is small.
  for (const double off : {1e-3, 0.1, 1.0}) {
    expect_path_is_interpolate(kNyc, {-kNyc.lat_deg + off,
                                      kNyc.lon_deg + 180.0 - off},
                               250.0);
  }
  expect_path_is_interpolate({0.0, 0.0}, {0.0, 179.9}, 100.0);
}

TEST(Geodesic, NanCoordinatePropagatesThroughDistance) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(distance_km({nan, -90.0}, {40.0, -90.0})));
  EXPECT_TRUE(std::isnan(distance_km({40.0, nan}, {40.0, -90.0})));
  // The min(sqrt(h), 1) clamp still holds h = 1 (antipodes) to half the
  // circumference.
  EXPECT_NEAR(distance_km({0.0, 0.0}, {0.0, 180.0}),
              3.14159265358979323846 * kEarthRadiusKm, 1e-6);
}

TEST(Geodesic, SamplePathRejectsNonFiniteEndpoints) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sample_path({nan, -90.0}, {40.0, -90.0}, 100.0), Error);
  EXPECT_THROW(sample_path({40.0, -90.0}, {40.0, nan}, 100.0), Error);
  EXPECT_THROW(sample_path({inf, -90.0}, {40.0, -90.0}, 100.0), Error);
  EXPECT_THROW(sample_path({40.0, -90.0}, {40.0, -inf}, 100.0), Error);
}

TEST(LatLonValidate, RejectsOutOfRange) {
  EXPECT_NO_THROW(validate({45.0, -100.0}));
  EXPECT_THROW(validate({91.0, 0.0}), Error);
  EXPECT_THROW(validate({0.0, 181.0}), Error);
}

TEST(SpatialIndex, WithinFindsExactlyTheCloseOnes) {
  std::vector<LatLon> pts = {kNyc, kChicago, kLa, {40.73, -73.93}};
  SpatialIndex index(pts);
  const auto near_nyc = index.within(kNyc, 50.0);
  ASSERT_EQ(near_nyc.size(), 2u);  // NYC itself + the nearby point
  EXPECT_EQ(near_nyc[0], 0u);
  EXPECT_EQ(near_nyc[3 - 2], 3u);
}

TEST(SpatialIndex, WithinMatchesBruteForceProperty) {
  Rng rng(17);
  std::vector<LatLon> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.uniform(30.0, 45.0), rng.uniform(-110.0, -80.0)});
  }
  SpatialIndex index(pts);
  for (int q = 0; q < 50; ++q) {
    const LatLon center{rng.uniform(30.0, 45.0), rng.uniform(-110.0, -80.0)};
    const double radius = rng.uniform(10.0, 300.0);
    const auto got = index.within(center, radius);
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance_km(center, pts[i]) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(SpatialIndex, NearestMatchesBruteForce) {
  Rng rng(19);
  std::vector<LatLon> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(30.0, 45.0), rng.uniform(-110.0, -80.0)});
  }
  SpatialIndex index(pts);
  for (int q = 0; q < 25; ++q) {
    const LatLon center{rng.uniform(30.0, 45.0), rng.uniform(-110.0, -80.0)};
    const std::size_t got = index.nearest(center);
    std::size_t want = 0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (distance_km(center, pts[i]) < distance_km(center, pts[want]))
        want = i;
    }
    EXPECT_EQ(got, want);
  }
}

TEST(SpatialIndex, EmptyIndexNearestReturnsSize) {
  SpatialIndex index({});
  EXPECT_EQ(index.nearest(kNyc), 0u);
}

}  // namespace
}  // namespace cisp::geo
