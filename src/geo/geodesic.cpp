#include "geo/geodesic.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cisp::geo {

double distance_km(const LatLon& a, const LatLon& b) noexcept {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h =
      sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  // min(sqrt(h), 1.0), not min(1.0, sqrt(h)): the latter turns a NaN
  // coordinate into asin(1), i.e. half the Earth's circumference.
  return 2.0 * kEarthRadiusKm * std::asin(std::min(std::sqrt(h), 1.0));
}

double c_latency_ms(const LatLon& a, const LatLon& b) noexcept {
  return c_latency_for_km(distance_km(a, b));
}

double c_latency_for_km(double path_km) noexcept {
  return path_km / kSpeedOfLightKmPerS * 1000.0;
}

double fiber_latency_for_km(double path_km) noexcept {
  return path_km * kFiberRefractionFactor / kSpeedOfLightKmPerS * 1000.0;
}

double initial_bearing_deg(const LatLon& a, const LatLon& b) noexcept {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  const double bearing = rad_to_deg(std::atan2(y, x));
  return std::fmod(bearing + 360.0, 360.0);
}

Vec3 to_unit_vector(const LatLon& p) noexcept {
  const double lat = deg_to_rad(p.lat_deg);
  const double lon = deg_to_rad(p.lon_deg);
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}

namespace {
LatLon to_latlon(const Vec3& v) noexcept {
  const double norm = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
  const double lat = std::asin(std::clamp(v.z / norm, -1.0, 1.0));
  const double lon = std::atan2(v.y, v.x);
  return {rad_to_deg(lat), rad_to_deg(lon)};
}

/// Slerp basis of one great circle a -> b: the unit vectors, the central
/// angle and its sine. interpolate() builds one per call; sample_path()
/// builds one per path and reuses it for every point, so each sampled point
/// is computed by the very same operations as interpolate(a, b, i/n).
struct Slerp {
  LatLon a;
  Vec3 va;
  Vec3 vb;
  double omega;
  double sin_omega;

  Slerp(const LatLon& from, const LatLon& to) noexcept
      : a(from), va(to_unit_vector(from)), vb(to_unit_vector(to)) {
    const double dot = std::clamp(
        va.x * vb.x + va.y * vb.y + va.z * vb.z, -1.0, 1.0);
    omega = std::acos(dot);
    sin_omega = std::sin(omega);
  }

  /// Point a fraction f along the arc; `a` itself for near-coincident
  /// endpoints.
  [[nodiscard]] LatLon at(double f) const noexcept {
    if (omega < 1e-12) return a;
    const double sa = std::sin((1.0 - f) * omega) / sin_omega;
    const double sb = std::sin(f * omega) / sin_omega;
    return to_latlon({sa * va.x + sb * vb.x, sa * va.y + sb * vb.y,
                      sa * va.z + sb * vb.z});
  }
};

bool is_finite(const LatLon& p) noexcept {
  return std::isfinite(p.lat_deg) && std::isfinite(p.lon_deg);
}
}  // namespace

LatLon interpolate(const LatLon& a, const LatLon& b, double f) noexcept {
  // Slerp on the unit sphere; degenerates gracefully for near-coincident
  // endpoints.
  return Slerp(a, b).at(f);
}

LatLon destination(const LatLon& origin, double bearing_deg,
                   double dist_km) noexcept {
  const double delta = dist_km / kEarthRadiusKm;
  const double theta = deg_to_rad(bearing_deg);
  const double lat1 = deg_to_rad(origin.lat_deg);
  const double lon1 = deg_to_rad(origin.lon_deg);
  const double lat2 = std::asin(std::sin(lat1) * std::cos(delta) +
                                std::cos(lat1) * std::sin(delta) * std::cos(theta));
  const double lon2 =
      lon1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(lat1),
                        std::cos(delta) - std::sin(lat1) * std::sin(lat2));
  double lon_deg = rad_to_deg(lon2);
  if (lon_deg > 180.0) lon_deg -= 360.0;
  if (lon_deg < -180.0) lon_deg += 360.0;
  return {rad_to_deg(lat2), lon_deg};
}

std::vector<LatLon> sample_path(const LatLon& a, const LatLon& b,
                                double step_km) {
  CISP_REQUIRE(step_km > 0.0, "sample step must be positive");
  CISP_REQUIRE(is_finite(a) && is_finite(b), "path endpoints must be finite");
  const double total = distance_km(a, b);
  const auto segments =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(total / step_km)));
  const Slerp slerp(a, b);
  std::vector<LatLon> points;
  points.reserve(segments + 1);
  for (std::size_t i = 0; i <= segments; ++i) {
    points.push_back(
        slerp.at(static_cast<double>(i) / static_cast<double>(segments)));
  }
  return points;
}

}  // namespace cisp::geo
