#pragma once
// Great-circle geometry: distances, interpolation, bearings, and the
// latency helpers the paper's "stretch" metric is built on.

#include <vector>

#include "geo/latlon.hpp"

namespace cisp::geo {

/// Great-circle (haversine) distance in km.
[[nodiscard]] double distance_km(const LatLon& a, const LatLon& b) noexcept;

/// One-way propagation time at the speed of light in vacuum, milliseconds.
/// This is the paper's "c-latency" for the geodesic between a and b.
[[nodiscard]] double c_latency_ms(const LatLon& a, const LatLon& b) noexcept;

/// One-way propagation time for `path_km` km of vacuum/air propagation, ms.
[[nodiscard]] double c_latency_for_km(double path_km) noexcept;

/// One-way propagation time for `path_km` km of fiber (speed 2c/3), ms.
[[nodiscard]] double fiber_latency_for_km(double path_km) noexcept;

/// Initial bearing from a to b, degrees clockwise from north in [0, 360).
[[nodiscard]] double initial_bearing_deg(const LatLon& a, const LatLon& b) noexcept;

/// A point as a unit vector in Earth-centred coordinates (z toward the
/// north pole, x toward lon 0).
struct Vec3 {
  double x, y, z;
};

[[nodiscard]] Vec3 to_unit_vector(const LatLon& p) noexcept;

/// Point a fraction f in [0,1] along the great circle from a to b.
[[nodiscard]] LatLon interpolate(const LatLon& a, const LatLon& b, double f) noexcept;

/// Destination point at `distance_km` along `bearing_deg` from `origin`.
[[nodiscard]] LatLon destination(const LatLon& origin, double bearing_deg,
                                 double dist_km) noexcept;

/// Samples the great circle from a to b every ~`step_km` (both endpoints
/// included; at least two points): n = max(1, ceil(distance / step))
/// segments. The slerp basis (unit vectors, central angle, its sine) is
/// built once per path, and point i is bitwise interpolate(a, b, i / n).
/// Throws cisp::Error on a non-positive step or a non-finite endpoint.
[[nodiscard]] std::vector<LatLon> sample_path(const LatLon& a, const LatLon& b,
                                              double step_km);

}  // namespace cisp::geo
