#pragma once
// Elevation models. `Heightfield` is the abstract interface consumed by the
// RF line-of-sight code; `SyntheticTerrain` is our substitute for the NASA
// SRTM/NED data (continental ridges + fBm detail + land-cover clutter);
// `RasterTerrain` caches any heightfield on a regular grid so the millions
// of profile samples in Step 1 are bilinear lookups.

#include <memory>
#include <vector>

#include "geo/geodesic.hpp"
#include "geo/latlon.hpp"
#include "terrain/noise.hpp"

namespace cisp::terrain {

/// Axis-aligned lat/lon bounding box.
struct BoundingBox {
  double lat_min = 0.0;
  double lat_max = 0.0;
  double lon_min = 0.0;
  double lon_max = 0.0;

  [[nodiscard]] bool contains(const geo::LatLon& p) const noexcept {
    return p.lat_deg >= lat_min && p.lat_deg <= lat_max &&
           p.lon_deg >= lon_min && p.lon_deg <= lon_max;
  }
};

/// Elevation + obstruction interface. Clutter is the extra height above
/// ground that microwave paths must clear (tree canopy, low buildings); the
/// NASA dataset in the paper folds this in, so we model it explicitly.
class Heightfield {
 public:
  virtual ~Heightfield() = default;

  /// Ground elevation above sea level, meters.
  [[nodiscard]] virtual double elevation_m(const geo::LatLon& p) const = 0;
  /// Obstruction height above ground, meters (canopy, clutter).
  [[nodiscard]] virtual double clutter_m(const geo::LatLon& p) const = 0;
};

/// A mountain ridge: a great-circle segment with a Gaussian cross-section.
struct Ridge {
  geo::LatLon a;
  geo::LatLon b;
  double peak_m = 2000.0;   ///< crest height contribution at the axis
  double width_km = 120.0;  ///< Gaussian sigma across the axis
};

/// Procedural continental terrain.
///
/// A ridge adds peak * envelope * crest_mod, with envelope =
/// exp(-d^2 / 2 sigma^2) and d the distance to the ridge's arc; it adds
/// nothing once envelope < 1e-4, i.e. once d > sigma * sqrt(2 ln 1e4) (~4.29
/// sigma). Most points lie that far from most ridges, so the constructor
/// builds a reach table, one entry per ridge, from half the arc length L/2
/// and the envelope cutoff (with a 1e-6 relative margin): the arc midpoint
/// M (latitude and unit vector), the latitude span and the squared
/// unit-vector chord of the angle (cutoff + L/2) / R, and the unit normal n
/// of the ridge's great circle with sin(cutoff / R). elevation_m skips a ridge when R * |lat_p - lat_M|
/// or the chord from p to M exceeds cutoff + L/2, or when |u_p . n| exceeds
/// sin(cutoff / R); it builds p's unit vector u_p only when some ridge
/// survives the latitude test.
///
/// The skip is exact. Every point of the arc lies within L/2 of M, so the
/// arc is at least |pM| - L/2 away from p; and it lies on the great circle,
/// which is R * asin|u_p . n| away. The segment distance returns d(a, p),
/// d(b, p) or the cross-track distance to a foot on the arc, each at least
/// both bounds. A skipped ridge is therefore one whose envelope is below
/// 1e-4, which the per-ridge loop drops anyway; the margin dwarfs the
/// rounding of every term. Ridges that survive run the unchanged per-ridge
/// code in the unchanged order (the arc length and the bearing a -> b come
/// from the table, computed by the same calls), so elevations are bitwise
/// those of the loop over all ridges; terrain_test holds that loop as its
/// oracle. The latitude test assumes |lat| <= 90, as LatLon does.
class SyntheticTerrain final : public Heightfield {
 public:
  struct Params {
    std::uint64_t seed = 1;
    double base_m = 150.0;          ///< mean lowland elevation
    double plains_amp_m = 120.0;    ///< low-frequency undulation amplitude
    double rough_amp_m = 60.0;      ///< high-frequency roughness amplitude
    double plains_freq = 0.35;      ///< per degree
    double rough_freq = 4.0;        ///< per degree
    std::vector<Ridge> ridges;
    double canopy_max_m = 24.0;     ///< peak tree-canopy height
    double canopy_freq = 0.8;       ///< canopy field frequency, per degree
  };

  explicit SyntheticTerrain(Params params);

  [[nodiscard]] double elevation_m(const geo::LatLon& p) const override;
  [[nodiscard]] double clutter_m(const geo::LatLon& p) const override;

 private:
  /// One ridge's reach: beyond reach_deg of latitude or the chord whose
  /// square is reach_chord2 from the arc midpoint, or beyond band_sin from
  /// the ridge's great circle, its envelope is below the cutoff.
  struct RidgeReach {
    double seg_len_km = 0.0;   ///< arc length L
    double theta12 = 0.0;      ///< initial bearing a -> b, radians
    double mid_lat_deg = 0.0;
    geo::Vec3 mid{0.0, 0.0, 0.0};
    double reach_deg = 0.0;    ///< (cutoff + L/2) / R, in degrees
    double reach_chord2 = 0.0; ///< (2 sin(reach / 2R))^2; inf past pi
    geo::Vec3 normal{0.0, 0.0, 0.0};  ///< unit normal of the great circle
    double band_sin = 0.0;     ///< sin(cutoff / R); inf for a point ridge
  };

  Params params_;
  Fbm plains_;
  Fbm rough_;
  Fbm canopy_;
  std::vector<RidgeReach> reach_;  ///< parallel to params_.ridges
};

/// Rasterized cache of another heightfield over a bounding box; bilinear
/// sampling, clamped at the box edges (a NaN coordinate samples as NaN).
/// A lookup costs ~15 ns; SyntheticTerrain::elevation_m averages ~1.2 us
/// over the contiguous US (~80x; ~4.6 us before the reach skip), which
/// makes continental hop-feasibility sweeps practical. Measured on a
/// 4-vCPU Xeon VM, Release. The box and cell sizes must be finite.
class RasterTerrain final : public Heightfield {
 public:
  RasterTerrain(const Heightfield& source, const BoundingBox& box,
                double cell_deg, double clutter_cell_deg = 0.05);

  [[nodiscard]] double elevation_m(const geo::LatLon& p) const override;
  [[nodiscard]] double clutter_m(const geo::LatLon& p) const override;

  [[nodiscard]] const BoundingBox& box() const noexcept { return box_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return elev_grid_.data.size();
  }

 private:
  struct Grid {
    std::size_t rows = 0;
    std::size_t cols = 0;
    double cell_deg = 0.0;
    std::vector<float> data;

    [[nodiscard]] double sample(const BoundingBox& box, double lat,
                                double lon) const noexcept;
  };

  BoundingBox box_;
  Grid elev_grid_;
  Grid clutter_grid_;
};

}  // namespace cisp::terrain
