#include "terrain/heightfield.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/geodesic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::terrain {

namespace {

/// Distance (km) from point p to the great-circle *segment* a-b, via
/// cross-track / along-track decomposition with endpoint clamping.
/// `seg_len` = distance_km(a, b) and `theta12` = the initial bearing a -> b
/// in radians depend on the ridge alone; the caller computes them once.
double distance_to_segment_km(const geo::LatLon& p, const geo::LatLon& a,
                              const geo::LatLon& b, double seg_len,
                              double theta12) noexcept {
  if (seg_len < 1e-9) return geo::distance_km(p, a);
  const double d_ap = geo::distance_km(a, p);
  if (d_ap < 1e-9) return 0.0;
  const double delta13 = d_ap / geo::kEarthRadiusKm;
  const double theta13 = geo::deg_to_rad(geo::initial_bearing_deg(a, p));
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

/// Envelope cutoff distance, in sigmas: exp(-d^2 / 2 sigma^2) < 1e-4 past
/// it. The 1e-6 relative margin keeps the skip conservative under rounding.
const double kCutoffSigmas = std::sqrt(2.0 * std::log(1e4)) * (1.0 + 1e-6);

}  // namespace

SyntheticTerrain::SyntheticTerrain(Params params)
    : params_(std::move(params)),
      plains_({.seed = splitmix64(params_.seed ^ 0xA11CE5),
               .octaves = 4,
               .frequency = params_.plains_freq}),
      rough_({.seed = splitmix64(params_.seed ^ 0xB0B5),
              .octaves = 5,
              .frequency = params_.rough_freq}),
      canopy_({.seed = splitmix64(params_.seed ^ 0xCA2013),
               .octaves = 3,
               .frequency = params_.canopy_freq}) {
  reach_.reserve(params_.ridges.size());
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Ridge& ridge : params_.ridges) {
    RidgeReach r;
    r.seg_len_km = geo::distance_km(ridge.a, ridge.b);
    r.theta12 = geo::deg_to_rad(geo::initial_bearing_deg(ridge.a, ridge.b));
    const geo::LatLon mid = geo::interpolate(ridge.a, ridge.b, 0.5);
    r.mid_lat_deg = mid.lat_deg;
    r.mid = geo::to_unit_vector(mid);
    const double cutoff_km = kCutoffSigmas * ridge.width_km;
    const double reach_rad =
        (cutoff_km + 0.5 * r.seg_len_km) / geo::kEarthRadiusKm;
    r.reach_deg = geo::rad_to_deg(reach_rad);
    const double chord = 2.0 * std::sin(0.5 * reach_rad);
    r.reach_chord2 = reach_rad < kPi ? chord * chord : kInf;
    // Unit normal of the ridge's great circle; no band for a point ridge.
    const geo::Vec3 va = geo::to_unit_vector(ridge.a);
    const geo::Vec3 vb = geo::to_unit_vector(ridge.b);
    const geo::Vec3 n{va.y * vb.z - va.z * vb.y, va.z * vb.x - va.x * vb.z,
                      va.x * vb.y - va.y * vb.x};
    const double norm = std::sqrt(n.x * n.x + n.y * n.y + n.z * n.z);
    const double band_rad = cutoff_km / geo::kEarthRadiusKm;
    if (norm > 1e-9 && band_rad < kPi / 2.0) {
      r.normal = {n.x / norm, n.y / norm, n.z / norm};
      r.band_sin = std::sin(band_rad);
    } else {
      r.band_sin = kInf;
    }
    reach_.push_back(r);
  }
}

double SyntheticTerrain::elevation_m(const geo::LatLon& p) const {
  double elev = params_.base_m;
  elev += params_.plains_amp_m * plains_.at(p.lon_deg, p.lat_deg);
  elev += params_.rough_amp_m * rough_.at(p.lon_deg, p.lat_deg);
  bool have_unit = false;
  geo::Vec3 u{0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < reach_.size(); ++k) {
    const RidgeReach& reach = reach_[k];
    if (std::fabs(p.lat_deg - reach.mid_lat_deg) > reach.reach_deg) continue;
    if (!have_unit) {
      u = geo::to_unit_vector(p);
      have_unit = true;
    }
    const double dx = u.x - reach.mid.x;
    const double dy = u.y - reach.mid.y;
    const double dz = u.z - reach.mid.z;
    if (dx * dx + dy * dy + dz * dz > reach.reach_chord2) continue;
    const geo::Vec3& n = reach.normal;
    if (std::fabs(u.x * n.x + u.y * n.y + u.z * n.z) > reach.band_sin) continue;
    const Ridge& ridge = params_.ridges[k];
    const double d = distance_to_segment_km(p, ridge.a, ridge.b,
                                            reach.seg_len_km, reach.theta12);
    const double sigma = ridge.width_km;
    const double envelope = std::exp(-(d * d) / (2.0 * sigma * sigma));
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

double SyntheticTerrain::clutter_m(const geo::LatLon& p) const {
  // Canopy field in [0, canopy_max]: forests where the field is positive,
  // open land elsewhere.
  const double field = canopy_.at(p.lon_deg, p.lat_deg);
  return std::max(0.0, field) * params_.canopy_max_m;
}

double RasterTerrain::Grid::sample(const BoundingBox& box, double lat,
                                   double lon) const noexcept {
  // A NaN would survive the clamps and reach the size_t casts below.
  if (std::isnan(lat) || std::isnan(lon)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double row_f =
      std::clamp((lat - box.lat_min) / cell_deg, 0.0,
                 static_cast<double>(rows - 1) - 1e-9);
  const double col_f =
      std::clamp((lon - box.lon_min) / cell_deg, 0.0,
                 static_cast<double>(cols - 1) - 1e-9);
  const auto r0 = static_cast<std::size_t>(row_f);
  const auto c0 = static_cast<std::size_t>(col_f);
  const std::size_t r1 = std::min(r0 + 1, rows - 1);
  const std::size_t c1 = std::min(c0 + 1, cols - 1);
  const double tr = row_f - static_cast<double>(r0);
  const double tc = col_f - static_cast<double>(c0);
  const double v00 = data[r0 * cols + c0];
  const double v01 = data[r0 * cols + c1];
  const double v10 = data[r1 * cols + c0];
  const double v11 = data[r1 * cols + c1];
  const double top = v00 + (v01 - v00) * tc;
  const double bot = v10 + (v11 - v10) * tc;
  return top + (bot - top) * tr;
}

RasterTerrain::RasterTerrain(const Heightfield& source, const BoundingBox& box,
                             double cell_deg, double clutter_cell_deg)
    : box_(box) {
  CISP_REQUIRE(std::isfinite(cell_deg) && std::isfinite(clutter_cell_deg),
               "raster cell size must be finite");
  CISP_REQUIRE(cell_deg > 0.0 && clutter_cell_deg > 0.0,
               "raster cell size must be positive");
  CISP_REQUIRE(std::isfinite(box.lat_min) && std::isfinite(box.lat_max) &&
                   std::isfinite(box.lon_min) && std::isfinite(box.lon_max),
               "raster bounding box must be finite");
  CISP_REQUIRE(box.lat_max > box.lat_min && box.lon_max > box.lon_min,
               "degenerate raster bounding box");
  const auto fill = [&](Grid& grid, double cell, bool clutter) {
    grid.cell_deg = cell;
    grid.rows = static_cast<std::size_t>(
                    std::ceil((box.lat_max - box.lat_min) / cell)) +
                1;
    grid.cols = static_cast<std::size_t>(
                    std::ceil((box.lon_max - box.lon_min) / cell)) +
                1;
    grid.data.resize(grid.rows * grid.cols);
    for (std::size_t r = 0; r < grid.rows; ++r) {
      const double lat = box.lat_min + static_cast<double>(r) * cell;
      for (std::size_t c = 0; c < grid.cols; ++c) {
        const double lon = box.lon_min + static_cast<double>(c) * cell;
        const geo::LatLon p{std::min(lat, box.lat_max),
                            std::min(lon, box.lon_max)};
        grid.data[r * grid.cols + c] = static_cast<float>(
            clutter ? source.clutter_m(p) : source.elevation_m(p));
      }
    }
  };
  fill(elev_grid_, cell_deg, /*clutter=*/false);
  fill(clutter_grid_, clutter_cell_deg, /*clutter=*/true);
}

double RasterTerrain::elevation_m(const geo::LatLon& p) const {
  return elev_grid_.sample(box_, p.lat_deg, p.lon_deg);
}

double RasterTerrain::clutter_m(const geo::LatLon& p) const {
  return clutter_grid_.sample(box_, p.lat_deg, p.lon_deg);
}

}  // namespace cisp::terrain
