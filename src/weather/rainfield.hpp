#pragma once
// Synthetic precipitation process (§6.1's NASA TRMM/GPM substitute): a
// year of storm cells with seasonal intensity, eastward advection, and a
// convective/stratiform mix, queryable at any (position, time). Rain rates
// are calibrated so that violent convective cores (> 80 mm/h) are rare and
// localized while broad stratiform shields (< 15 mm/h) are common — the
// regime split that drives microwave outages.

#include <cstdint>
#include <vector>

#include "geo/latlon.hpp"
#include "terrain/heightfield.hpp"

namespace cisp::weather {

/// Seconds in a simulated year/day.
inline constexpr double kDayS = 86400.0;
inline constexpr double kYearS = 365.0 * kDayS;

struct RainParams {
  std::uint64_t seed = 99;
  /// Mean storm-cell births per day over the whole box in midwinter /
  /// midsummer (sinusoidal in between; convective season peaks in summer).
  double cells_per_day_winter = 18.0;
  double cells_per_day_summer = 55.0;
  /// Fraction of cells that are convective (small, violent).
  double convective_fraction = 0.25;
  /// Cell lifetime bounds, hours.
  double min_lifetime_h = 1.0;
  double max_lifetime_h = 10.0;
  /// Advection velocity (eastward bias + jitter), km/h.
  double advection_kmh = 40.0;
};

/// One storm cell: a Gaussian rain footprint moving across the map.
struct StormCell {
  geo::LatLon birth_pos;
  double birth_s = 0.0;
  double death_s = 0.0;
  double peak_mm_h = 0.0;
  double sigma_km = 0.0;
  double heading_deg = 90.0;  ///< advection direction
  double speed_kmh = 0.0;

  [[nodiscard]] bool active(double t_s) const noexcept {
    return t_s >= birth_s && t_s <= death_s;
  }
  /// Cell center at time t (must be active).
  [[nodiscard]] geo::LatLon center_at(double t_s) const;
  /// Life-cycle envelope at time t (must be active): grows, matures and
  /// decays as sin(pi * life fraction).
  [[nodiscard]] double envelope_at(double t_s) const;
  /// Rain contribution at a position and time, mm/h.
  [[nodiscard]] double rain_at(const geo::LatLon& pos, double t_s) const;
};

/// A position with what the snapshot's distance bounds read of it: its
/// latitude in radians and its unit vector. Positions sampled every epoch
/// (hop midpoints) build this once.
struct RainProbe {
  geo::LatLon pos;
  double lat_rad = 0.0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  RainProbe() = default;
  explicit RainProbe(const geo::LatLon& p);
};

/// One active cell frozen at a time t: everything StormCell::rain_at
/// derives from t alone, computed once with the same arithmetic.
struct CellSnapshot {
  RainProbe center;            ///< center_at(t)
  double peak_envelope = 0.0;  ///< peak_mm_h * envelope_at(t)
  double two_sigma_sq = 0.0;   ///< 2 sigma^2
  double cutoff_km = 0.0;      ///< 4 sigma: no rain beyond it
  /// cutoff_km padded by 1e-9 relative. A point that a lower bound on its
  /// haversine distance already puts farther than this is past the cutoff
  /// however the distance rounds. The bounds: R * |dlat|, and the chord
  /// between unit vectors (squared, against chord_sq_skip), whose
  /// rounding error is ~1e-12 relative at the smallest cutoff the field
  /// generates (32 km).
  double skip_km = 0.0;
  double chord_sq_skip = 0.0;  ///< (2 sin(skip_km / 2R))^2

  /// rain_at(pos, t) of the cell, bit for bit.
  [[nodiscard]] double rain_at(const geo::LatLon& pos) const;
};

/// The field frozen at one time: the active cells in the field's own
/// order, so sums over them round exactly like RainField::rain_mm_h.
struct RainSnapshot {
  double t_s = 0.0;
  std::vector<CellSnapshot> cells;

  /// rain_mm_h(pos, t_s) of the field, bit for bit. A cell the distance
  /// bounds rule out is skipped: it would add +0.0 to a non-negative sum.
  [[nodiscard]] double rain_mm_h(const RainProbe& probe) const;
};

/// A full year of weather over a bounding box.
class RainField {
 public:
  RainField(const terrain::BoundingBox& box, const RainParams& params = {});

  /// Total rain rate (mm/h) at a position and absolute time in [0, year].
  /// The per-point query; callers sampling many points at one time take a
  /// snapshot() instead.
  [[nodiscard]] double rain_mm_h(const geo::LatLon& pos, double t_s) const;

  /// Cells active at t (subset view, for tests and visualization).
  [[nodiscard]] std::vector<const StormCell*> active_cells(double t_s) const;

  /// The cells active at t, in active_cells(t) order, with their
  /// time-dependent terms hoisted (one call per epoch serves every link).
  [[nodiscard]] RainSnapshot snapshot(double t_s) const {
    RainSnapshot out;
    snapshot(t_s, out);
    return out;
  }
  /// snapshot(t_s) into `out`, reusing its storage (epoch loops).
  void snapshot(double t_s, RainSnapshot& out) const;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

 private:
  /// Indices of the cells possibly active at t; throws cisp::Error
  /// unless t is in [0, year] (NaN included).
  [[nodiscard]] const std::vector<std::uint32_t>& cells_of_day(
      double t_s) const;

  terrain::BoundingBox box_;
  std::vector<StormCell> cells_;
  /// Day index -> indices of cells possibly active that day.
  std::vector<std::vector<std::uint32_t>> by_day_;
};

}  // namespace cisp::weather
