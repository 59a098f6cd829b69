#include "weather/rainfield.hpp"

#include <algorithm>
#include <cmath>

#include "geo/geodesic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::weather {

geo::LatLon StormCell::center_at(double t_s) const {
  const double hours = (t_s - birth_s) / 3600.0;
  return geo::destination(birth_pos, heading_deg, speed_kmh * hours);
}

double StormCell::envelope_at(double t_s) const {
  const double life = (t_s - birth_s) / (death_s - birth_s);
  return std::sin(life * 3.14159265358979323846);
}

double StormCell::rain_at(const geo::LatLon& pos, double t_s) const {
  if (!active(t_s)) return 0.0;
  const double d = geo::distance_km(pos, center_at(t_s));
  if (d > 4.0 * sigma_km) return 0.0;
  // Gaussian footprint with a life-cycle envelope (grow, mature, decay).
  // CellSnapshot::rain_at repeats this arithmetic with the t terms hoisted.
  return peak_mm_h * envelope_at(t_s) *
         std::exp(-(d * d) / (2.0 * sigma_km * sigma_km));
}

RainProbe::RainProbe(const geo::LatLon& p)
    : pos(p), lat_rad(geo::deg_to_rad(p.lat_deg)) {
  const double lon_rad = geo::deg_to_rad(p.lon_deg);
  x = std::cos(lat_rad) * std::cos(lon_rad);
  y = std::cos(lat_rad) * std::sin(lon_rad);
  z = std::sin(lat_rad);
}

double CellSnapshot::rain_at(const geo::LatLon& pos) const {
  const double d = geo::distance_km(pos, center.pos);
  if (d > cutoff_km) return 0.0;
  return peak_envelope * std::exp(-(d * d) / two_sigma_sq);
}

double RainSnapshot::rain_mm_h(const RainProbe& probe) const {
  double total = 0.0;
  for (const CellSnapshot& cell : cells) {
    if (geo::kEarthRadiusKm * std::abs(probe.lat_rad - cell.center.lat_rad) >
        cell.skip_km) {
      continue;
    }
    const double dx = probe.x - cell.center.x;
    const double dy = probe.y - cell.center.y;
    const double dz = probe.z - cell.center.z;
    if (dx * dx + dy * dy + dz * dz > cell.chord_sq_skip) continue;
    total += cell.rain_at(probe.pos);
  }
  return total;
}

RainField::RainField(const terrain::BoundingBox& box, const RainParams& params)
    : box_(box) {
  CISP_REQUIRE(params.cells_per_day_winter >= 0.0 &&
                   params.cells_per_day_summer >= 0.0,
               "negative storm frequency");
  CISP_REQUIRE(params.max_lifetime_h > params.min_lifetime_h,
               "storm lifetime bounds inverted");
  Rng rng(params.seed);
  for (int day = 0; day < 365; ++day) {
    // Seasonal modulation: peak at day ~196 (mid-July).
    const double phase =
        std::cos((static_cast<double>(day) - 196.0) / 365.0 * 2.0 *
                 3.14159265358979323846);
    const double mean =
        params.cells_per_day_winter +
        (params.cells_per_day_summer - params.cells_per_day_winter) *
            (0.5 + 0.5 * phase);
    const std::uint64_t births = rng.poisson(mean);
    for (std::uint64_t b = 0; b < births; ++b) {
      StormCell cell;
      cell.birth_pos = {rng.uniform(box.lat_min, box.lat_max),
                        rng.uniform(box.lon_min, box.lon_max)};
      cell.birth_s = static_cast<double>(day) * kDayS + rng.uniform() * kDayS;
      const double lifetime_h =
          rng.uniform(params.min_lifetime_h, params.max_lifetime_h);
      cell.death_s = cell.birth_s + lifetime_h * 3600.0;
      const bool convective =
          rng.chance(params.convective_fraction * (0.6 + 0.8 * (0.5 + 0.5 * phase)));
      if (convective) {
        // Violent, small: ~40-200 mm/h peaks, 8-30 km cores.
        cell.peak_mm_h = 30.0 + rng.pareto(1.0, 1.5) * 25.0;
        cell.peak_mm_h = std::min(cell.peak_mm_h, 200.0);
        cell.sigma_km = rng.uniform(8.0, 30.0);
      } else {
        // Stratiform: broad, light.
        cell.peak_mm_h = rng.uniform(1.0, 16.0);
        cell.sigma_km = rng.uniform(30.0, 160.0);
      }
      cell.heading_deg = 90.0 + rng.normal(0.0, 25.0);  // mostly eastward
      cell.speed_kmh = std::max(5.0, rng.normal(params.advection_kmh, 12.0));
      cells_.push_back(cell);
    }
  }
  // Daily index (cells can straddle day boundaries).
  by_day_.resize(366);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const int first = std::max(0, static_cast<int>(cells_[i].birth_s / kDayS));
    const int last = std::min(
        365, static_cast<int>(cells_[i].death_s / kDayS) + 1);
    for (int d = first; d <= last && d < 366; ++d) {
      by_day_[d].push_back(static_cast<std::uint32_t>(i));
    }
  }
}

const std::vector<std::uint32_t>& RainField::cells_of_day(double t_s) const {
  CISP_REQUIRE(t_s >= 0.0 && t_s <= kYearS, "time outside the year");
  const auto day = static_cast<std::size_t>(t_s / kDayS);
  return by_day_[std::min(day, by_day_.size() - 1)];
}

double RainField::rain_mm_h(const geo::LatLon& pos, double t_s) const {
  double total = 0.0;
  for (const std::uint32_t idx : cells_of_day(t_s)) {
    total += cells_[idx].rain_at(pos, t_s);
  }
  return total;
}

std::vector<const StormCell*> RainField::active_cells(double t_s) const {
  std::vector<const StormCell*> out;
  for (const std::uint32_t idx : cells_of_day(t_s)) {
    if (cells_[idx].active(t_s)) out.push_back(&cells_[idx]);
  }
  return out;
}

void RainField::snapshot(double t_s, RainSnapshot& out) const {
  const std::vector<std::uint32_t>& day = cells_of_day(t_s);
  out.t_s = t_s;
  out.cells.clear();
  for (const std::uint32_t idx : day) {
    const StormCell& cell = cells_[idx];
    if (!cell.active(t_s)) continue;
    CellSnapshot& s = out.cells.emplace_back();
    s.center = RainProbe(cell.center_at(t_s));
    s.peak_envelope = cell.peak_mm_h * cell.envelope_at(t_s);
    s.two_sigma_sq = 2.0 * cell.sigma_km * cell.sigma_km;
    s.cutoff_km = 4.0 * cell.sigma_km;
    s.skip_km = s.cutoff_km * (1.0 + 1e-9);
    const double half_chord =
        std::sin(s.skip_km / (2.0 * geo::kEarthRadiusKm));
    s.chord_sq_skip = 4.0 * half_chord * half_chord;
  }
}

}  // namespace cisp::weather
