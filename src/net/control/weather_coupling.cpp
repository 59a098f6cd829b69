#include "net/control/weather_coupling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/geodesic.hpp"
#include "rf/rain.hpp"
#include "util/error.hpp"

namespace cisp::net::control {

std::vector<LinkGeometry> link_geometry(const LinkPlan& plan,
                                        const std::vector<geo::LatLon>& sites) {
  CISP_REQUIRE(sites.size() >= plan.node_count,
               "site positions do not cover the plan's nodes");
  std::vector<LinkGeometry> geometry;
  geometry.reserve(plan.links.size());
  for (const PlannedLink& link : plan.links) {
    LinkGeometry g;
    g.a = sites[link.a];
    g.b = sites[link.b];
    g.path_km = geo::distance_km(g.a, g.b);
    geometry.push_back(g);
  }
  return geometry;
}

LinkWeatherSampler::LinkWeatherSampler(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const WeatherCouplingParams& params)
    : params_(params), link_count_(plan.links.size()) {
  CISP_REQUIRE(geometry.size() == plan.links.size(),
               "geometry / plan size mismatch");
  CISP_REQUIRE(params.hop_km > 0.0, "hop_km must be positive");
  CISP_REQUIRE(params.adaptive_headroom_db > 0.0,
               "adaptive headroom must be positive");
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    if (!plan.links[i].is_mw) continue;  // fiber is the always-on backstop
    const LinkGeometry& g = geometry[i];
    CISP_REQUIRE(std::isfinite(g.path_km) && g.path_km >= 0.0,
                 "link path length must be finite and non-negative");
    HopTable table;
    table.link = i;
    table.first = midpoints_.size();
    table.hops = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(g.path_km / params.hop_km)));
    table.hop_len_km = g.path_km / static_cast<double>(table.hops);
    table.margin_db = rf::fade_margin_db(table.hop_len_km, params.budget);
    // A dry hop's attenuation is exactly 0 dB.
    table.clear_sky_factor = hop_factor(table, 0.0);
    table.lat_min_rad = std::numeric_limits<double>::infinity();
    table.lat_max_rad = -std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < table.hops; ++h) {
      // Rain is sampled at the hop midpoint: cells are larger than a hop,
      // and the P.530 path-reduction factor already accounts for partial
      // cover.
      const double f =
          (static_cast<double>(h) + 0.5) / static_cast<double>(table.hops);
      const weather::RainProbe& mid =
          midpoints_.emplace_back(geo::interpolate(g.a, g.b, f));
      table.lat_min_rad = std::min(table.lat_min_rad, mid.lat_rad);
      table.lat_max_rad = std::max(table.lat_max_rad, mid.lat_rad);
    }
    tables_.push_back(table);
  }
}

double LinkWeatherSampler::hop_factor(const HopTable& table,
                                      double attenuation_db) const {
  if (attenuation_db >= table.margin_db) return 0.0;
  if (attenuation_db > table.margin_db - params_.adaptive_headroom_db) {
    return (table.margin_db - attenuation_db) / params_.adaptive_headroom_db;
  }
  return 1.0;
}

double LinkWeatherSampler::link_factor(
    const HopTable& table, const weather::RainSnapshot& rain) const {
  double factor = 1.0;
  for (std::size_t h = 0; h < table.hops; ++h) {
    const double rain_mm_h = rain.rain_mm_h(midpoints_[table.first + h]);
    const double hop =
        rain_mm_h == 0.0
            ? table.clear_sky_factor
            : hop_factor(table, rf::hop_rain_attenuation_db(
                                    table.hop_len_km, rain_mm_h,
                                    params_.budget.frequency_ghz));
    factor = std::min(factor, hop);
    if (factor == 0.0) break;  // a series link is only as alive as its hops
  }
  return factor;
}

void LinkWeatherSampler::factors(const weather::RainSnapshot& rain,
                                 std::vector<double>& factors) const {
  factors.assign(link_count_, 1.0);
  for (const HopTable& table : tables_) {
    // The latitude gap to the band bounds R*|dlat| from below for every
    // midpoint, so a link no cell reaches would read 0 mm/h at every hop.
    bool near_rain = false;
    for (const weather::CellSnapshot& cell : rain.cells) {
      const double gap = std::max(table.lat_min_rad - cell.center.lat_rad,
                                  cell.center.lat_rad - table.lat_max_rad);
      if (geo::kEarthRadiusKm * gap <= cell.skip_km) {
        near_rain = true;
        break;
      }
    }
    factors[table.link] =
        near_rain ? link_factor(table, rain) : table.clear_sky_factor;
  }
}

double link_capacity_factor(const LinkGeometry& geometry,
                            const weather::RainField& rain, double t_s,
                            const WeatherCouplingParams& params) {
  LinkPlan one;
  one.node_count = 2;
  one.links.push_back(PlannedLink{.a = 0, .b = 1, .is_mw = true});
  std::vector<double> factors;
  LinkWeatherSampler(one, {geometry}, params)
      .factors(rain.snapshot(t_s), factors);
  return factors.front();
}

std::vector<double> link_capacity_factors(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const weather::RainField& rain, double t_s,
    const WeatherCouplingParams& params) {
  std::vector<double> factors;
  LinkWeatherSampler(plan, geometry, params)
      .factors(rain.snapshot(t_s), factors);
  return factors;
}

std::vector<LinkDelta> deltas_from_factors(
    const LinkPlan& plan, const std::vector<double>& factors,
    const std::vector<LinkState>& previous) {
  CISP_REQUIRE(factors.size() == plan.links.size(),
               "factors / plan size mismatch");
  CISP_REQUIRE(previous.size() == plan.links.size(),
               "link state / plan size mismatch");
  std::vector<LinkDelta> deltas;
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    if (!plan.links[i].is_mw) continue;
    const bool up = factors[i] > 0.0;
    const double derate = up ? factors[i] : 1.0;
    if (previous[i].up != up || previous[i].capacity_factor != derate) {
      deltas.push_back(LinkDelta{i, up, derate});
    }
  }
  return deltas;
}

std::vector<LinkDelta> weather_deltas(const LinkPlan& plan,
                                      const std::vector<LinkGeometry>& geometry,
                                      const weather::RainField& rain,
                                      double t_s,
                                      const std::vector<LinkState>& previous,
                                      const WeatherCouplingParams& params) {
  return deltas_from_factors(
      plan, link_capacity_factors(plan, geometry, rain, t_s, params),
      previous);
}

std::vector<double> weather_down_probabilities(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const weather::RainField& rain, std::size_t samples,
    const WeatherCouplingParams& params) {
  CISP_REQUIRE(samples >= 1, "need at least one weather sample");
  const LinkWeatherSampler sampler(plan, geometry, params);
  std::vector<double> probabilities(plan.links.size(), 0.0);
  weather::RainSnapshot snapshot;
  std::vector<double> factors;
  for (std::size_t e = 0; e < samples; ++e) {
    const double t_s = (static_cast<double>(e) + 0.5) * weather::kYearS /
                       static_cast<double>(samples);
    rain.snapshot(t_s, snapshot);
    sampler.factors(snapshot, factors);
    for (std::size_t i = 0; i < plan.links.size(); ++i) {
      // Fiber factors are 1, so only MW links count outages.
      if (factors[i] == 0.0) probabilities[i] += 1.0;
    }
  }
  for (double& p : probabilities) p /= static_cast<double>(samples);
  return probabilities;
}

}  // namespace cisp::net::control
