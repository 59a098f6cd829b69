#pragma once
// Couples the synthetic rain process to the LinkPlan: per-MW-link capacity
// factors from rain attenuation vs the fade-margin budget, emitted as
// LinkDeltas the RouteRepairer consumes. This is the pipeline that turns
// fig07-class weather and the failure scenarios into ONE story — a year of
// weather-driven topology churn with per-epoch rerouting.
//
// Per link and epoch: the great-circle between its endpoints is subdivided
// into budget-scale hops; each hop samples the rain field at its midpoint,
// converts to attenuation (ITU-R P.838/530 via rf/rain) and compares
// against the hop's fade margin (rf/link_budget). Within
// `adaptive_headroom_db` of the margin, adaptive modulation derates the
// hop linearly (the weather::OutageModel idiom); at/over the margin the
// hop — and with it the whole series link — is binary-down. The link's
// factor is the worst hop's.
//
// Sampling cost: a LinkWeatherSampler builds each MW link's hop table
// (midpoints, hop length, fade margin, latitude band, clear-sky factor)
// once, and every epoch reads one weather::RainSnapshot. A link whose
// latitude band is farther than every active cell's cutoff gets its
// clear-sky factor without sampling, and a hop sums only the cells its
// distance bounds cannot rule out; the factors are bit-identical to
// sampling every hop against RainField::rain_mm_h.
//
// Fiber never degrades (the paper's always-on backstop), so deltas are
// emitted for MW links only.

#include <cstddef>
#include <vector>

#include "geo/latlon.hpp"
#include "net/control/route_repair.hpp"
#include "rf/link_budget.hpp"
#include "weather/rainfield.hpp"

namespace cisp::net::control {

/// MW geometry of one planned link (indices parallel the plan's link
/// list; fiber entries are present but never consulted).
struct LinkGeometry {
  geo::LatLon a;
  geo::LatLon b;
  double path_km = 0.0;
};

struct WeatherCouplingParams {
  rf::LinkBudgetParams budget;
  /// Attenuation window (dB) below the margin where adaptive modulation
  /// derates instead of dropping the link.
  double adaptive_headroom_db = 12.0;
  /// Tower-to-tower hop length used to subdivide a link when sampling
  /// rain (the paper's relays sit every 60-100 km).
  double hop_km = 75.0;
};

/// Great-circle geometry for every link of `plan` from per-site positions.
[[nodiscard]] std::vector<LinkGeometry> link_geometry(
    const LinkPlan& plan, const std::vector<geo::LatLon>& sites);

/// Per-link capacity factors from rain snapshots. The hop table of every
/// MW link is built once, for the params the sampler holds, so it can
/// never sample midpoints of another hop_km; callers that change params
/// build a new sampler.
class LinkWeatherSampler {
 public:
  /// Hop tables for every MW link of `plan` (geometry parallels the
  /// plan's links). A link's hop count is ceil(path_km / hop_km) and its
  /// hop midpoints are spaced evenly on the great circle a -> b, so a
  /// hand-built geometry whose path_km differs from its endpoints'
  /// distance samples exactly as it always did.
  LinkWeatherSampler(const LinkPlan& plan,
                     const std::vector<LinkGeometry>& geometry,
                     const WeatherCouplingParams& params = {});

  /// Capacity factor of every plan link under `rain` (non-MW entries are
  /// 1.0), written into `factors`, which is resized to the plan's link
  /// count. A link's factor is the min over its hops of the adaptive-
  /// modulation factor (1 = full margin, 0 = binary outage).
  void factors(const weather::RainSnapshot& rain,
               std::vector<double>& factors) const;

 private:
  /// One MW link's hops under params_.
  struct HopTable {
    std::size_t link = 0;   ///< plan link index
    std::size_t first = 0;  ///< first midpoint in midpoints_
    std::size_t hops = 0;
    double hop_len_km = 0.0;
    double margin_db = 0.0;
    /// Latitude band of the midpoints, radians.
    double lat_min_rad = 0.0;
    double lat_max_rad = 0.0;
    /// The factor when no hop sees rain (below 1 when the margin is
    /// under the adaptive headroom).
    double clear_sky_factor = 1.0;
  };
  [[nodiscard]] double link_factor(const HopTable& table,
                                   const weather::RainSnapshot& rain) const;
  [[nodiscard]] double hop_factor(const HopTable& table,
                                  double attenuation_db) const;

  WeatherCouplingParams params_;
  std::size_t link_count_ = 0;
  std::vector<HopTable> tables_;
  std::vector<weather::RainProbe> midpoints_;
};

/// Capacity factor of one link at time `t_s` (a one-link sampler).
[[nodiscard]] double link_capacity_factor(const LinkGeometry& geometry,
                                          const weather::RainField& rain,
                                          double t_s,
                                          const WeatherCouplingParams& params);

/// Capacity factors for every link of `plan` at time `t_s` (non-MW
/// entries are 1.0), through a sampler built for this call; loops over
/// many times keep one LinkWeatherSampler instead. Epoch pipelines
/// precompute these once per epoch and replay them across sweep cells.
[[nodiscard]] std::vector<double> link_capacity_factors(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const weather::RainField& rain, double t_s,
    const WeatherCouplingParams& params = {});

/// LinkDeltas from per-link capacity factors relative to `previous` link
/// state: only MW links whose state changed appear, so consecutive epochs
/// hand the repairer exactly the churn. A factor of 0 is emitted as
/// up=false (binary outage); `previous` must have one entry per plan link
/// (RouteRepairer::link_state()).
[[nodiscard]] std::vector<LinkDelta> deltas_from_factors(
    const LinkPlan& plan, const std::vector<double>& factors,
    const std::vector<LinkState>& previous);

/// link_capacity_factors + deltas_from_factors in one step — the
/// derate -> repair handoff for a single epoch.
[[nodiscard]] std::vector<LinkDelta> weather_deltas(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const weather::RainField& rain, double t_s,
    const std::vector<LinkState>& previous,
    const WeatherCouplingParams& params = {});

/// Empirical per-MW-link binary-outage probabilities over `samples` epochs
/// spread uniformly across the rain field's year — the bridge that turns
/// FailureModel::RandomDown's abstract p into weather-calibrated per-link
/// rates (FailureModel::per_link_down_probability). Fiber entries are 0.
[[nodiscard]] std::vector<double> weather_down_probabilities(
    const LinkPlan& plan, const std::vector<LinkGeometry>& geometry,
    const weather::RainField& rain, std::size_t samples,
    const WeatherCouplingParams& params = {});

}  // namespace cisp::net::control
