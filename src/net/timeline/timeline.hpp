#pragma once
// Streaming timeline simulation — the layer that turns the scenario
// engine from a grid evaluator into a simulator of an operating network.
// A TimelineDriver advances a sequence of epochs (diurnal hour × weather
// field × optional demand growth) and carries state epoch-to-epoch
// instead of rebuilding:
//
//   * routes    — control::RouteRepairer consumes only the link-state
//                 CHURN between consecutive epochs (LinkDelta batches);
//                 the graph is built once for the whole timeline.
//   * demands   — the base DemandMatrix is apportioned once; each epoch
//                 rewrites pair rates in place (diurnal activity × demand
//                 growth), never re-apportioning users.
//   * allocation— the max-min / alpha-fair allocators run through a
//                 flow::WarmState: the path-incidence structure is reused
//                 while routes are unchanged, and alpha-fair dual prices
//                 seed the next solve.
//
// Equivalence contract (pinned in timeline_test.cpp): a warm timeline's
// per-epoch outputs are byte-identical to evaluating each epoch as an
// independent cell for the max-min backend (cold_start() below IS that
// independent-cell evaluation), and within the allocator's KKT residual
// for alpha-fair. Determinism: every epoch report is byte-identical at
// every thread count (only the TE split reads `threads`).
//
// The driver also folds per-pair availability over the run (an epoch
// counts as available for a pair when delivered >= served_frac * offered)
// into an SLO summary: the fraction of pairs meeting three-nines over the
// timeline, plus availability percentiles across pairs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/builder.hpp"
#include "net/control/route_repair.hpp"
#include "net/control/weather_coupling.hpp"
#include "net/flow/alpha_fair.hpp"
#include "net/flow/monitors.hpp"
#include "net/scenario/demand_scenario.hpp"
#include "net/te/split.hpp"
#include "net/traffic_model.hpp"
#include "weather/rainfield.hpp"

namespace cisp::net::timeline {

struct TimelineOptions {
  /// Epochs run() executes; step() may be called past this freely.
  std::size_t epochs = 48;
  double hours_per_epoch = 1.0;
  double start_utc_hour = 0.0;
  /// Diurnal demand shape. tz_offset_hours must cover every site a pair
  /// references; floor_activity must be positive (a zero-activity epoch
  /// would drop pairs from from_pairs-built cells and break the
  /// independent-cell equivalence).
  scenario::DiurnalProfile diurnal;
  /// Linear demand growth over a simulated year: the epoch's rate scale
  /// is 1 + annual_growth * (utc_hour / 8760). 0 = flat.
  double annual_growth = 0.0;
  /// Weather source (optional, must outlive the driver): per-epoch MW
  /// capacity factors sampled at t = utc_hour * 3600 s, replaying the
  /// field's year for t past its end. Requires `sites` at construction.
  /// Mutually exclusive with `factor_schedule`.
  const weather::RainField* rain = nullptr;
  control::WeatherCouplingParams coupling;
  /// Scripted per-epoch capacity-factor schedule (one factor per plan
  /// link, cycled when shorter than the timeline) — the precompute-and-
  /// replay idiom of the control_availability pipeline. Must outlive the
  /// driver. Only MW links take effect (fiber never degrades).
  const std::vector<std::vector<double>>* factor_schedule = nullptr;
  /// Detour admission for repaired routes (pairs over max_stretch are
  /// denied, not stretched).
  control::DetourPolicy policy;
  /// Multipath TE routing mode: instead of the repairer's single
  /// repaired path per pair, each epoch re-solves per-pair split weights
  /// (net/te/split.hpp) against the epoch's degraded capacities and
  /// realizes them as weighted subflows. Splits are solved against the
  /// BASE demand rates (like the repairer's routes), so diurnal swings
  /// never churn the solve — only link-state changes do — and candidate
  /// pools are gathered once against nominal capacities and carried
  /// through the driver's te::SplitWarmState. The repairer still tracks
  /// link state (capacity factors); its routes are unused in this mode.
  bool multipath_te = false;
  /// TE knobs for multipath_te. `threads`, `warm` and
  /// `gather_capacity_bps` are driver-owned and ignored here.
  te::SplitOptions te_split;
  /// Flow (max-min) or Elastic (alpha-fair); Packet is rejected.
  TrafficBackend backend = TrafficBackend::Flow;
  double alpha = 1.0;
  /// Worker threads of the multipath_te split: candidate gather and
  /// simplex row sharding (1 = serial, 0 = all cores); outputs are
  /// byte-identical for every value. Repair and allocation are serial.
  std::size_t threads = 1;
  /// An epoch counts toward a pair's availability when
  /// delivered >= served_frac * offered.
  double served_frac = 0.99;
};

/// One epoch's time-series row.
struct EpochStats {
  std::size_t epoch = 0;
  double utc_hour = 0.0;
  double growth_scale = 1.0;
  double offered_bps = 0.0;
  double delivered_bps = 0.0;
  /// delivered / offered (1 when nothing was offered).
  double served_fraction = 1.0;
  /// p99 of per-pair stretch (all pairs, denied pairs report 0).
  double p99_stretch = 0.0;
  /// Jain index of per-pair served fractions over offered pairs.
  double jain_fairness = 1.0;
  /// Pairs the detour policy denied this epoch / total pairs.
  double denied_fraction = 0.0;
  /// Pairs meeting the served_frac SLO this epoch / total pairs.
  double available_fraction = 1.0;
  double mean_link_utilization = 0.0;
  double max_link_utilization = 0.0;
  /// Repair churn this epoch.
  std::size_t link_deltas = 0;
  std::size_t touched_pairs = 0;
  std::size_t changed_pairs = 0;
  /// Allocator effort (dual iterations are 0 for pure max-min).
  std::size_t allocation_rounds = 0;
  std::size_t dual_iterations = 0;
};

/// SLO roll-up over every epoch stepped so far.
struct TimelineSummary {
  std::size_t epochs = 0;
  std::size_t pairs = 0;
  /// Fraction of pairs with availability >= 0.999 / 0.99 over the run.
  double three_nines_fraction = 0.0;
  double two_nines_fraction = 0.0;
  /// Distribution of per-pair availability (fraction of epochs meeting
  /// the served_frac SLO).
  double min_availability = 1.0;
  double p01_availability = 1.0;
  double p10_availability = 1.0;
  double p50_availability = 1.0;
  /// Mean of per-epoch served fractions, and the worst epoch.
  double mean_served_fraction = 1.0;
  double worst_served_fraction = 1.0;
  /// Solves that reused warm allocator structure (0 for cold drivers).
  std::size_t warm_reuses = 0;
};

/// Drives one continuous timeline over a designed plan. `plan` and the
/// option pointers must outlive the driver; `sites` (may be empty when no
/// rain source is set) are the per-node positions the weather coupling
/// samples; `direct_km` supplies the stretch denominator.
class TimelineDriver {
 public:
  TimelineDriver(const LinkPlan& plan, std::vector<geo::LatLon> sites,
                 flow::DemandMatrix base, flow::DirectKmFn direct_km,
                 TimelineOptions options);

  /// Advances one epoch and returns its stats. Warm path: deltas into the
  /// repairer, in-place demand rewrite, warm-started allocation.
  EpochStats step();

  /// Steps until options.epochs epochs have run; returns all new rows.
  std::vector<EpochStats> run();

  /// The independent-cell evaluation of epoch `e` (full rebuild: fresh
  /// view, full route recompute on the cumulative link state, fresh
  /// demand copy, cold allocation). This is both the equivalence oracle
  /// for the warm path and the perf baseline the timeline_year_step
  /// kernel beats. Does not advance or read any carried state except the
  /// availability accounting (which it does NOT touch).
  [[nodiscard]] EpochStats evaluate_cold(std::size_t epoch_index) const;

  [[nodiscard]] const TimelineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t epoch() const { return epoch_; }
  /// Per-pair outcomes of the most recent step().
  [[nodiscard]] const std::vector<flow::PairOutcome>& last_outcomes() const {
    return last_outcomes_;
  }
  /// TE warm-state observability (candidate/solution reuse counters);
  /// untouched unless options.multipath_te is set.
  [[nodiscard]] const te::SplitWarmState& te_warm() const { return te_warm_; }
  /// Per-pair availability over all epochs stepped so far.
  [[nodiscard]] std::vector<double> pair_availability() const;
  [[nodiscard]] TimelineSummary summary() const;

 private:
  [[nodiscard]] double epoch_hour(std::size_t epoch_index) const;
  [[nodiscard]] double epoch_growth(double utc_hour) const;
  /// Epoch `epoch_index`'s capacity factor per plan link, into `factors`
  /// (`rain` is the weather snapshot's storage).
  void epoch_link_factors(std::size_t epoch_index,
                          weather::RainSnapshot& rain,
                          std::vector<double>& factors) const;
  /// The one epoch evaluation behind step() and evaluate_cold():
  /// realizes `routes` (TE splits, or repaired paths as weight-1 sets;
  /// denied pairs are empty entries) over `demands` and builds the
  /// fairness/SLO row. `routes` is taken by value so a fresh set moves
  /// into the allocator's subflows uncopied. `warm` is nullptr for an
  /// independent-cell (cold) evaluation. The caller fills the
  /// repair-churn fields afterwards.
  EpochStats evaluate(const SimTopologyView& view, MultipathRouteSet routes,
                      const flow::DemandMatrix& demands,
                      std::size_t epoch_index, double utc_hour, double growth,
                      flow::WarmState* warm,
                      std::vector<flow::PairOutcome>& outcomes) const;
  /// The epoch's TE split solve (multipath_te mode): current capacities
  /// from `view`, base-rate demands, candidates gathered against
  /// `nominal_capacity`; `warm` may be nullptr (cold oracle).
  [[nodiscard]] te::SplitResult solve_epoch_splits(
      const SimTopologyView& view,
      const std::vector<double>& nominal_capacity,
      te::SplitWarmState* warm) const;

  const LinkPlan* plan_;
  std::vector<geo::LatLon> sites_;
  /// Hop tables of the MW links, built once when `rain` is set.
  std::optional<control::LinkWeatherSampler> weather_;
  flow::DemandMatrix base_;
  flow::DemandMatrix current_;
  flow::DirectKmFn direct_km_;
  TimelineOptions options_;

  control::RouteRepairer repairer_;
  /// Intact-plan view (stable graph) + its nominal capacities; each epoch
  /// writes view.capacity_bps = nominal * factor in place.
  TopologyView topo_;
  std::vector<double> nominal_capacity_bps_;
  flow::WarmState warm_;
  /// Multipath-TE carry: candidate pools + last split solution.
  te::SplitWarmState te_warm_;
  /// Base-rate demand list the TE solve reads (stable across epochs).
  std::vector<TrafficDemand> base_demands_;

  std::size_t epoch_ = 0;
  /// step()'s rain snapshot and per-link capacity factors, reused across
  /// epochs.
  weather::RainSnapshot rain_snapshot_;
  std::vector<double> factors_;
  std::vector<flow::PairOutcome> last_outcomes_;
  /// Per-pair count of epochs meeting the served_frac SLO.
  std::vector<std::uint64_t> available_epochs_;
  double served_fraction_sum_ = 0.0;
  double worst_served_fraction_ = 1.0;
};

}  // namespace cisp::net::timeline
