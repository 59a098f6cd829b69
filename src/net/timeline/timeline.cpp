#include "net/timeline/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/flow/multipath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace cisp::net::timeline {

namespace {

/// Hours in a simulated year — the demand-growth ramp denominator.
constexpr double kHoursPerYear = 8760.0;

}  // namespace

TimelineDriver::TimelineDriver(const LinkPlan& plan,
                               std::vector<geo::LatLon> sites,
                               flow::DemandMatrix base,
                               flow::DirectKmFn direct_km,
                               TimelineOptions options)
    : plan_(&plan),
      sites_(std::move(sites)),
      base_(std::move(base)),
      current_(base_),
      direct_km_(std::move(direct_km)),
      options_(std::move(options)),
      // Routes are planned against the BASE (nominal) demand rates: the
      // control plane sees planning-time demand, so diurnal swings never
      // churn routes — only link-state deltas do. The allocator runs on
      // the epoch rates.
      repairer_(plan, base_.to_demands(), options_.policy, direct_km_),
      topo_(view_from_plan(plan)) {
  CISP_REQUIRE(options_.backend != TrafficBackend::Packet,
               "the timeline driver is fluid-only (Flow or Elastic)");
  CISP_REQUIRE(options_.epochs >= 1, "timeline needs at least one epoch");
  CISP_REQUIRE(options_.hours_per_epoch > 0.0,
               "hours_per_epoch must be positive");
  CISP_REQUIRE(options_.diurnal.floor_activity > 0.0,
               "timeline diurnal floor must be positive (a zero-activity "
               "epoch would drop pairs and destabilize flow ids)");
  CISP_REQUIRE(options_.alpha > 0.0, "alpha must be positive");
  CISP_REQUIRE(options_.served_frac > 0.0 && options_.served_frac <= 1.0,
               "served_frac must be in (0, 1]");
  CISP_REQUIRE(options_.rain == nullptr || options_.factor_schedule == nullptr,
               "rain and factor_schedule are mutually exclusive");
  if (options_.rain != nullptr) {
    CISP_REQUIRE(sites_.size() == plan.node_count,
                 "weather coupling needs one site position per plan node");
    weather_.emplace(plan, control::link_geometry(plan, sites_),
                     options_.coupling);
  }
  if (options_.factor_schedule != nullptr) {
    CISP_REQUIRE(!options_.factor_schedule->empty(),
                 "factor schedule must have at least one epoch");
    for (const auto& row : *options_.factor_schedule) {
      CISP_REQUIRE(row.size() == plan.links.size(),
                   "factor schedule rows must cover every plan link");
      for (const double f : row) {
        CISP_REQUIRE(f >= 0.0 && f <= 1.0,
                     "capacity factor must be in [0, 1]");
      }
    }
  }
  for (const flow::PairDemand& pair : base_.pairs()) {
    CISP_REQUIRE(pair.src < options_.diurnal.tz_offset_hours.size() &&
                     pair.dst < options_.diurnal.tz_offset_hours.size(),
                 "diurnal profile does not cover every demand site");
    CISP_REQUIRE(pair.rate_bps > 0.0,
                 "timeline base demands must be strictly positive");
  }
  nominal_capacity_bps_ = topo_.view.capacity_bps;
  // The TE solve reads base (planning-time) rates for the same reason
  // the repairer does: diurnal swings must never churn the splits.
  base_demands_ = base_.to_demands();
  available_epochs_.assign(base_.flow_count(), 0);
}

double TimelineDriver::epoch_hour(std::size_t epoch_index) const {
  return options_.start_utc_hour +
         static_cast<double>(epoch_index) * options_.hours_per_epoch;
}

double TimelineDriver::epoch_growth(double utc_hour) const {
  const double scale =
      1.0 + options_.annual_growth * (utc_hour / kHoursPerYear);
  CISP_REQUIRE(scale >= 0.0, "demand growth drove the scale negative");
  return scale;
}

void TimelineDriver::epoch_link_factors(std::size_t epoch_index,
                                        weather::RainSnapshot& rain,
                                        std::vector<double>& factors) const {
  if (weather_) {
    // The field covers [0, year]; later epochs replay its year.
    double t_s = epoch_hour(epoch_index) * 3600.0;
    if (t_s > weather::kYearS) t_s = std::fmod(t_s, weather::kYearS);
    options_.rain->snapshot(t_s, rain);
    weather_->factors(rain, factors);
  } else if (options_.factor_schedule != nullptr) {
    factors = (*options_.factor_schedule)[epoch_index %
                                          options_.factor_schedule->size()];
  } else {
    factors.assign(plan_->links.size(), 1.0);
  }
}

EpochStats TimelineDriver::evaluate(
    const SimTopologyView& view, MultipathRouteSet routes,
    const flow::DemandMatrix& demands, std::size_t epoch_index,
    double utc_hour, double growth, flow::WarmState* warm,
    std::vector<flow::PairOutcome>& outcomes) const {
  // The same realization FluidTrafficModel::run performs (byte-identity
  // with the seam is pinned in timeline_test.cpp). Denied pairs (empty
  // route-set entries) expand to no subflows and deliver zero. The warm
  // incidence is fingerprint-guarded, so route churn rebuilds it silently
  // and unchanged routes reuse it across epochs.
  std::size_t denied_count = 0;
  for (const auto& set : routes.pair_paths) {
    if (set.empty()) ++denied_count;
  }
  flow::ElasticOptions elastic;
  elastic.alpha = options_.backend == TrafficBackend::Elastic
                      ? options_.alpha
                      : std::numeric_limits<double>::infinity();
  elastic.warm = warm;
  flow::Realization realized =
      flow::realize(view, demands, std::move(routes), elastic, direct_km_);
  outcomes = std::move(realized.pairs);
  const flow::FlowLevelStats& stats = realized.stats;

  EpochStats row;
  row.epoch = epoch_index;
  row.utc_hour = utc_hour;
  row.growth_scale = growth;
  row.offered_bps = stats.offered_bps;
  row.delivered_bps = stats.delivered_bps;
  row.served_fraction = stats.offered_bps > 0.0
                            ? stats.delivered_bps / stats.offered_bps
                            : 1.0;
  row.mean_link_utilization = stats.mean_link_utilization;
  row.max_link_utilization = stats.max_link_utilization;
  row.allocation_rounds = realized.allocation.rounds;
  row.dual_iterations = realized.allocation.dual_iterations;

  std::vector<double> pair_stretch;
  pair_stretch.reserve(outcomes.size());
  double served_sum = 0.0;
  double served_sum_sq = 0.0;
  std::size_t offered_pairs = 0;
  std::size_t available = 0;
  for (const flow::PairOutcome& pair : outcomes) {
    pair_stretch.push_back(pair.stretch);
    if (pair.offered_bps <= 0.0 ||
        pair.delivered_bps >= options_.served_frac * pair.offered_bps) {
      ++available;
    }
    if (pair.offered_bps <= 0.0) continue;
    const double frac = std::min(1.0, pair.delivered_bps / pair.offered_bps);
    served_sum += frac;
    served_sum_sq += frac * frac;
    ++offered_pairs;
  }
  row.p99_stretch =
      pair_stretch.empty() ? 0.0 : select_percentile(pair_stretch, 99.0);
  row.jain_fairness =
      served_sum_sq > 0.0
          ? served_sum * served_sum /
                (static_cast<double>(offered_pairs) * served_sum_sq)
          : 1.0;
  const std::size_t pairs = outcomes.size();
  if (pairs > 0) {
    row.denied_fraction =
        static_cast<double>(denied_count) / static_cast<double>(pairs);
    row.available_fraction =
        static_cast<double>(available) / static_cast<double>(pairs);
  }
  return row;
}

te::SplitResult TimelineDriver::solve_epoch_splits(
    const SimTopologyView& view, const std::vector<double>& nominal_capacity,
    te::SplitWarmState* warm) const {
  te::SplitOptions split = options_.te_split;
  split.threads = options_.threads;
  split.warm = warm;
  // Gather against the NOMINAL capacities: the candidate fingerprint is
  // stable across degraded epochs (and identical for the cold oracle's
  // fresh view), so link churn only re-runs the split solve.
  split.gather_capacity_bps = &nominal_capacity;
  return te::solve_splits(view, base_demands_, direct_km_, split);
}

EpochStats TimelineDriver::step() {
  const obs::TraceSpan span("timeline.step", "timeline", "epoch",
                            static_cast<double>(epoch_));
  const std::size_t e = epoch_;
  const double hour = epoch_hour(e);
  const double growth = epoch_growth(hour);

  // Link churn only: the repairer sees the delta between consecutive
  // epochs, never the full state.
  epoch_link_factors(e, rain_snapshot_, factors_);
  const std::vector<control::LinkDelta> deltas =
      control::deltas_from_factors(*plan_, factors_, repairer_.link_state());
  const control::RepairStats repair = repairer_.apply(deltas);

  // In-place demand rewrite (no user re-apportionment) and in-place
  // capacity rewrite on the stable graph.
  scenario::apply_diurnal_in_place(base_, options_.diurnal, hour, growth,
                                   current_);
  const std::vector<control::LinkState>& state = repairer_.link_state();
  for (std::size_t edge = 0; edge < topo_.view.capacity_bps.size(); ++edge) {
    topo_.view.capacity_bps[edge] =
        nominal_capacity_bps_[edge] *
        state[topo_.view.edge_to_link[edge] / 2].effective_factor();
  }

  // TE mode: the epoch's split weights re-solve against the degraded
  // capacities (warm caches skip work that hasn't changed); the
  // repairer's routes are unused but its link state drove the capacity
  // rewrite above. Otherwise the repaired paths are the route set. Either
  // fresh set moves into the allocator's subflows without a copy.
  EpochStats row = evaluate(
      topo_.view,
      options_.multipath_te
          ? solve_epoch_splits(topo_.view, nominal_capacity_bps_, &te_warm_)
                .routes
          : single_path_routes(repairer_.traffic_paths()),
      current_, e, hour, growth, &warm_, last_outcomes_);
  row.link_deltas = deltas.size();
  row.touched_pairs = repair.touched_pairs;
  row.changed_pairs = repair.changed_pairs;

  for (std::size_t f = 0; f < last_outcomes_.size(); ++f) {
    const flow::PairOutcome& pair = last_outcomes_[f];
    if (pair.offered_bps <= 0.0 ||
        pair.delivered_bps >= options_.served_frac * pair.offered_bps) {
      ++available_epochs_[f];
    }
  }
  served_fraction_sum_ += row.served_fraction;
  worst_served_fraction_ =
      std::min(worst_served_fraction_, row.served_fraction);
  ++epoch_;

  static obs::Counter& epochs_counter = obs::counter("timeline.epochs");
  epochs_counter.add(1);
  return row;
}

std::vector<EpochStats> TimelineDriver::run() {
  std::vector<EpochStats> rows;
  while (epoch_ < options_.epochs) rows.push_back(step());
  return rows;
}

EpochStats TimelineDriver::evaluate_cold(std::size_t epoch_index) const {
  const double hour = epoch_hour(epoch_index);
  const double growth = epoch_growth(hour);
  weather::RainSnapshot rain;
  std::vector<double> factors;
  epoch_link_factors(epoch_index, rain, factors);

  // Cumulative link state straight from the epoch's factors — the same
  // state deltas_from_factors would have walked the repairer into (MW
  // links only; fiber never degrades).
  std::vector<control::LinkState> state(plan_->links.size());
  for (std::size_t i = 0; i < plan_->links.size(); ++i) {
    if (!plan_->links[i].is_mw) continue;
    state[i].up = factors[i] > 0.0;
    state[i].capacity_factor = state[i].up ? factors[i] : 1.0;
  }

  // Full rebuild: fresh view (its capacities ARE the nominal ones —
  // copied before scaling so the TE gather sees the same bytes step()
  // passes), fresh demand copy, cold allocation — exactly one
  // independent scenario cell.
  TopologyView topo = view_from_plan(*plan_);
  const std::vector<double> nominal = topo.view.capacity_bps;
  for (std::size_t edge = 0; edge < topo.view.capacity_bps.size(); ++edge) {
    topo.view.capacity_bps[edge] *=
        state[topo.view.edge_to_link[edge] / 2].effective_factor();
  }

  flow::DemandMatrix demands =
      scenario::apply_diurnal(base_, options_.diurnal, hour);
  if (growth != 1.0) demands.scale_rates(growth);

  MultipathRouteSet routes;
  if (options_.multipath_te) {
    // Cold TE solve (no warm state): candidates re-gather against the
    // fresh view's nominal capacities and the LP re-runs — by the
    // pure-function contract of solve_splits this reproduces the warm
    // path's bytes exactly.
    routes = solve_epoch_splits(topo.view, nominal, /*warm=*/nullptr).routes;
  } else {
    std::vector<control::PairRoute> repaired = control::RouteRepairer::
        full_recompute(*plan_, base_.to_demands(), options_.policy,
                       direct_km_, state);
    std::vector<graphs::Path> paths;
    paths.reserve(repaired.size());
    for (control::PairRoute& route : repaired) {
      paths.push_back(std::move(route.path));
    }
    routes = single_path_routes(std::move(paths));
  }
  std::vector<flow::PairOutcome> outcomes;
  return evaluate(topo.view, std::move(routes), demands, epoch_index, hour,
                  growth, /*warm=*/nullptr, outcomes);
}

std::vector<double> TimelineDriver::pair_availability() const {
  std::vector<double> availability(available_epochs_.size(), 1.0);
  if (epoch_ == 0) return availability;
  for (std::size_t f = 0; f < available_epochs_.size(); ++f) {
    availability[f] = static_cast<double>(available_epochs_[f]) /
                      static_cast<double>(epoch_);
  }
  return availability;
}

TimelineSummary TimelineDriver::summary() const {
  TimelineSummary out;
  out.epochs = epoch_;
  out.pairs = base_.flow_count();
  out.warm_reuses = warm_.incidence_reuses;
  if (epoch_ == 0 || out.pairs == 0) return out;

  const std::vector<double> availability = pair_availability();
  Samples samples;
  std::size_t three_nines = 0;
  std::size_t two_nines = 0;
  double min_avail = 1.0;
  for (const double a : availability) {
    samples.add(a);
    min_avail = std::min(min_avail, a);
    // The epoch grid is coarse (a 48-epoch run cannot distinguish 0.999
    // from 1), so the nines thresholds take a hair of slack against
    // division rounding.
    if (a >= 0.999 - 1e-12) ++three_nines;
    if (a >= 0.99 - 1e-12) ++two_nines;
  }
  const double pair_count = static_cast<double>(availability.size());
  out.three_nines_fraction = static_cast<double>(three_nines) / pair_count;
  out.two_nines_fraction = static_cast<double>(two_nines) / pair_count;
  out.min_availability = min_avail;
  out.p01_availability = samples.percentile(1.0);
  out.p10_availability = samples.percentile(10.0);
  out.p50_availability = samples.percentile(50.0);
  out.mean_served_fraction =
      served_fraction_sum_ / static_cast<double>(epoch_);
  out.worst_served_fraction = worst_served_fraction_;
  return out;
}

}  // namespace cisp::net::timeline
