// The three workloads. Each makes its set-up kSetupRepeats times (keeping
// the last), then runs a closed loop of steps for the requested seconds,
// checking every step's outputs from outside the library. A traced run
// (--trace 1) instead splits its seconds into an untraced reference
// phase, a traced phase over the same steps at the full thread count and
// a traced phase at one thread, and reads the layer breakdown from the
// library's spans and counters.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "layers.hpp"
#include "net/timeline/timeline.hpp"
#include "setup.hpp"

namespace perfbench {

using namespace cisp;

namespace {

std::string fmt(double value, int precision = 3) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

/// Bounds of one closed-loop phase: it runs until `seconds` have elapsed
/// and at least `min_steps` steps ran, stopping only on a multiple of
/// `granule` steps (a whole re-solve cycle), and never runs more than
/// `max_steps`.
struct Phase {
  double seconds = 0.0;
  std::size_t min_steps = 0;
  std::size_t granule = 1;
  std::size_t max_steps = static_cast<std::size_t>(-1);

  static Phase exactly(std::size_t steps) { return {0.0, steps, 1, steps}; }
};

/// Runs `step(index, record)` back to back within `phase`. A cisp::Error
/// fails the step; other exceptions abort the run. Returns the phase's
/// wall seconds.
double closed_loop(const Phase& phase, std::vector<StepRecord>& log,
                   RunResult& out,
                   const std::function<void(std::size_t, StepRecord&)>& step) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < phase.max_steps; ++i) {
    if (i >= phase.min_steps && i % phase.granule == 0 &&
        seconds_since(start) >= phase.seconds) {
      break;
    }
    StepRecord record;
    record.index = i;
    const auto t0 = Clock::now();
    try {
      step(i, record);
    } catch (const cisp::Error& error) {
      record.ok = false;
      out.failures.push_back("step " + std::to_string(i) +
                             ": cisp::Error: " + error.what());
    }
    record.wall_ms = seconds_since(t0) * 1e3;
    log.push_back(std::move(record));
  }
  return seconds_since(start);
}

/// Marks a step failed with a reason (an output check did not hold).
void fail(RunResult& out, StepRecord& record, const std::string& why) {
  record.ok = false;
  out.failures.push_back("step " + std::to_string(record.index) + " (" +
                         record.kind + "): " + why);
}

/// Builds the set-up kSetupRepeats times, keeping the last one alive; the
/// previous copy is destroyed before the next is built, so peak memory
/// holds one set-up. A traced run reports the per-layer medians and the
/// greedy counters per set-up, then checks its call-by-call substrate
/// against the library's scenario build.
template <typename T, typename Build>
std::unique_ptr<T> repeated_setup(const Args& args, RunResult& out,
                                  Build&& build) {
  if (args.trace) start_metrics();
  std::unique_ptr<T> kept;
  std::vector<SetupLayers> layers(kSetupRepeats);
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    kept.reset();
    const auto start = Clock::now();
    kept = build(layers[r]);
    out.setup_s.push_back(seconds_since(start));
  }
  if (!args.trace) return kept;
  stop_tracing();
  check_layered_setup(kept->instance, args.threads);

  const auto med = [&](double SetupLayers::*field) {
    std::vector<double> values;
    for (const SetupLayers& l : layers) values.push_back(l.*field);
    return median(values);
  };
  const SetupLayers& l = layers.back();
  const auto per_setup = [](const char* counter) {
    return static_cast<double>(counter_value(counter)) /
           static_cast<double>(kSetupRepeats);
  };
  out.layer_values = {
      {"terrain.raster_ms", med(&SetupLayers::raster_ms)},
      {"terrain.cells", static_cast<double>(l.cells)},
      {"infra.towers_ms", med(&SetupLayers::towers_ms)},
      {"infra.towers", static_cast<double>(l.towers)},
      {"design.hop_graph_ms", med(&SetupLayers::hop_graph_ms)},
      {"design.feasible_hops", static_cast<double>(l.feasible_hops)},
      {"design.problem_ms", med(&SetupLayers::problem_ms)},
      {"design.link_eng_ms", med(&SetupLayers::link_eng_ms)},
      {"design.candidates", static_cast<double>(l.candidates)},
      {"design.greedy_ms", med(&SetupLayers::greedy_ms)},
      {"design.capacity_ms", med(&SetupLayers::capacity_ms)},
      {"greedy.rescore", per_setup("greedy.rescore")},
      {"greedy.swap_rounds", per_setup("greedy.swap_rounds")},
      {"setup.construct_ms", med(&SetupLayers::construct_ms)},
  };
  return kept;
}

double per(double total, std::size_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double step_median(const std::vector<StepRecord>& steps) {
  std::vector<double> ms;
  for (const StepRecord& s : steps) ms.push_back(s.wall_ms);
  return median(ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// timeline_weather / timeline_te_overload
// ---------------------------------------------------------------------------

namespace {

/// Epochs the deterministic outputs are folded over; every run steps at
/// least this many: one week of hourly weather, or 20 weather changes
/// under TE.
constexpr std::size_t kQualityEpochs = 168;
constexpr std::size_t kTeQualityEpochs = 100;

/// timeline_te_overload: one weather change (and so one LP re-solve)
/// every kTeCadence epochs, kTeChanges changes before the schedule wraps.
constexpr std::size_t kTeCadence = 5;
constexpr std::size_t kTeChanges = 32;

struct TimelineSetup {
  explicit TimelineSetup(Instance built) : instance(std::move(built)) {}

  Instance instance;
  net::LinkPlan link_plan;
  net::flow::DemandMatrix base;
  std::unique_ptr<weather::RainField> rain;
  /// timeline_te_overload: per-epoch MW capacity factors replayed from
  /// the rain field at a fixed weather-change cadence.
  std::vector<std::vector<double>> schedule;
  net::timeline::TimelineOptions options;
  std::unique_ptr<net::timeline::TimelineDriver> driver;

  [[nodiscard]] net::flow::DirectKmFn direct_km() const {
    return [this](std::uint32_t s, std::uint32_t t) {
      return instance.problem.input.geodesic_km(s, t);
    };
  }
  [[nodiscard]] std::unique_ptr<net::timeline::TimelineDriver> make_driver(
      std::size_t threads) const {
    net::timeline::TimelineOptions o = options;
    o.threads = threads;
    return std::make_unique<net::timeline::TimelineDriver>(
        link_plan, instance.problem.sites, base, direct_km(), o);
  }
};

std::unique_ptr<TimelineSetup> build_timeline(const Args& args, bool te_mode,
                                              SetupLayers& layers) {
  auto setup = std::make_unique<TimelineSetup>(
      build_instance(args.threads, args.trace, layers));

  timed(layers.construct_ms, [&] {
    const Instance& inst = setup->instance;
    constexpr std::uint64_t kUsers = 1000000;
    const double load_pct = te_mode ? 250.0 : 85.0;
    net::BuildOptions build;
    build.rate_scale = 1.0;
    const double offered_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
    setup->base = net::flow::DemandMatrix::from_users(
        inst.traffic, kUsers, offered_bps / static_cast<double>(kUsers));
    setup->link_plan =
        net::plan_links(inst.problem.input, inst.plan, build);

    // One rain field over the design's bounding box (sites +- 2 degrees).
    terrain::BoundingBox box{90.0, -90.0, 180.0, -180.0};
    for (const auto& site : inst.problem.sites) {
      box.lat_min = std::min(box.lat_min, site.lat_deg - 2.0);
      box.lat_max = std::max(box.lat_max, site.lat_deg + 2.0);
      box.lon_min = std::min(box.lon_min, site.lon_deg - 2.0);
      box.lon_max = std::max(box.lon_max, site.lon_deg + 2.0);
    }
    weather::RainParams rain;
    rain.seed = splitmix64(args.seed + 7);
    setup->rain = std::make_unique<weather::RainField>(box, rain);

    net::timeline::TimelineOptions& o = setup->options;
    o.epochs = 24 * 365;
    o.hours_per_epoch = 1.0;
    o.diurnal.tz_offset_hours =
        net::scenario::timezone_offsets(inst.problem.sites);
    o.diurnal.amplitude = 0.6;
    o.annual_growth = 0.2;
    o.policy.max_stretch = 2.5;
    o.backend = net::TrafficBackend::Flow;
    o.threads = args.threads;
    o.served_frac = 0.99;
    if (te_mode) {
      o.multipath_te = true;
      o.te_split.candidates.max_stretch = 2.5;

      // A fixed re-solve cadence, so every seed's run holds the same share
      // of LP re-solves: the rain field's MW factors are sampled at
      // kTeChanges hours spread evenly over the year (stepping on to the
      // next hour whose factors differ from the previous sample) and
      // replayed one weather change per kTeCadence epochs.
      const auto geometry =
          net::control::link_geometry(setup->link_plan, inst.problem.sites);
      std::vector<double> last;
      for (std::size_t change = 0; change < kTeChanges; ++change) {
        std::vector<double> factors;
        for (std::size_t hour = change * (24 * 365 / kTeChanges);
             factors.empty() || factors == last; ++hour) {
          factors = net::control::link_capacity_factors(
              setup->link_plan, geometry, *setup->rain,
              static_cast<double>(hour) * 3600.0, o.coupling);
        }
        last = factors;
        setup->schedule.insert(setup->schedule.end(), kTeCadence, factors);
      }
      o.factor_schedule = &setup->schedule;
    } else {
      o.rain = setup->rain.get();
    }
    setup->driver = setup->make_driver(args.threads);
  });
  return setup;
}

/// Per-run accumulation of the deterministic timeline outputs.
struct TimelineFold {
  double delivered_stretch = 0.0;
  double delivered = 0.0;
};

}  // namespace

RunResult run_timeline(const Args& args, bool te_mode) {
  RunResult out;
  auto setup = repeated_setup<TimelineSetup>(args, out, [&](SetupLayers& l) {
    return build_timeline(args, te_mode, l);
  });

  const std::size_t quality_epochs =
      te_mode ? kTeQualityEpochs : kQualityEpochs;
  // TE runs stop on whole re-solve cycles, so every run holds the same
  // share of re-solves.
  const std::size_t granule = te_mode ? kTeCadence : 1;
  TimelineFold fold;
  std::size_t lp_fallbacks = 0;
  // Per step since the last clear: did the TE split re-solve, and how
  // many pairs entered its LP.
  std::vector<char> resolved;
  double lp_pairs_sum = 0.0;

  const auto timeline_step = [&](net::timeline::TimelineDriver& driver,
                                 std::size_t i, StepRecord& record,
                                 bool quality) {
    const std::size_t reuses_before = driver.te_warm().solution_reuses;
    const net::timeline::EpochStats row = driver.step();
    const auto& outcomes = driver.last_outcomes();
    record.kind = row.link_deltas > 0 ? "link_churn" : "calm";
    bool resolve = false;
    if (te_mode) {
      resolve = driver.te_warm().solution_reuses == reuses_before;
      if (resolve) record.kind = "te_resolve";
      const net::te::SplitResult& split = driver.te_warm().solution;
      if (resolve) lp_pairs_sum += static_cast<double>(split.lp_pairs);
      if (resolve && split.lp_fallback) {
        ++lp_fallbacks;
        fail(out, record, "TE split fell back to shortest pinning");
      }
      const auto& sets = split.routes.pair_paths;
      if (sets.size() != outcomes.size()) {
        fail(out, record, "route set does not cover every pair");
      } else {
        for (std::size_t f = 0; f < sets.size(); ++f) {
          if (sets[f].empty()) {
            if (outcomes[f].delivered_bps != 0.0) {
              fail(out, record, "denied pair delivered traffic");
              break;
            }
            continue;
          }
          double sum = 0.0;
          bool positive = true;
          for (const auto& wp : sets[f]) {
            sum += wp.weight;
            positive = positive && wp.weight > 0.0;
          }
          if (!positive || std::abs(sum - 1.0) > 1e-9) {
            fail(out, record, "split weights not positive or not summing to 1");
            break;
          }
        }
      }
    }
    resolved.push_back(resolve ? 1 : 0);

    // Denied pairs report stretch 0 and must deliver nothing.
    std::size_t denied = 0;
    for (const auto& pair : outcomes) {
      if (pair.delivered_bps < 0.0 ||
          pair.delivered_bps > pair.offered_bps * (1.0 + 1e-9)) {
        fail(out, record, "delivered outside [0, offered]");
        break;
      }
      if (pair.delivered_bps > 0.0 && pair.stretch < 1.0 - 1e-9) {
        fail(out, record, "served pair with stretch below 1");
        break;
      }
      if (pair.stretch == 0.0) {
        ++denied;
        if (pair.delivered_bps != 0.0) {
          fail(out, record, "denied pair delivered traffic");
          break;
        }
      }
    }
    const auto expected_denied = static_cast<std::size_t>(std::llround(
        row.denied_fraction * static_cast<double>(outcomes.size())));
    if (denied != expected_denied) {
      fail(out, record, "denied pairs do not match the epoch's denials");
    }

    if (quality && i < quality_epochs) {
      for (const auto& pair : outcomes) {
        fold.delivered += pair.delivered_bps;
        fold.delivered_stretch += pair.delivered_bps * pair.stretch;
      }
      if (i + 1 == quality_epochs) {
        const auto summary = driver.summary();
        out.quality.design_stretch = setup->instance.topo.mean_stretch;
        out.quality.served_pct = 100.0 * summary.mean_served_fraction;
        out.quality.mean_stretch =
            fold.delivered > 0.0 ? fold.delivered_stretch / fold.delivered
                                 : 0.0;
        out.quality.avail_3nines_pct = 100.0 * summary.three_nines_fraction;
      }
    }
  };
  const auto stepper = [&](net::timeline::TimelineDriver& driver,
                           bool quality) {
    return [&, quality](std::size_t i, StepRecord& r) {
      timeline_step(driver, i, r, quality);
    };
  };

  if (!args.trace) {
    out.phase_s = closed_loop({args.seconds, quality_epochs, granule},
                              out.steps, out, stepper(*setup->driver, true));
    return out;
  }

  // Traced run. Reference phase: the set-up's driver, untraced.
  std::vector<StepRecord> ref;
  closed_loop({args.seconds * 0.3, quality_epochs, granule}, ref, out,
              stepper(*setup->driver, true));
  const std::size_t n = ref.size();

  // The same epochs traced, on a fresh driver at the full thread count.
  auto traced = setup->make_driver(args.threads);
  resolved.clear();
  lp_pairs_sum = 0.0;
  std::vector<StepRecord> traced_steps;
  start_tracing();
  closed_loop(Phase::exactly(n), traced_steps, out, stepper(*traced, false));
  stop_tracing();
  const RootBreakdown t4 = breakdown("timeline.step");
  const auto counter_per_epoch = [&](const char* name) {
    return per(static_cast<double>(counter_value(name)), t4.size());
  };
  const double rounds = counter_per_epoch("flow.max_min.rounds");
  const double touched = counter_per_epoch("control.repair.touched_pairs");
  const double changed = counter_per_epoch("control.repair.changed_pairs");
  const std::vector<char> traced_resolved = resolved;
  const double traced_lp_pairs = lp_pairs_sum;

  // One thread, traced, over a prefix of the same epochs.
  auto serial = setup->make_driver(1);
  std::vector<StepRecord> serial_steps;
  start_tracing();
  closed_loop({args.seconds * 0.2, granule, granule, n}, serial_steps, out,
              stepper(*serial, false));
  stop_tracing();
  const RootBreakdown t1 = breakdown("timeline.step");
  const std::size_t n1 = t1.size();

  const std::size_t nt = t4.size();
  const double step_total =
      std::accumulate(t4.total_ms.begin(), t4.total_ms.end(), 0.0);
  const double max_min = t4.child_sum("flow.max_min", nt);
  const double repair = t4.child_sum("control.repair", nt);
  const double split = t4.child_sum("te.split", nt);
  const double self =
      std::accumulate(t4.self_ms.begin(), t4.self_ms.end(), 0.0);
  auto& layer = out.layer_values;
  const auto pct = [](std::size_t part, std::size_t whole) {
    return 100.0 * per(static_cast<double>(part), whole);
  };
  layer["flow.max_min_ms"] = per(max_min, nt);
  layer["flow.max_min.rounds"] = rounds;
  layer["flow.warm_reuse_pct"] = pct(traced->summary().warm_reuses, nt);
  layer["control.repair_ms"] = per(repair, nt);
  layer["control.repair.touched_pairs"] = touched;
  layer["control.repair.changed_pairs"] = changed;
  layer["timeline.self_ms"] = per(self, nt);
  // Thread scaling over the epochs both traced phases ran.
  layer["flow.max_min_ms.t1"] = per(t1.child_sum("flow.max_min", n1), n1);
  layer["flow.max_min_ms.t4"] = per(t4.child_sum("flow.max_min", n1), n1);
  layer["control.repair_ms.t1"] = per(t1.child_sum("control.repair", n1), n1);
  layer["control.repair_ms.t4"] = per(t4.child_sum("control.repair", n1), n1);
  out.notes.push_back(
      "timeline.step " + fmt(per(step_total, nt)) + " ms/epoch over " +
      std::to_string(nt) + " epochs: flow.max_min " +
      fmt(100.0 * max_min / step_total, 1) + "%, control.repair " +
      fmt(100.0 * repair / step_total, 1) + "%, te.split " +
      fmt(100.0 * split / step_total, 1) + "%, timeline self " +
      fmt(100.0 * self / step_total, 1) + "%");

  if (te_mode) {
    std::vector<double> resolve_ms;
    const auto it = t4.child_ms.find("te.split");
    std::size_t resolves = 0;
    for (std::size_t k = 0; k < traced_resolved.size() && k < nt; ++k) {
      if (!traced_resolved[k]) continue;
      ++resolves;
      if (it != t4.child_ms.end()) resolve_ms.push_back(it->second[k]);
    }
    const auto& warm = traced->te_warm();
    layer["te.split_ms"] = per(split, nt);
    layer["te.resolve_ms_p50"] = median(resolve_ms);
    layer["te.solution_reuse_pct"] = pct(warm.solution_reuses, nt);
    // Candidates are looked up only when the solution cache misses.
    layer["te.candidate_reuse_pct"] = pct(warm.candidate_reuses, resolves);
    layer["te.lp_pairs"] = per(traced_lp_pairs, resolves);
    layer["te.lp_fallbacks"] = static_cast<double>(lp_fallbacks);

    // Candidate gather at 1 and at full threads: the sharded part of TE.
    net::TopologyView view = net::view_from_plan(setup->link_plan);
    const auto demands = setup->base.to_demands();
    for (const std::size_t threads : {std::size_t{1}, args.threads}) {
      double ms = 0.0;
      timed(ms, [&] {
        return net::te::generate_candidates(
                   view.view, demands, setup->direct_km(),
                   setup->options.te_split.candidates, threads)
            .pairs.size();
      });
      layer[threads == 1 ? "te.gather_ms.t1" : "te.gather_ms.t4"] = ms;
    }
  }

  layer["trace_overhead_pct"] =
      100.0 * (step_median(traced_steps) / step_median(ref) - 1.0);

  out.steps = std::move(ref);
  out.steps.insert(out.steps.end(), traced_steps.begin(), traced_steps.end());
  out.steps.insert(out.steps.end(), serial_steps.begin(), serial_steps.end());
  return out;
}

// ---------------------------------------------------------------------------
// packet_saturated
// ---------------------------------------------------------------------------

namespace {

/// Distinct source seeds cycled by the cells; the deterministic outputs
/// are folded over one cycle, and a repeated seed must repeat its cell.
constexpr std::size_t kPacketSeeds = 4;

struct PacketSetup {
  explicit PacketSetup(Instance built) : instance(std::move(built)) {}

  Instance instance;
  net::BuildOptions build;
  net::flow::DemandMatrix demands;
  std::unique_ptr<net::TrafficModel> model;
};

std::unique_ptr<PacketSetup> build_packet(const Args& args,
                                          SetupLayers& layers) {
  auto setup = std::make_unique<PacketSetup>(
      build_instance(args.threads, args.trace, layers));
  timed(layers.construct_ms, [&] {
    constexpr std::uint64_t kUsers = 100000;
    constexpr double kLoadPct = 250.0;
    setup->build.rate_scale = 0.05;
    const double offered_bps = kAggregateGbps * 1e9 * kLoadPct / 100.0;
    setup->demands = net::flow::DemandMatrix::from_users(
        setup->instance.traffic, kUsers,
        offered_bps / static_cast<double>(kUsers), setup->build.rate_scale);
    setup->model = net::make_traffic_model(
        net::TrafficBackend::Packet, setup->instance.problem.input,
        setup->instance.plan, setup->build);
  });
  return setup;
}

}  // namespace

RunResult run_packet(const Args& args) {
  RunResult out;
  auto setup = repeated_setup<PacketSetup>(args, out, [&](SetupLayers& l) {
    return build_packet(args, l);
  });

  std::vector<std::optional<net::TrafficStats>> first(kPacketSeeds);
  std::vector<std::size_t> available(setup->demands.flow_count(), 0);
  double served_sum = 0.0;
  double delivered = 0.0;
  double delivered_stretch = 0.0;

  const auto cell = [&](std::size_t threads) {
    return [&, threads](std::size_t i, StepRecord& record) {
      record.kind = "packet_cell";
      const std::size_t c = i % kPacketSeeds;
      net::TrafficRunOptions run;
      run.sim_duration_s = 0.5;
      run.seed = hash_combine(args.seed, c);
      run.threads = threads;
      const net::TrafficReport report = setup->model->run(setup->demands, run);

      for (const auto& pair : report.pairs) {
        if (pair.delivered_bps < 0.0 ||
            pair.delivered_bps > pair.offered_bps * (1.0 + 1e-9)) {
          fail(out, record, "delivered outside [0, offered]");
          break;
        }
        if (pair.delivered_bps > 0.0 && pair.stretch < 1.0 - 1e-9) {
          fail(out, record, "served pair with stretch below 1");
          break;
        }
        // Denied pairs report stretch 0 and must deliver nothing.
        if (pair.stretch == 0.0 && pair.delivered_bps != 0.0) {
          fail(out, record, "denied pair delivered traffic");
          break;
        }
      }
      const net::TrafficStats& stats = report.stats;
      if (first[c]) {
        if (stats.delivered_bps != first[c]->delivered_bps ||
            stats.mean_stretch != first[c]->mean_stretch) {
          fail(out, record, "repeated source seed gave a different cell");
        }
        return;
      }
      first[c] = stats;
      served_sum += stats.offered_bps > 0.0
                        ? stats.delivered_bps / stats.offered_bps
                        : 1.0;
      for (std::size_t f = 0; f < report.pairs.size(); ++f) {
        const auto& pair = report.pairs[f];
        delivered += pair.delivered_bps;
        delivered_stretch += pair.delivered_bps * pair.stretch;
        if (pair.offered_bps <= 0.0 ||
            pair.delivered_bps >= 0.99 * pair.offered_bps) {
          ++available[f];
        }
      }
    };
  };
  const auto fill_quality = [&] {
    out.quality.design_stretch = setup->instance.topo.mean_stretch;
    out.quality.served_pct =
        100.0 * served_sum / static_cast<double>(kPacketSeeds);
    out.quality.mean_stretch = delivered > 0.0 ? delivered_stretch / delivered
                                               : 0.0;
    // With fewer than 1000 cells, three nines means every cell.
    std::size_t all = 0;
    for (const std::size_t a : available) all += a == kPacketSeeds ? 1 : 0;
    out.quality.avail_3nines_pct =
        100.0 * per(static_cast<double>(all), available.size());
  };

  if (!args.trace) {
    out.phase_s = closed_loop({args.seconds, kPacketSeeds}, out.steps, out,
                              cell(args.threads));
    fill_quality();
    return out;
  }

  std::vector<StepRecord> ref;
  closed_loop({args.seconds * 0.3, kPacketSeeds}, ref, out,
              cell(args.threads));
  fill_quality();
  const std::size_t n = ref.size();

  std::vector<StepRecord> traced_steps;
  start_tracing();
  closed_loop(Phase::exactly(n), traced_steps, out, cell(args.threads));
  stop_tracing();
  const RootBreakdown t4 = breakdown("traffic.packet");
  const double events =
      per(static_cast<double>(counter_prefix_sum("sim.events.")), t4.size());
  const double depth = histogram_mean("sim.queue_depth");

  std::vector<StepRecord> serial_steps;
  start_tracing();
  closed_loop({args.seconds * 0.25, 1, 1, n}, serial_steps, out, cell(1));
  stop_tracing();
  const RootBreakdown t1 = breakdown("traffic.packet");
  const std::size_t n1 = t1.size();

  const std::size_t nt = t4.size();
  const double run_ms =
      per(std::accumulate(t4.total_ms.begin(), t4.total_ms.end(), 0.0), nt);
  const auto prefix_ms = [](const RootBreakdown& b, std::size_t k) {
    return per(std::accumulate(b.total_ms.begin(),
                               b.total_ms.begin() +
                                   static_cast<long>(std::min(k, b.size())),
                               0.0),
               std::min(k, b.size()));
  };
  auto& layer = out.layer_values;
  layer["sim.run_ms"] = run_ms;
  layer["sim.events"] = events;
  layer["sim.ns_per_event"] = events > 0.0 ? run_ms * 1e6 / events : 0.0;
  layer["sim.queue_depth_mean"] = depth;
  layer["sim.run_ms.t1"] = prefix_ms(t1, n1);
  layer["sim.run_ms.t4"] = prefix_ms(t4, n1);

  layer["trace_overhead_pct"] =
      100.0 * (step_median(traced_steps) / step_median(ref) - 1.0);
  double traced_wall_ms = 0.0;
  for (const StepRecord& s : traced_steps) traced_wall_ms += s.wall_ms;
  out.notes.push_back("traffic.packet " + fmt(run_ms) + " ms/cell = " +
                      fmt(100.0 * run_ms * static_cast<double>(nt) /
                              traced_wall_ms,
                          1) +
                      "% of the traced cells' wall time");

  out.steps = std::move(ref);
  out.steps.insert(out.steps.end(), traced_steps.begin(), traced_steps.end());
  out.steps.insert(out.steps.end(), serial_steps.begin(), serial_steps.end());
  return out;
}

}  // namespace perfbench
