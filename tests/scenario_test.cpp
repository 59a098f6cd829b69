// Tests for the demand-scenario generators and failure models: regional
// skew (total preservation, proportional reshaping), diurnal phase
// (timezone offsets, activity bounds, peak alignment), traffic-mix blends
// (the design::mixed_problem convention), LinkPlan failure application
// (deterministic cuts, seeded draws), and the scenario -> traffic-model
// seam end to end (a cut MW link raises stretch on both fluid backends).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "net/builder.hpp"
#include "net/scenario/demand_scenario.hpp"
#include "net/scenario/failure_model.hpp"
#include "net/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

flow::DemandMatrix square_matrix() {
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  return flow::DemandMatrix::from_traffic(traffic, 10.0, 1.0);
}

// ---------------------------------------------------------------------------
// Regional skew
// ---------------------------------------------------------------------------

TEST(RegionalSkew, PreservesTotalAndReshapes) {
  const auto base = square_matrix();
  scenario::RegionalSkew skew;
  skew.site_weight = {2.0, 1.0, 1.0, 1.0};
  const auto skewed = scenario::apply_regional_skew(base, skew);
  EXPECT_NEAR(skewed.total_rate_bps(), base.total_rate_bps(), 1.0);
  EXPECT_EQ(skewed.flow_count(), base.flow_count());
  EXPECT_EQ(skewed.total_users(), base.total_users());
  // Pairs touching site 0 gained share; pairs avoiding it lost share.
  for (std::size_t f = 0; f < base.pairs().size(); ++f) {
    const auto& was = base.pairs()[f];
    const auto& now = skewed.pairs()[f];
    ASSERT_EQ(was.src, now.src);
    ASSERT_EQ(was.dst, now.dst);
    if (was.src == 0 || was.dst == 0) {
      EXPECT_GT(now.rate_bps, was.rate_bps);
    } else {
      EXPECT_LT(now.rate_bps, was.rate_bps);
    }
  }
}

TEST(RegionalSkew, ZeroWeightSilencesAMetroAndRawScalesWithoutRenorm) {
  const auto base = square_matrix();
  scenario::RegionalSkew skew;
  skew.site_weight = {0.0, 1.0, 1.0, 1.0};
  skew.preserve_total = false;
  const auto skewed = scenario::apply_regional_skew(base, skew);
  // 6 of the 12 ordered pairs touch site 0 and are dropped.
  EXPECT_EQ(skewed.flow_count(), 6u);
  for (const auto& pair : skewed.pairs()) {
    EXPECT_NE(pair.src, 0u);
    EXPECT_NE(pair.dst, 0u);
  }
  // Without renormalization the surviving pairs keep their base rates.
  EXPECT_NEAR(skewed.total_rate_bps(), base.total_rate_bps() / 2.0, 1.0);
}

TEST(RegionalSkew, PopulationWeightsFollowGamma) {
  const std::vector<std::uint64_t> pops = {8000000, 4000000, 1000000};
  const auto uniform = scenario::population_skew_weights(pops, 0.0);
  for (const double w : uniform) EXPECT_DOUBLE_EQ(w, 1.0);
  const auto skewed = scenario::population_skew_weights(pops, 1.0);
  EXPECT_GT(skewed[0], skewed[1]);
  EXPECT_GT(skewed[1], skewed[2]);
  const auto inverted = scenario::population_skew_weights(pops, -1.0);
  EXPECT_LT(inverted[0], inverted[1]);
}

// ---------------------------------------------------------------------------
// Diurnal phase
// ---------------------------------------------------------------------------

TEST(Diurnal, TimezoneOffsetsComeFromLongitude) {
  const std::vector<geo::LatLon> sites = {
      {40.7, -75.0}, {34.0, -120.0}, {50.0, 15.0}};
  const auto offsets = scenario::timezone_offsets(sites);
  EXPECT_DOUBLE_EQ(offsets[0], -5.0);
  EXPECT_DOUBLE_EQ(offsets[1], -8.0);
  EXPECT_DOUBLE_EQ(offsets[2], 1.0);
}

TEST(Diurnal, ActivityPeaksAtLocalPeakHourAndStaysBounded) {
  scenario::DiurnalProfile profile;
  profile.tz_offset_hours = {-5.0, -8.0};
  profile.peak_local_hour = 20.0;
  profile.amplitude = 0.6;
  // Peak: local 20:00 = UTC 01:00 for the east site, UTC 04:00 west.
  EXPECT_NEAR(scenario::diurnal_activity(profile, 0, 1.0), 1.6, 1e-12);
  EXPECT_NEAR(scenario::diurnal_activity(profile, 1, 4.0), 1.6, 1e-12);
  // Trough 12 hours later.
  EXPECT_NEAR(scenario::diurnal_activity(profile, 0, 13.0), 0.4, 1e-12);
  // The same UTC instant hits the two coasts at different phases.
  EXPECT_GT(scenario::diurnal_activity(profile, 0, 1.0),
            scenario::diurnal_activity(profile, 1, 1.0));
  // The floor clamps an over-amplified trough.
  profile.amplitude = 1.5;
  profile.floor_activity = 0.1;
  EXPECT_DOUBLE_EQ(scenario::diurnal_activity(profile, 0, 13.0), 0.1);
}

TEST(Diurnal, AppliedMatrixScalesWithinActivityBounds) {
  const auto base = square_matrix();
  scenario::DiurnalProfile profile;
  profile.tz_offset_hours = {-5.0, -6.0, -7.0, -8.0};
  const auto at_peak = scenario::apply_diurnal(base, profile, 1.5);
  ASSERT_EQ(at_peak.flow_count(), base.flow_count());
  for (std::size_t f = 0; f < base.pairs().size(); ++f) {
    const double factor =
        at_peak.pairs()[f].rate_bps / base.pairs()[f].rate_bps;
    EXPECT_GE(factor, profile.floor_activity - 1e-12);
    EXPECT_LE(factor, 1.0 + profile.amplitude + 1e-12);
    EXPECT_EQ(at_peak.pairs()[f].users, base.pairs()[f].users);
  }
  // Around the continental peak the total offer exceeds the mean; at the
  // opposite phase it falls below.
  EXPECT_GT(at_peak.total_rate_bps(), base.total_rate_bps());
  const auto at_trough = scenario::apply_diurnal(base, profile, 13.5);
  EXPECT_LT(at_trough.total_rate_bps(), base.total_rate_bps());
}

TEST(Diurnal, WrapsHoursFromTheFullRealLine) {
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(0.0), 0.0);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(23.75), 23.75);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(24.0), 0.0);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(25.0), 1.0);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(48.25), 0.25);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(-1.0), 23.0);
  EXPECT_DOUBLE_EQ(scenario::wrap_utc_hour(-23.5), 0.5);
  EXPECT_THROW((void)scenario::wrap_utc_hour(
                   std::numeric_limits<double>::infinity()),
               cisp::Error);
}

TEST(Diurnal, ActivityIsPeriodicAcrossDayBoundaries) {
  scenario::DiurnalProfile profile;
  profile.tz_offset_hours = {-5.0, -8.0, 1.0};
  // Streaming timelines feed monotonically increasing hours: epoch 25 is
  // day 2, 01:00, and must see exactly the day-1 activity. Pinned as
  // byte-identity (fmod is exact for these inputs), not approximate
  // equality — the pre-fix code fed the raw hour into cos(), whose
  // argument reduction drifts day over day.
  for (const std::size_t site : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}}) {
    for (const double hour : {0.0, 1.0, 4.5, 13.0, 19.75, 23.5}) {
      EXPECT_EQ(scenario::diurnal_activity(profile, site, hour),
                scenario::diurnal_activity(profile, site, hour + 24.0))
          << "site " << site << " hour " << hour;
      EXPECT_EQ(scenario::diurnal_activity(profile, site, hour),
                scenario::diurnal_activity(profile, site, hour + 8760.0))
          << "site " << site << " hour " << hour;
      EXPECT_EQ(scenario::diurnal_activity(profile, site, hour),
                scenario::diurnal_activity(profile, site, hour - 24.0))
          << "site " << site << " hour " << hour;
    }
  }
}

TEST(Diurnal, InPlaceRewriteIsByteIdenticalToApplyDiurnal) {
  const auto base = square_matrix();
  scenario::DiurnalProfile profile;
  profile.tz_offset_hours = {-5.0, -6.0, -7.0, -8.0};
  for (const double hour : {1.5, 13.5, 30.0}) {
    const auto cell = scenario::apply_diurnal(base, profile, hour);
    flow::DemandMatrix streamed = base;
    scenario::apply_diurnal_in_place(base, profile, hour, 1.0, streamed);
    ASSERT_EQ(streamed.flow_count(), cell.flow_count());
    for (std::size_t f = 0; f < cell.pairs().size(); ++f) {
      EXPECT_EQ(streamed.pairs()[f].rate_bps, cell.pairs()[f].rate_bps);
      EXPECT_EQ(streamed.pairs()[f].users, cell.pairs()[f].users);
    }
    EXPECT_EQ(streamed.total_rate_bps(), cell.total_rate_bps());

    // With a growth scale the streamed path must equal the independent
    // cell's copy-then-scale, in the same multiplication order.
    auto scaled_cell = cell;
    scaled_cell.scale_rates(1.25);
    scenario::apply_diurnal_in_place(base, profile, hour, 1.25, streamed);
    for (std::size_t f = 0; f < scaled_cell.pairs().size(); ++f) {
      EXPECT_EQ(streamed.pairs()[f].rate_bps,
                scaled_cell.pairs()[f].rate_bps);
    }
  }
  // Mismatched pair sequences are rejected, not silently misapplied.
  flow::DemandMatrix wrong = flow::DemandMatrix::from_pairs({{0, 1, 1, 1e9}});
  EXPECT_THROW(
      scenario::apply_diurnal_in_place(base, profile, 1.5, 1.0, wrong),
      cisp::Error);
}

TEST(Diurnal, DemandMatrixInPlaceUpdatesKeepStructure) {
  auto matrix = square_matrix();
  const auto base = matrix;
  matrix.scale_rates(0.5);
  EXPECT_EQ(matrix.flow_count(), base.flow_count());
  EXPECT_EQ(matrix.total_users(), base.total_users());
  EXPECT_DOUBLE_EQ(matrix.total_rate_bps(), base.total_rate_bps() * 0.5);
  // Zero is a legal in-place rate (the pair stays, unlike from_pairs which
  // drops zero-rate pairs at construction).
  matrix.scale_rates(0.0);
  EXPECT_EQ(matrix.flow_count(), base.flow_count());
  EXPECT_DOUBLE_EQ(matrix.total_rate_bps(), 0.0);
  // Negative and non-finite rates are rejected.
  EXPECT_THROW(matrix.scale_rates(-1.0), cisp::Error);
  EXPECT_THROW(matrix.update_rates([](std::size_t, const flow::PairDemand&) {
    return -5.0;
  }),
               cisp::Error);
}

// ---------------------------------------------------------------------------
// Traffic-mix blends
// ---------------------------------------------------------------------------

TEST(Blend, FollowsTheMixedProblemConvention) {
  // Two 2x2 classes with distinct shapes: blending 3:1 gives each class
  // its aggregate share (after per-class sum normalization), then the
  // largest entry is scaled to 1.
  const std::vector<std::vector<double>> a = {{0.0, 2.0}, {0.0, 0.0}};
  const std::vector<std::vector<double>> b = {{0.0, 0.0}, {4.0, 0.0}};
  const auto blended = scenario::blend_traffic({a, b}, {3.0, 1.0});
  // Class shares 3/4 and 1/4 -> entries 0.75 and 0.25 before max-norm.
  EXPECT_DOUBLE_EQ(blended[0][1], 1.0);
  EXPECT_NEAR(blended[1][0], 0.25 / 0.75, 1e-12);
}

TEST(Blend, RejectsBadShapesAndAllZero) {
  const std::vector<std::vector<double>> a = {{0.0, 1.0}, {1.0, 0.0}};
  const std::vector<std::vector<double>> ragged = {{0.0, 1.0}};
  EXPECT_THROW((void)scenario::blend_traffic({a, ragged}, {1.0, 1.0}),
               cisp::Error);
  EXPECT_THROW((void)scenario::blend_traffic({a}, {1.0, 2.0}), cisp::Error);
  EXPECT_THROW((void)scenario::blend_traffic({a}, {0.0}), cisp::Error);
}

// ---------------------------------------------------------------------------
// Failure models
// ---------------------------------------------------------------------------

LinkPlan toy_plan() {
  LinkPlan plan;
  plan.node_count = 4;
  // Three MW links with distinct capacities + two fiber links.
  plan.links.push_back({0, 1, 3e9, 0.001, 100, true});
  plan.links.push_back({1, 2, 9e9, 0.001, 100, true});
  plan.links.push_back({2, 3, 6e9, 0.001, 100, true});
  plan.links.push_back({0, 2, 400e9, 0.002, 1000, false});
  plan.links.push_back({1, 3, 400e9, 0.002, 1000, false});
  return plan;
}

TEST(FailureModel, NoneIsIdentity) {
  const auto plan = toy_plan();
  const auto outcome = scenario::apply_failures(plan, {});
  EXPECT_TRUE(outcome.failed_links.empty());
  EXPECT_EQ(outcome.plan.links.size(), plan.links.size());
}

TEST(FailureModel, CutLargestKDropsTheBiggestTrunksOnly) {
  const auto plan = toy_plan();
  scenario::FailureModel model;
  model.kind = scenario::FailureModel::Kind::CutLargestK;
  model.k = 2;
  const auto outcome = scenario::apply_failures(plan, model);
  // Links 1 (9 Gbps) and 2 (6 Gbps) fail; fiber and the 3 Gbps MW stay.
  EXPECT_EQ(outcome.failed_links, (std::vector<std::size_t>{1, 2}));
  ASSERT_EQ(outcome.plan.links.size(), 3u);
  EXPECT_TRUE(outcome.plan.links[0].is_mw);
  EXPECT_DOUBLE_EQ(outcome.plan.links[0].rate_bps, 3e9);
  EXPECT_FALSE(outcome.plan.links[1].is_mw);
  EXPECT_FALSE(outcome.plan.links[2].is_mw);
  // k beyond the MW count clamps: fiber NEVER fails.
  model.k = 99;
  const auto all_mw = scenario::apply_failures(plan, model);
  EXPECT_EQ(all_mw.failed_links.size(), 3u);
  EXPECT_EQ(all_mw.plan.links.size(), 2u);
}

TEST(FailureModel, RandomDrawsAreSeededAndMwOnly) {
  const auto plan = toy_plan();
  scenario::FailureModel model;
  model.kind = scenario::FailureModel::Kind::RandomDown;
  model.down_probability = 0.5;
  model.seed = 7;
  const auto a = scenario::apply_failures(plan, model);
  const auto b = scenario::apply_failures(plan, model);
  EXPECT_EQ(a.failed_links, b.failed_links);  // same seed, same draw
  for (const std::size_t idx : a.failed_links) {
    EXPECT_TRUE(plan.links[idx].is_mw);
  }
  model.down_probability = 1.0;
  const auto all = scenario::apply_failures(plan, model);
  EXPECT_EQ(all.failed_links.size(), 3u);
  model.down_probability = 0.0;
  const auto none = scenario::apply_failures(plan, model);
  EXPECT_TRUE(none.failed_links.empty());
}

TEST(FailureModel, RandomDrawConsumptionContractIsPinned) {
  // The header's determinism contract, pinned by an in-test reference
  // reimplementation: one Bernoulli draw per MW link in plan order from a
  // single Rng(seed); fiber consumes NO draws. Rng is xoshiro256** on
  // integers, so this holds across platforms and thread counts.
  const auto plan = toy_plan();
  scenario::FailureModel model;
  model.kind = scenario::FailureModel::Kind::RandomDown;
  model.down_probability = 0.4;
  model.seed = 123;
  const auto outcome = scenario::apply_failures(plan, model);
  Rng rng(123);
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    if (!plan.links[i].is_mw) continue;
    if (rng.chance(0.4)) expected.push_back(i);
  }
  EXPECT_EQ(outcome.failed_links, expected);
}

TEST(FailureModel, PerLinkProbabilitiesOverrideTheScalar) {
  const auto plan = toy_plan();
  scenario::FailureModel model;
  model.kind = scenario::FailureModel::Kind::RandomDown;
  model.seed = 55;

  // All-zero: nothing fails, whatever the scalar says.
  model.down_probability = 1.0;
  model.per_link_down_probability.assign(plan.links.size(), 0.0);
  EXPECT_TRUE(scenario::apply_failures(plan, model).failed_links.empty());

  // Certain failure on MW link 1 only; a 1.0 on FIBER entries is ignored
  // (the MW-only invariant) and consumes no draw.
  model.per_link_down_probability = {0.0, 1.0, 0.0, 1.0, 1.0};
  const auto one = scenario::apply_failures(plan, model);
  EXPECT_EQ(one.failed_links, (std::vector<std::size_t>{1}));

  // A uniform per-link vector must reproduce the scalar draw exactly —
  // identical consumption order is part of the contract.
  model.down_probability = 0.5;
  model.per_link_down_probability.clear();
  const auto scalar = scenario::apply_failures(plan, model);
  model.per_link_down_probability.assign(plan.links.size(), 0.5);
  const auto vectored = scenario::apply_failures(plan, model);
  EXPECT_EQ(scalar.failed_links, vectored.failed_links);

  // Size mismatches and out-of-range probabilities throw.
  model.per_link_down_probability = {0.5, 0.5};
  EXPECT_THROW((void)scenario::apply_failures(plan, model), cisp::Error);
  model.per_link_down_probability.assign(plan.links.size(), 1.5);
  EXPECT_THROW((void)scenario::apply_failures(plan, model), cisp::Error);
}

TEST(FailureModel, ParsesKinds) {
  EXPECT_EQ(scenario::parse_failure_kind("none"),
            scenario::FailureModel::Kind::None);
  EXPECT_EQ(scenario::parse_failure_kind("cut"),
            scenario::FailureModel::Kind::CutLargestK);
  EXPECT_EQ(scenario::parse_failure_kind("rand"),
            scenario::FailureModel::Kind::RandomDown);
  EXPECT_THROW((void)scenario::parse_failure_kind("meteor"), cisp::Error);
}

// ---------------------------------------------------------------------------
// Scenario -> traffic-model seam, end to end
// ---------------------------------------------------------------------------

/// The flow_test 4-node square with one MW diagonal.
design::DesignInput square_input() {
  const double side = 500.0;
  const double diag = side * std::sqrt(2.0);
  std::vector<std::vector<double>> geod = {
      {0, side, diag, side},
      {side, 0, side, diag},
      {diag, side, 0, side},
      {side, diag, side, 0}};
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 2, diag * 1.05, 10.0}};
  return design::DesignInput(geod, fiber, traffic, cands, 10.0);
}

design::CapacityPlan square_plan() {
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  return plan;
}

TEST(ScenarioSeam, CuttingTheMwDiagonalRaisesStretchOnFluidBackends) {
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 1.0, 0.1);

  const LinkPlan base_plan = plan_links(input, plan, {});
  scenario::FailureModel model;
  model.kind = scenario::FailureModel::Kind::CutLargestK;
  model.k = 1;
  const auto outcome = scenario::apply_failures(base_plan, model);
  ASSERT_EQ(outcome.failed_links.size(), 1u);

  for (const auto backend :
       {TrafficBackend::Flow, TrafficBackend::Elastic}) {
    const auto model_ptr = make_traffic_model(backend, input, plan);
    TrafficRunOptions options;
    const auto intact = model_ptr->run(demands, options);
    options.plan = outcome.plan;
    const auto degraded = model_ptr->run(demands, options);
    // The 0<->2 pairs lose the straight MW shot and detour over fiber.
    EXPECT_GT(degraded.stats.mean_stretch, intact.stats.mean_stretch)
        << to_string(backend);
    // Fiber-only pairs already sit at the fiber stretch (1.9): cutting the
    // diagonal can only raise the max, never lower it.
    EXPECT_GE(degraded.stats.max_stretch, intact.stats.max_stretch);
    // Nothing is lost below saturation: fiber absorbs the demand.
    EXPECT_NEAR(degraded.stats.delivered_bps, degraded.stats.offered_bps,
                1.0);
  }
}

TEST(ScenarioSeam, ElasticBackendServesUncongestedDemandLikeFlow) {
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_users(traffic, 100000, 3000.0);

  TrafficRunOptions options;
  const auto flow_report =
      make_traffic_model(TrafficBackend::Flow, input, plan)
          ->run(demands, options);
  const auto elastic_report =
      make_traffic_model(TrafficBackend::Elastic, input, plan)
          ->run(demands, options);
  EXPECT_EQ(elastic_report.stats.backend, TrafficBackend::Elastic);
  EXPECT_EQ(elastic_report.stats.users, 100000u);
  // Same routes, both uncongested: identical latency and full delivery.
  EXPECT_NEAR(elastic_report.stats.mean_delay_s,
              flow_report.stats.mean_delay_s, 1e-9);
  EXPECT_NEAR(elastic_report.stats.delivered_bps,
              elastic_report.stats.offered_bps, 1.0);
}

}  // namespace
}  // namespace cisp::net
