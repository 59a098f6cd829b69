// packet_fidelity: the packet-DES-vs-fluid cross-check at scale. One
// designed US instance carries the same user-apportioned demand matrix
// through both the packet backend (calendar-queue DES, one CBR source per
// aggregated pair) and the flow backend (max-min fluid allocation), and
// the report diffs the two below saturation.
//
// Contract (enforced, not just reported): with the offered load held
// below the congestion knee, the packet backend's mean one-way delay
// must stay within 5% + 0.5 ms of the fluid prediction, and neither
// backend may report loss. This is the CI smoke for the DES overhaul —
// 10^5 users by default, --fast keeps the substrate coarse enough for a
// PR gate.

#include <cmath>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto users = static_cast<std::uint64_t>(
      ctx.params.integer("users", 100000));
  const double per_user_kbps = ctx.params.real("per_user_kbps", 50.0);
  const double load_pct = ctx.params.real("load", 40.0);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 30, 20)));
  CISP_REQUIRE(users >= 1000, "users must be at least 1000");

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  // The same rate_scale thins packet emission AND link capacities for
  // both backends, so utilization — hence the fluid prediction — is
  // unchanged while the DES stays tractable.
  net::BuildOptions build;
  build.rate_scale = bench::pick(ctx, 0.05, 0.02);
  const double load_cap_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
  const double offered_bps = std::min(
      static_cast<double>(users) * per_user_kbps * 1e3, load_cap_bps);
  const double per_user_bps =
      offered_bps / static_cast<double>(users) * build.rate_scale;
  const auto demands = net::flow::DemandMatrix::from_users(
      instance.traffic, users, per_user_bps);

  net::TrafficRunOptions run_options;
  run_options.sim_duration_s = bench::pick(ctx, 0.2, 0.1);
  run_options.seed = 33;

  const auto evaluate = [&](net::TrafficBackend backend) {
    const auto model = net::make_traffic_model(backend, instance.problem.input,
                                               instance.plan, build);
    return model->run(demands, run_options);
  };
  const net::TrafficReport packet = evaluate(net::TrafficBackend::Packet);
  const net::TrafficReport flow = evaluate(net::TrafficBackend::Flow);

  engine::ResultSet results;
  results.note("fidelity: packet vs flow, users=" + std::to_string(users) +
               " offered=" + fmt(offered_bps / 1e9, 1) + "Gbps (" +
               fmt(offered_bps / (kAggregateGbps * 1e9) * 100.0, 1) +
               "% of capacity, cap " + fmt(load_pct, 0) + "%)");

  auto& table = results.add_table(
      "packet_fidelity",
      "Packet-DES vs fluid backend on one demand matrix below saturation",
      {"backend", "users", "flows", "mean_delay_ms", "served_%", "loss_%",
       "max_util"});
  const auto backend_row = [&](const net::TrafficReport& report) {
    const net::TrafficStats& stats = report.stats;
    const double served =
        stats.offered_bps > 0.0
            ? stats.delivered_bps / stats.offered_bps * 100.0
            : 0.0;
    table.row({net::to_string(stats.backend),
               static_cast<std::int64_t>(stats.users),
               static_cast<std::int64_t>(stats.flows),
               engine::Value::real(stats.mean_delay_s * 1000.0, 3),
               engine::Value::real(served, 2),
               engine::Value::real(stats.loss_rate * 100.0, 3),
               engine::Value::real(
                   stats.backend == net::TrafficBackend::Packet
                       ? stats.predicted_max_utilization
                       : stats.max_link_utilization,
                   2)});
  };
  backend_row(packet);
  backend_row(flow);

  // The contract itself: |packet - flow| <= 5% of flow + 0.5 ms.
  const double packet_ms = packet.stats.mean_delay_s * 1000.0;
  const double flow_ms = flow.stats.mean_delay_s * 1000.0;
  const double diff_ms = std::abs(packet_ms - flow_ms);
  const double allowed_ms = 0.05 * flow_ms + 0.5;
  auto& contract = results.add_table(
      "packet_fidelity_contract",
      "Fidelity contract: packet delay within 5% + 0.5 ms of fluid",
      {"packet_ms", "flow_ms", "diff_ms", "allowed_ms", "within"});
  contract.row({engine::Value::real(packet_ms, 3),
                engine::Value::real(flow_ms, 3),
                engine::Value::real(diff_ms, 3),
                engine::Value::real(allowed_ms, 3),
                diff_ms <= allowed_ms ? "yes" : "NO"});
  CISP_REQUIRE(diff_ms <= allowed_ms,
               "packet fidelity contract violated: |" + fmt(packet_ms, 3) +
                   " - " + fmt(flow_ms, 3) + "| ms exceeds " +
                   fmt(allowed_ms, 3) + " ms");
  CISP_REQUIRE(packet.stats.loss_rate < 0.005,
               "packet backend reports loss below the congestion knee");
  results.note(
      "Expected shape: both backends report propagation-dominated delay "
      "(the\nfluid mean is the rate-weighted path latency; the DES adds "
      "queueing at\n" + fmt(load_pct, 0) +
      "% load), zero loss, and a diff well inside 5% + 0.5 ms.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "packet_fidelity",
     .description =
         "Packet-DES vs fluid fidelity diff at 10^5 users (5% + 0.5 ms)",
     .tags = {"bench", "simulation", "fidelity", "scale"},
     .params = {{"users", "100000", "endpoint count apportioned over pairs"},
                {"per_user_kbps", "50",
                 "per-user offered rate; aggregate capped at `load` % of "
                 "provisioned capacity"},
                {"load", "40", "offered load, % of provisioned capacity "
                               "(keep below the congestion knee)"},
                {"centers", "30 (20 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"}}},
    run};

}  // namespace
