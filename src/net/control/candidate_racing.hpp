#pragma once
// Happy-eyeballs candidate racing — the per-flow half of the multipath
// story (the TE optimizer in net/te/ is the per-aggregate half). Under
// degradation, every demand pair RACES two connection candidates, exactly
// like a dual-stack client racing address families:
//
//   * the MW candidate — the pair's current repaired route
//     (control::RouteRepairer), lowest latency but weather-exposed; its
//     handshake attempt succeeds with the worst degraded MW hop's
//     capacity factor (the weakest link carries the handshake) and
//     retries on a timer;
//   * the fiber candidate — the pair's shortest path over the fiber-only
//     subgraph of the intact plan, always up (the paper's backstop), but
//     started after a stagger handicap so a healthy MW path always wins
//     (the happy-eyeballs IPv6 preference, with MW in the preferred
//     role).
//
// The earliest completed handshake wins and its path is kept for the
// pair; ties prefer MW. A pair whose repaired route was DENIED races
// fiber alone — racing therefore recovers availability the stretch-bound
// denial gave up, at fiber latency. If every attempt of both candidates
// fails (a fully severed MW route and no fiber path — impossible on
// plans with the fiber connectivity chain), the pair stays denied.
//
// Determinism contract (pinned in te_test): each pair draws from its own
// Rng seeded hash_combine(seed, pair index), so a pair's outcome depends
// on its own inputs only. Healthy pairs consume exactly one always-success
// draw, so a degraded pair never perturbs its neighbors. race() is one
// serial loop; parallelism belongs to the sweep across failure draws.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/builder.hpp"
#include "net/control/route_repair.hpp"

namespace cisp::net::control {

struct RacingOptions {
  /// Head start of the MW candidate: fiber's first attempt launches this
  /// much later (s). 0 races them simultaneously.
  double stagger_s = 0.005;
  /// Retry timer after a failed handshake attempt (s).
  double retry_s = 0.05;
  /// Handshake attempts per candidate before it abandons the race.
  std::size_t max_attempts = 3;
  std::uint64_t seed = 0;
};

enum class RaceWinner : std::uint8_t { Microwave, Fiber, None };

[[nodiscard]] const char* to_string(RaceWinner winner);

/// One pair's race result.
struct RaceOutcome {
  RaceWinner winner = RaceWinner::None;
  /// The winning path, graph-edge-pinned over the intact-plan view;
  /// empty when the race failed (pair stays denied).
  graphs::Path path;
  /// Completion time of the winning handshake, s.
  double decision_s = 0.0;
  /// Handshake attempts each candidate consumed (0 = did not race).
  std::uint32_t mw_attempts = 0;
  std::uint32_t fiber_attempts = 0;
};

struct RacingReport {
  std::vector<RaceOutcome> outcomes;  ///< demand order
  std::size_t mw_winners = 0;
  std::size_t fiber_winners = 0;
  std::size_t failed_pairs = 0;
  /// Pairs racing fiber because their repaired route was denied.
  std::size_t recovered_pairs = 0;

  /// Winner paths, empty = denied (net::single_path_routes turns them
  /// into TrafficRunOptions::routes).
  [[nodiscard]] std::vector<graphs::Path> traffic_paths() const;
};

/// Races candidates for a fixed demand set over one plan. Construction
/// precomputes the per-pair fiber fallback paths (one Dijkstra per
/// distinct source over the fiber-only subgraph); race() is then cheap
/// enough to run per failure draw. The racer keeps no reference to
/// `plan`.
class CandidateRacer {
 public:
  CandidateRacer(const LinkPlan& plan, std::vector<TrafficDemand> demands,
                 RacingOptions options);

  /// Races every pair: `routes` are the repaired per-pair routes
  /// (RouteRepairer::routes()) and `state` the cumulative link state
  /// (RouteRepairer::link_state()) the MW attempt probabilities read.
  [[nodiscard]] RacingReport race(const std::vector<PairRoute>& routes,
                                  const std::vector<LinkState>& state) const;

  /// The intact-plan view candidate paths index into (shared layout with
  /// RouteRepairer::view() for the same plan).
  [[nodiscard]] const SimTopologyView& view() const { return topo_.view; }
  /// Per-pair fiber fallback paths (may be empty on fiber-less plans).
  [[nodiscard]] const std::vector<graphs::Path>& fiber_paths() const {
    return fiber_paths_;
  }

 private:
  [[nodiscard]] RaceOutcome race_pair(std::size_t pair,
                                      const std::vector<PairRoute>& routes,
                                      const std::vector<LinkState>& state)
      const;

  std::size_t link_count_;  ///< plan links; race() checks `state` against it
  TopologyView topo_;
  std::vector<TrafficDemand> demands_;
  RacingOptions options_;
  /// Per graph edge: the plan link it realizes is MW.
  std::vector<char> edge_is_mw_;
  std::vector<graphs::Path> fiber_paths_;   ///< per demand, pinned
  std::vector<double> fiber_latency_s_;     ///< per demand (0 if no path)
};

}  // namespace cisp::net::control
