#pragma once
// The TE split optimizer — turns a candidate pool (candidates.hpp) into
// deterministic per-pair path weights that minimize the worst link
// utilization at offered load, subject to the pool's stretch bound (§5's
// min-max-utilization objective, now with real splitting instead of one
// CSPF path per pair).
//
// Formulation (path-based LP over lp::solve's dense two-phase simplex):
//
//   minimize   U + tiebreak * sum_p,c rate_p/R * stretch_pc * x_pc
//   s.t.       sum_c x_pc = 1                      for every LP pair p
//              sum_pc (rate_p / cap_e) x_pc - U <= -bg_e/cap_e
//                                             for every constrained edge e
//              x >= 0
//
// Only the heaviest `max_lp_pairs` pairs with a real choice (>= 2 live
// candidates) enter the LP; everything else is pinned to its shortest
// live candidate, and its load appears in the LP as the fixed background
// term bg_e. The latency tiebreak is small enough (1e-6 of a utilization
// unit) to never trade max-utilization away, and makes the optimizer
// prefer the low-stretch split among the utilization-equal optima.
//
// Degradation handling: candidates crossing a zero-capacity edge are
// dropped per solve; a pair whose whole pool is dropped is DENIED (empty
// route set entry — the same convention as the detour policy). Because
// pools always retain the pair's latency-shortest path, a TE solve never
// denies a pair that single-path shortest routing could serve on the
// same degraded view.
//
// Warm start (the TimelineDriver contract): SplitWarmState caches the
// candidate set under its gather fingerprint and the full solve result
// under a solve fingerprint (gather key + current capacities + rates +
// solve options). Both caches are silently rebuilt on mismatch, so the
// result NEVER depends on the caller invalidating correctly — and a warm
// solve is byte-identical to a cold one (the solve is a pure function,
// and a key hit replays its exact output).
//
// Determinism: threading shards candidate gathering and the simplex's
// pivot row updates (lp/simplex.hpp). Each gathered pair and each updated
// tableau row is computed independently of the others, so the LP solution
// — and every weight — is byte-identical at every thread count.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/te/candidates.hpp"

namespace cisp::net::te {

struct SplitResult {
  /// Per-pair weighted route sets in demand order (weights sum to 1;
  /// empty = denied). Feed to TrafficRunOptions::routes.
  MultipathRouteSet routes;
  /// Predicted max link utilization at offered load under the final
  /// (post-rounding) weights, over positive-capacity edges.
  double max_utilization = 0.0;
  /// Concurrent-throughput factor of the gather's MCF sub-solve.
  double mcf_lambda = 0.0;
  /// Pairs that entered the LP.
  std::size_t lp_pairs = 0;
  /// Pairs whose final route set carries more than one positive weight.
  std::size_t split_pairs = 0;
  std::size_t denied_pairs = 0;
  /// True when the simplex hit its iteration limit and the solve fell
  /// back to shortest-candidate pinning (deterministic, never silent).
  bool lp_fallback = false;
  /// Cache observability for this call (always false on the stored copy
  /// inside SplitWarmState).
  bool warm_candidates = false;
  bool warm_solution = false;
};

/// Epoch-to-epoch TE state. Owned by the caller (e.g. TimelineDriver);
/// solve_splits updates it in place through SplitOptions::warm.
struct SplitWarmState {
  /// Gather cache: the candidate pool under its input fingerprint.
  std::uint64_t candidate_key = 0;
  bool has_candidates = false;
  CandidateSet candidates;
  /// Solve cache: the full result under its input fingerprint.
  std::uint64_t solve_key = 0;
  bool has_solution = false;
  SplitResult solution;
  /// Solves that reused cached state (observability + tests).
  std::size_t candidate_reuses = 0;
  std::size_t solution_reuses = 0;
};

struct SplitOptions {
  CandidateOptions candidates;
  /// Heaviest pairs entered into the LP (the rest pin to their shortest
  /// live candidate and become background load). Bounds the tableau so
  /// the dense simplex stays in its few-thousand-variable scope.
  std::size_t max_lp_pairs = 256;
  /// Split weights below this are dropped and the rest renormalized —
  /// sub-permille slivers are allocator noise, not traffic engineering.
  double min_weight = 1e-3;
  /// Latency tiebreak coefficient in the objective (utilization units).
  double latency_tiebreak = 1e-6;
  /// Candidate gathering and the LP's pivot row updates: 1 = serial,
  /// 0 = all cores; results are byte-identical for every value.
  std::size_t threads = 1;
  /// Capacities the candidate gather reads (MCF proposals); nullptr =
  /// the view's current capacities. Timelines pass the NOMINAL
  /// capacities so the gather fingerprint — and with it the cached pool
  /// — is stable across degraded epochs. Size must match the view's
  /// edge count when set.
  const std::vector<double>* gather_capacity_bps = nullptr;
  /// Optional warm state (nullptr = cold). Must outlive the call.
  SplitWarmState* warm = nullptr;
};

/// Computes per-pair split weights over `view` (current — possibly
/// degraded — capacities) for `demands`. Pure function of its inputs:
/// byte-identical at every thread count, and warm results replay cold
/// results exactly.
[[nodiscard]] SplitResult solve_splits(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands,
    const flow::DirectKmFn& direct_km, const SplitOptions& options = {});

}  // namespace cisp::net::te
