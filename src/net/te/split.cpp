#include "net/te/split.hpp"

#include <algorithm>
#include <bit>

#include "lp/simplex.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net::te {

namespace {

std::uint64_t mix_double(std::uint64_t h, double v) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

/// Candidate indices (into the pair's pool) whose every edge still has
/// positive capacity on the solve view, in pool (shortest-first) order.
std::vector<std::vector<std::size_t>> live_candidates(
    const SimTopologyView& view, const CandidateSet& cands) {
  std::vector<std::vector<std::size_t>> live(cands.pairs.size());
  for (std::size_t f = 0; f < cands.pairs.size(); ++f) {
    const PairCandidates& pool = cands.pairs[f];
    for (std::size_t c = 0; c < pool.paths.size(); ++c) {
      bool routable = true;
      for (const graphs::EdgeId eid : pool.paths[c].edges) {
        if (view.capacity_bps[eid] <= 0.0) {
          routable = false;
          break;
        }
      }
      if (routable) live[f].push_back(c);
    }
  }
  return live;
}

/// Predicted max utilization at offered load under the final weights.
double predicted_max_utilization(const SimTopologyView& view,
                                 const std::vector<TrafficDemand>& demands,
                                 const MultipathRouteSet& routes) {
  std::vector<double> load(view.capacity_bps.size(), 0.0);
  for (std::size_t f = 0; f < routes.pair_paths.size(); ++f) {
    for (const WeightedPath& wp : routes.pair_paths[f]) {
      for (const graphs::EdgeId eid : wp.path.edges) {
        load[eid] += demands[f].rate_bps * wp.weight;
      }
    }
  }
  double max_util = 0.0;
  for (std::size_t e = 0; e < load.size(); ++e) {
    if (view.capacity_bps[e] <= 0.0) continue;
    max_util = std::max(max_util, load[e] / view.capacity_bps[e]);
  }
  return max_util;
}

SplitResult solve_from_candidates(const SimTopologyView& view,
                                  const std::vector<TrafficDemand>& demands,
                                  const CandidateSet& cands,
                                  const SplitOptions& options) {
  SplitResult out;
  out.mcf_lambda = cands.mcf_lambda;
  const std::size_t pairs = demands.size();
  out.routes.pair_paths.resize(pairs);
  const std::vector<std::vector<std::size_t>> live =
      live_candidates(view, cands);
  for (std::size_t f = 0; f < pairs; ++f) {
    if (live[f].empty()) ++out.denied_pairs;
  }

  const auto pin_shortest = [&](std::size_t f) {
    // Single-path pin: the shortest live candidate carries everything.
    out.routes.pair_paths[f] = {
        {cands.pairs[f].paths[live[f].front()], 1.0}};
  };

  // LP pair selection: heaviest pairs with a real choice.
  std::vector<std::size_t> lp_order;
  for (std::size_t f = 0; f < pairs; ++f) {
    if (live[f].size() >= 2 && demands[f].rate_bps > 0.0) {
      lp_order.push_back(f);
    }
  }
  std::sort(lp_order.begin(), lp_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (demands[a].rate_bps != demands[b].rate_bps) {
                return demands[a].rate_bps > demands[b].rate_bps;
              }
              return a < b;
            });
  if (lp_order.size() > options.max_lp_pairs) {
    lp_order.resize(options.max_lp_pairs);
  }

  if (lp_order.empty()) {
    for (std::size_t f = 0; f < pairs; ++f) {
      if (!live[f].empty()) pin_shortest(f);
    }
    out.max_utilization = predicted_max_utilization(view, demands, out.routes);
    return out;
  }

  // Position of each pair in lp_order (kNotInLp when pinned).
  constexpr std::size_t kNotInLp = SIZE_MAX;
  std::vector<std::size_t> lp_index(pairs, kNotInLp);
  for (std::size_t i = 0; i < lp_order.size(); ++i) lp_index[lp_order[i]] = i;

  // Fixed background load: every non-LP served pair on its shortest live
  // candidate (which is also its final route).
  std::vector<double> background_bps(view.capacity_bps.size(), 0.0);
  for (std::size_t f = 0; f < pairs; ++f) {
    if (lp_index[f] != kNotInLp || live[f].empty()) continue;
    for (const graphs::EdgeId eid :
         cands.pairs[f].paths[live[f].front()].edges) {
      background_bps[eid] += demands[f].rate_bps;
    }
  }

  // Variable layout: 0 = U, then x_pc blocks in lp_order x live order.
  std::size_t num_vars = 1;
  std::vector<std::size_t> var_base(lp_order.size(), 0);
  double lp_rate_total = 0.0;
  for (std::size_t i = 0; i < lp_order.size(); ++i) {
    var_base[i] = num_vars;
    num_vars += live[lp_order[i]].size();
    lp_rate_total += demands[lp_order[i]].rate_bps;
  }

  lp::LinearProgram prog;
  prog.num_vars = num_vars;
  prog.objective.assign(num_vars, 0.0);
  prog.objective[0] = 1.0;
  for (std::size_t i = 0; i < lp_order.size(); ++i) {
    const std::size_t f = lp_order[i];
    const double rate_share = demands[f].rate_bps / lp_rate_total;
    for (std::size_t j = 0; j < live[f].size(); ++j) {
      prog.objective[var_base[i] + j] = options.latency_tiebreak *
                                        rate_share *
                                        cands.pairs[f].stretch[live[f][j]];
    }
  }
  for (std::size_t i = 0; i < lp_order.size(); ++i) {
    std::vector<double> coeffs(num_vars, 0.0);
    for (std::size_t j = 0; j < live[lp_order[i]].size(); ++j) {
      coeffs[var_base[i] + j] = 1.0;
    }
    prog.add_equal(std::move(coeffs), 1.0);
  }
  // Capacity rows only for edges an LP candidate actually crosses — the
  // rest cannot change under the optimization (their utilization is
  // reported post-hoc from the final weights). Rows go in edge order; one
  // pass over the LP paths then adds each crossing into its edge's row.
  constexpr std::size_t kNoRow = SIZE_MAX;
  std::vector<std::size_t> edge_row(view.capacity_bps.size(), kNoRow);
  for (const std::size_t f : lp_order) {
    for (const std::size_t c : live[f]) {
      for (const graphs::EdgeId eid : cands.pairs[f].paths[c].edges) {
        edge_row[eid] = 0;  // touched; the row index is assigned below
      }
    }
  }
  for (std::size_t e = 0; e < edge_row.size(); ++e) {
    if (edge_row[e] == kNoRow) continue;
    edge_row[e] = prog.constraints.size();
    std::vector<double> coeffs(num_vars, 0.0);
    coeffs[0] = -1.0;
    prog.add_less_eq(std::move(coeffs),
                     -background_bps[e] / view.capacity_bps[e]);
  }
  for (std::size_t i = 0; i < lp_order.size(); ++i) {
    const std::size_t f = lp_order[i];
    for (std::size_t j = 0; j < live[f].size(); ++j) {
      const graphs::Path& path = cands.pairs[f].paths[live[f][j]];
      for (const graphs::EdgeId eid : path.edges) {
        prog.constraints[edge_row[eid]].coeffs[var_base[i] + j] +=
            demands[f].rate_bps / view.capacity_bps[eid];
      }
    }
  }

  lp::SimplexOptions simplex;
  simplex.threads = options.threads;
  const lp::Solution sol = lp::solve(prog, simplex);
  if (sol.status == lp::SolveStatus::IterationLimit) {
    // Deterministic, visible fallback: everything pins single-path.
    out.lp_fallback = true;
    for (std::size_t f = 0; f < pairs; ++f) {
      if (!live[f].empty()) pin_shortest(f);
    }
    out.max_utilization = predicted_max_utilization(view, demands, out.routes);
    return out;
  }
  CISP_REQUIRE(sol.status == lp::SolveStatus::Optimal,
               "TE split LP unexpectedly infeasible/unbounded");
  out.lp_pairs = lp_order.size();

  for (std::size_t f = 0; f < pairs; ++f) {
    const std::size_t i = lp_index[f];
    if (live[f].empty() || i == kNotInLp) {
      if (!live[f].empty()) pin_shortest(f);
      continue;
    }
    // Keep weights above min_weight and renormalize; if rounding drops
    // everything, the largest raw weight (ties: shortest candidate)
    // carries the pair alone.
    std::vector<double> raw(live[f].size(), 0.0);
    double kept_sum = 0.0;
    std::size_t arg_max = 0;
    for (std::size_t j = 0; j < live[f].size(); ++j) {
      raw[j] = std::max(0.0, sol.x[var_base[i] + j]);
      if (raw[j] > raw[arg_max]) arg_max = j;
      if (raw[j] >= options.min_weight) kept_sum += raw[j];
    }
    std::vector<WeightedPath>& routes = out.routes.pair_paths[f];
    if (kept_sum <= 0.0) {
      routes = {{cands.pairs[f].paths[live[f][arg_max]], 1.0}};
    } else {
      for (std::size_t j = 0; j < live[f].size(); ++j) {
        if (raw[j] < options.min_weight) continue;
        routes.push_back(
            {cands.pairs[f].paths[live[f][j]], raw[j] / kept_sum});
      }
    }
  }
  for (std::size_t f = 0; f < pairs; ++f) {
    if (out.routes.pair_paths[f].size() > 1) ++out.split_pairs;
  }
  out.max_utilization = predicted_max_utilization(view, demands, out.routes);
  return out;
}

}  // namespace

SplitResult solve_splits(const SimTopologyView& view,
                         const std::vector<TrafficDemand>& demands,
                         const flow::DirectKmFn& direct_km,
                         const SplitOptions& options) {
  const obs::TraceSpan span("te.split", "te", "pairs",
                            static_cast<double>(demands.size()));
  CISP_REQUIRE(options.min_weight > 0.0 && options.min_weight < 1.0,
               "min_weight must be in (0, 1)");
  const SimTopologyView* gather_view = &view;
  SimTopologyView gather_copy;
  if (options.gather_capacity_bps != nullptr) {
    CISP_REQUIRE(
        options.gather_capacity_bps->size() == view.capacity_bps.size(),
        "gather capacities must cover every view edge");
    gather_copy = view;
    gather_copy.capacity_bps = *options.gather_capacity_bps;
    gather_view = &gather_copy;
  }
  const std::uint64_t cand_key =
      candidate_key(*gather_view, demands, options.candidates);
  std::uint64_t solve_key = hash_combine(cand_key, 0x73706c69u);
  for (const double c : view.capacity_bps) solve_key = mix_double(solve_key, c);
  solve_key = hash_combine(solve_key, options.max_lp_pairs);
  solve_key = mix_double(solve_key, options.min_weight);
  solve_key = mix_double(solve_key, options.latency_tiebreak);

  SplitWarmState* warm = options.warm;
  if (warm != nullptr && warm->has_solution && warm->solve_key == solve_key) {
    // Exact-input replay: the solve is a pure function, so the cached
    // result IS the cold result, byte for byte.
    ++warm->solution_reuses;
    SplitResult out = warm->solution;
    out.warm_solution = true;
    out.warm_candidates =
        warm->has_candidates && warm->candidate_key == cand_key;
    return out;
  }

  CandidateSet local;
  const CandidateSet* cands = nullptr;
  bool reused_candidates = false;
  if (warm != nullptr && warm->has_candidates &&
      warm->candidate_key == cand_key) {
    cands = &warm->candidates;
    reused_candidates = true;
    ++warm->candidate_reuses;
  } else {
    local = generate_candidates(*gather_view, demands, direct_km,
                                options.candidates, options.threads);
    if (warm != nullptr) {
      warm->candidates = std::move(local);
      warm->candidate_key = cand_key;
      warm->has_candidates = true;
      cands = &warm->candidates;
    } else {
      cands = &local;
    }
  }

  SplitResult result = solve_from_candidates(view, demands, *cands, options);
  result.warm_candidates = reused_candidates;
  if (warm != nullptr) {
    warm->solution = result;
    warm->solution.warm_candidates = false;
    warm->solution.warm_solution = false;
    warm->solve_key = solve_key;
    warm->has_solution = true;
  }
  return result;
}

}  // namespace cisp::net::te
