#pragma once
// Deterministic sharding primitives of the alpha-fair allocator
// (alpha_fair.cpp). Every helper preserves the allocator's
// thread-count-invariance contract: reductions are EXACT (chunk maxima
// merged serially in chunk order — max carries no floating-point
// accumulation), and apply loops write only per-slot state, so no result
// ever depends on chunk boundaries or scheduling order.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "engine/executor.hpp"

namespace cisp::net::flow::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact-max reduction (used for convergence residuals): chunk maxima
/// land in distinct slots and merge serially in chunk order, so the result
/// is the true maximum at every thread count.
template <typename Fn>
double sharded_max(engine::Executor* pool, std::size_t cutoff, std::size_t n,
                   Fn&& value_of) {
  if (pool == nullptr || n < cutoff) {
    double best = -kInf;
    for (std::size_t i = 0; i < n; ++i) best = std::max(best, value_of(i));
    return best;
  }
  const std::size_t chunks =
      std::min(n, std::max<std::size_t>(1, pool->thread_count()) * 4);
  const std::size_t grain = (n + chunks - 1) / chunks;
  std::vector<double> partial(chunks, -kInf);
  engine::parallel_for(
      *pool, chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        double best = -kInf;
        for (std::size_t i = begin; i < end; ++i) {
          best = std::max(best, value_of(i));
        }
        partial[c] = best;
      },
      1);
  double best = -kInf;
  for (const double v : partial) best = std::max(best, v);
  return best;
}

/// Independent per-index writes, optionally sharded. Deterministic because
/// every index writes only its own state.
template <typename Fn>
void sharded_apply(engine::Executor* pool, std::size_t cutoff, std::size_t n,
                   Fn&& fn) {
  if (pool == nullptr || n < cutoff) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  engine::parallel_for(*pool, n, fn);
}

}  // namespace cisp::net::flow::detail
