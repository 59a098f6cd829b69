#pragma once
// Workload set-up from the library's public calls: the fast US scenario
// (coarse raster and hop profiles, trimmed tower registry), then design
// problem (link engineering + fiber) -> greedy -> capacity plan, each
// timed from outside. Untraced set-ups build the scenario with
// design::build_us_scenario; traced set-ups assemble it call by call
// (terrain raster -> tower registry -> hop graph) to time each layer.

#include <cstdint>
#include <type_traits>
#include <vector>

#include "bench.hpp"
#include "cisp.hpp"

namespace perfbench {

/// The designed, provisioned instance every workload runs on: 40
/// centers, a budget of 3000 towers, 100 Gbps aggregate provisioning.
struct Instance {
  cisp::design::SiteProblem problem;
  cisp::design::Topology topo;
  cisp::design::CapacityPlan plan;
  std::vector<std::vector<double>> traffic;
};

inline constexpr double kAggregateGbps = 100.0;

/// Builds the substrate and designs the instance on it. A traced build
/// times each substrate layer, and link engineering on its own (a second
/// engineer_links call).
Instance build_instance(std::size_t threads, bool traced,
                        SetupLayers& layers);

/// Throws unless the library's own scenario build designs the same
/// network as `layered`, a traced (call-by-call) set-up.
void check_layered_setup(const Instance& layered, std::size_t threads);

/// Times one call in milliseconds into `ms` (accumulating).
template <typename Fn>
auto timed(double& ms, Fn&& fn) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    ms += seconds_since(start) * 1e3;
  } else {
    auto out = fn();
    ms += seconds_since(start) * 1e3;
    return out;
  }
}

/// Median of a copy of `values` (0 when empty).
double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
