#pragma once
// Shared types of the cISP benchmark program: command-line arguments, the
// per-step log, set-up layer timings and the result every workload fills.
// Everything here is benchmark-side; the library is reached only through
// its public headers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  /// Workload seed: rain field and packet source phases.
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of every sharded layer (greedy scoring, allocator,
  /// repair, candidate gather, packet shards): the host's 4 cores.
  std::size_t threads = 4;
  /// Per-step log destination (empty = no log file).
  std::string log_path;
};

/// One step of a measured phase.
struct StepRecord {
  std::size_t index = 0;
  /// calm / link_churn / te_resolve / packet_cell
  std::string kind;
  double wall_ms = 0.0;
  bool ok = true;
};

/// Wall time of each set-up layer, timed around its public call, plus the
/// sizes those layers produced.
struct SetupLayers {
  double raster_ms = 0.0;
  double towers_ms = 0.0;
  double hop_graph_ms = 0.0;
  double problem_ms = 0.0;
  /// Traced set-ups only: link engineering timed on its own.
  double link_eng_ms = 0.0;
  double greedy_ms = 0.0;
  double capacity_ms = 0.0;
  /// Link plan, demand matrix, rain field and driver / model construction.
  double construct_ms = 0.0;
  std::size_t cells = 0;
  std::size_t towers = 0;
  std::size_t feasible_hops = 0;
  std::size_t candidates = 0;
};

/// Deterministic outputs of a workload (identical on every run of a seed).
struct Quality {
  double design_stretch = 0.0;
  double served_pct = 0.0;
  double mean_stretch = 0.0;
  double avail_3nines_pct = 0.0;
};

struct RunResult {
  /// Wall time of every set-up made in the run (the last one's objects
  /// drive the measured phase).
  std::vector<double> setup_s;
  std::vector<StepRecord> steps;
  double phase_s = 0.0;
  Quality quality;
  /// Per-layer metric values of a traced run, by name (empty on untraced
  /// runs).
  std::map<std::string, double> layer_values;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
  /// Output checks that failed (each also marks its step failed).
  std::vector<std::string> failures;

  [[nodiscard]] std::size_t failed_steps() const {
    std::size_t n = 0;
    for (const StepRecord& s : steps) n += s.ok ? 0 : 1;
    return n;
  }
};

/// Set-ups made per run; setup_s reports their median.
inline constexpr std::size_t kSetupRepeats = 3;

RunResult run_timeline(const Args& args, bool te_overload);
RunResult run_packet(const Args& args);

}  // namespace perfbench
