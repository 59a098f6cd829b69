#pragma once
// Experiment orchestration: resolves name globs against the registry, merges
// CLI parameter overrides, consults the content-keyed result cache, runs the
// experiment, and hands the ResultSet to the report sinks. This is the
// library half of the `cisp_experiments` driver (src/cli/) — kept out of the
// binary so tests can drive the full CLI surface through run_cli().
//
// The cache is keyed by (code version, experiment name, applied parameters,
// seed, fast flag) — never by thread count, because the sweep engine
// guarantees results are bit-identical for every thread count. The code
// version is a hash of the source tree baked in at build time (see
// cmake/GenerateBuildHash.cmake), so entries written by an older build are
// misses after a rebuild instead of silently serving stale results. A
// second `run` with the same key deserializes the stored ResultSet and
// skips recomputation entirely.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "engine/experiment.hpp"

namespace cisp::engine {

struct RunnerOptions {
  std::size_t threads = 0;     ///< worker threads (0 = all hardware threads)
  std::uint64_t seed = 0;      ///< base seed forwarded to experiments
  bool fast = false;           ///< coarse substrates for smoke runs
  Params overrides;            ///< --set key=value pairs
  std::string csv_dir;         ///< when non-empty, write per-table CSVs here
  bool json = false;           ///< render JSON instead of pretty tables
  bool use_cache = true;       ///< --no-cache disables reads AND writes
  std::string cache_dir = ".cisp-cache";
  bool require_rows = false;   ///< fail runs that produce an empty ResultSet
  /// Code version folded into every cache key. Empty = build_stamp(), the
  /// source-tree hash baked in at build time. Overridable so tests can
  /// simulate a rebuild without actually rebuilding.
  std::string cache_version;
  /// When true, a --set key the experiment does not declare is an error;
  /// when false (glob runs over several experiments) undeclared keys are
  /// skipped with a log line so one override can target a subset.
  bool strict_params = true;
  /// --metrics: collect obs counters/timers during the run and attach a
  /// per-experiment snapshot to the RunReport. Collection never perturbs
  /// results (see obs/metrics.hpp) and the snapshot is never cached.
  bool metrics = false;
};

/// One experiment's run outcome. `metrics` is populated only when
/// RunnerOptions::metrics is set: a one-table ResultSet snapshotting the
/// obs registry after the run — rendered alongside the results, but kept
/// out of `results` so caching and diffing stay byte-identical whether or
/// not instrumentation was on.
struct RunReport {
  std::string name;
  bool cache_hit = false;
  std::uint64_t key = 0;
  ResultSet results;
  ResultSet metrics;
};

/// The code version compiled into this binary: the SHA-256 of the source
/// tree when the build system generated it (any source edit yields a new
/// stamp on rebuild), or a compile-timestamp fallback when the generated
/// header is unavailable.
[[nodiscard]] std::string_view build_stamp() noexcept;

/// The cache key: FNV-1a over a canonical rendering of (code version,
/// name, sorted applied params, seed, fast). Thread count is deliberately
/// excluded; the code version deliberately included — a rebuild must not
/// serve results computed by different code.
[[nodiscard]] std::uint64_t cache_key(const std::string& name,
                                      const Params& applied,
                                      std::uint64_t seed, bool fast,
                                      std::string_view version = {});

/// Runs one experiment through the cache. `log` receives progress lines
/// ("[cache] hit ...", "[csv] wrote ..."); rendering of the ResultSet is
/// the caller's business. Throws cisp::Error for unknown names or
/// undeclared parameter overrides.
[[nodiscard]] RunReport run_experiment(const std::string& name,
                                       const RunnerOptions& options,
                                       std::ostream& log);

/// The full `cisp_experiments` CLI: `list [--describe]`,
/// `describe <name>`, and `run <name|glob>... [flags]`. Returns the
/// process exit code. `out` gets rendered results and listings, `err`
/// usage errors and failures.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace cisp::engine
