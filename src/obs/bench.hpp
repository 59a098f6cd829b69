#pragma once
// Perf gate: schema-versioned benchmark reports plus the comparator behind
// `cisp_experiments perf --against ... --current ...`. A report is one run
// of the hot-path suite: a flat list of kernel timings. The comparator
// takes at least kMinBenchSamples reports per side, built from source and
// run interleaved on one host, and matches kernels by name. A kernel
// regresses only when head's median is more than kBenchThreshold above
// base's median AND the gap exceeds the wider of the two sides'
// interquartile distances; a move past the threshold that stays inside
// that spread is reported as unresolved and does not gate.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cisp::obs {

/// Schema identifier written into every report.
inline constexpr const char* kBenchSchema = "cisp-bench-v1";

/// Reports each side of a comparison needs: fewer cannot separate a
/// median move from the host's run-to-run spread.
inline constexpr std::size_t kMinBenchSamples = 5;

/// Relative median move a kernel must exceed to regress (or improve).
inline constexpr double kBenchThreshold = 0.10;

/// One timed kernel: `ns_per_op` is the number the comparator gates on;
/// `reps` records how many iterations the harness averaged over.
struct BenchEntry {
  std::string name;
  double ns_per_op = 0.0;
  std::uint64_t reps = 0;
};

/// A full benchmark run. `build` is the deterministic source hash
/// (CISP_BUILD_HASH) so a report is traceable to the code that produced
/// it; `fast` records whether the reduced-size suite ran (samples are only
/// comparable when it matches). `threads` is the runner's executor width,
/// kept for the schema: every timed kernel is serial.
struct BenchReport {
  std::string schema = kBenchSchema;
  std::string build;
  bool fast = false;
  std::size_t threads = 0;
  std::vector<BenchEntry> entries;
};

/// Serializes a report as pretty-printed JSON.
void write_bench_json(std::ostream& os, const BenchReport& report);

/// Parses a report previously written by write_bench_json. Throws
/// cisp::Error on malformed input or schema mismatch.
[[nodiscard]] BenchReport parse_bench_json(const std::string& text);

/// Comparator verdict for one kernel.
enum class BenchStatus {
  kOk,          ///< medians within the threshold either way
  kImprove,     ///< faster by more than the threshold and the spread
  kRegress,     ///< slower by more than the threshold and the spread
  kUnresolved,  ///< moved past the threshold, but within the spread
  kAdded,       ///< only head runs the kernel
  kRemoved,     ///< only base runs the kernel
};

/// One row of a comparison. Medians and interquartile distances are over
/// each side's samples; `delta` is (head - base) / base median,
/// meaningless for kAdded/kRemoved. The spread a move must clear is
/// max(base_iqr_ns, head_iqr_ns): a noisy side on either end of the pair
/// widens it, since five samples can all land in one of a host's modes
/// and make one side look tighter than the host is.
struct BenchComparison {
  std::string name;
  double base_median_ns = 0.0;
  double base_iqr_ns = 0.0;
  double head_median_ns = 0.0;
  double head_iqr_ns = 0.0;
  double delta = 0.0;
  BenchStatus status = BenchStatus::kOk;
};

/// Compares head's samples against base's kernel by kernel. Rows come
/// back in base order, then kernels only head runs in head order. Throws
/// cisp::Error when a side has fewer than kMinBenchSamples reports, when
/// one side's reports list different kernels, or when `fast` differs
/// between any two reports.
[[nodiscard]] std::vector<BenchComparison> compare_bench(
    const std::vector<BenchReport>& base,
    const std::vector<BenchReport>& head);

/// Renders a comparison table for terminal output and returns the number
/// of regressions (the gate's exit-code driver).
std::size_t render_bench_comparison(
    std::ostream& os, const std::vector<BenchComparison>& rows);

}  // namespace cisp::obs
