// Tests for the same-host perf gate (src/obs/bench.hpp): BENCH json
// round-trips, the median-vs-spread comparator over 5 + 5 synthetic
// samples (ok / improve / REGRESS / unresolved / added / removed), its
// refusals (too few samples, inconsistent kernel sets, fast/full
// mismatches), and the two modes of the `cisp_experiments perf` CLI.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "obs/bench.hpp"
#include "util/error.hpp"

namespace cisp::obs {
namespace {

BenchReport make_report(std::vector<BenchEntry> entries) {
  BenchReport report;
  report.build = "testbuild";
  report.fast = true;
  report.threads = 2;
  report.entries = std::move(entries);
  return report;
}

std::string to_json(const BenchReport& report) {
  std::ostringstream os;
  write_bench_json(os, report);
  return os.str();
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(BenchJson, RoundTripsExactly) {
  const BenchReport report = make_report({{"dijkstra_1k", 1234.5, 1000},
                                          {"greedy_solver", 9.875e6, 12}});
  const BenchReport parsed = parse_bench_json(to_json(report));
  EXPECT_EQ(parsed.schema, kBenchSchema);
  EXPECT_EQ(parsed.build, "testbuild");
  EXPECT_TRUE(parsed.fast);
  EXPECT_EQ(parsed.threads, 2u);
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].name, "dijkstra_1k");
  EXPECT_NEAR(parsed.entries[0].ns_per_op, 1234.5, 1e-3);
  EXPECT_EQ(parsed.entries[0].reps, 1000u);
  EXPECT_EQ(parsed.entries[1].name, "greedy_solver");
  EXPECT_NEAR(parsed.entries[1].ns_per_op, 9.875e6, 1.0);
}

TEST(BenchJson, RejectsWrongSchemaAndGarbage) {
  EXPECT_THROW((void)parse_bench_json("{\"schema\": \"other-v9\"}"),
               cisp::Error);
  EXPECT_THROW((void)parse_bench_json("not json at all"), cisp::Error);
  EXPECT_THROW((void)parse_bench_json(""), cisp::Error);
}

TEST(BenchJson, IgnoresUnknownKeysForForwardCompat) {
  const std::string json =
      "{\"schema\": \"cisp-bench-v1\", \"build\": \"b\", \"fast\": false,\n"
      " \"threads\": 0, \"future_field\": {\"nested\": [1, 2, {\"x\": 3}]},\n"
      " \"entries\": [{\"name\": \"k\", \"ns_per_op\": 10.0, \"reps\": 5,\n"
      "               \"future_note\": \"ignored\"}]}";
  const BenchReport parsed = parse_bench_json(json);
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].name, "k");
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

/// One kernel's ns/op in each of a side's samples.
struct KernelSeries {
  std::string name;
  std::vector<double> ns;
};

/// A side of a comparison: sample s lists every kernel at ns[s].
std::vector<BenchReport> make_side(const std::vector<KernelSeries>& kernels) {
  std::vector<BenchReport> side(kernels.front().ns.size());
  for (std::size_t s = 0; s < side.size(); ++s) {
    std::vector<BenchEntry> entries;
    for (const KernelSeries& k : kernels) entries.push_back({k.name, k.ns[s], 1});
    side[s] = make_report(std::move(entries));
  }
  return side;
}

const BenchComparison& row_of(const std::vector<BenchComparison>& rows,
                              const std::string& name) {
  for (const auto& row : rows) {
    if (row.name == name) return row;
  }
  ADD_FAILURE() << "no comparison row for " << name;
  return rows.front();
}

// A ~2% spread: medians 100, IQR 2.
const std::vector<double> kTight = {100.0, 101.0, 99.0, 102.0, 98.0};
// A ~40% spread: median 100, IQR 40.
const std::vector<double> kWide = {60.0, 120.0, 100.0, 140.0, 80.0};

std::vector<double> scaled(const std::vector<double>& ns, double factor) {
  std::vector<double> out;
  for (const double v : ns) out.push_back(v * factor);
  return out;
}

TEST(BenchCompare, IdenticalDistributionsHaveNoRegressions) {
  const auto base = make_side({{"a", kTight}, {"b", kWide}});
  // Same values, other order: a same-binary A/A pair.
  const auto head = make_side({{"a", {98.0, 102.0, 100.0, 99.0, 101.0}},
                               {"b", {140.0, 60.0, 80.0, 100.0, 120.0}}});
  const auto rows = compare_bench(base, head);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.status, BenchStatus::kOk) << row.name;
    EXPECT_DOUBLE_EQ(row.delta, 0.0);
  }
  std::ostringstream os;
  EXPECT_EQ(render_bench_comparison(os, rows), 0u);
}

TEST(BenchCompare, MedianAndInterquartileDistanceComeFromTheSamples) {
  const auto rows = compare_bench(make_side({{"k", kWide}}),
                                  make_side({{"k", scaled(kTight, 1.05)}}));
  EXPECT_DOUBLE_EQ(rows[0].base_median_ns, 100.0);
  EXPECT_DOUBLE_EQ(rows[0].base_iqr_ns, 40.0);
  EXPECT_DOUBLE_EQ(rows[0].head_median_ns, 105.0);
  EXPECT_NEAR(rows[0].head_iqr_ns, 2.1, 1e-12);
  EXPECT_NEAR(rows[0].delta, 0.05, 1e-12);
}

TEST(BenchCompare, ConsistentSlowdownBeyondTheSpreadRegresses) {
  const auto rows =
      compare_bench(make_side({{"slow", kTight}, {"same", kTight}}),
                    make_side({{"slow", scaled(kTight, 1.5)},
                               {"same", kTight}}));
  EXPECT_EQ(row_of(rows, "slow").status, BenchStatus::kRegress);
  EXPECT_NEAR(row_of(rows, "slow").delta, 0.5, 1e-12);
  EXPECT_EQ(row_of(rows, "same").status, BenchStatus::kOk);
  std::ostringstream os;
  EXPECT_EQ(render_bench_comparison(os, rows), 1u);
  EXPECT_NE(os.str().find("REGRESS"), std::string::npos);
}

TEST(BenchCompare, MovePastTheThresholdInsideTheSpreadIsUnresolved) {
  // +15% median move against a 40% interquartile distance: not evidence.
  const auto up = compare_bench(make_side({{"k", kWide}}),
                                make_side({{"k", scaled(kWide, 1.15)}}));
  EXPECT_EQ(up[0].status, BenchStatus::kUnresolved);
  const auto down = compare_bench(make_side({{"k", kWide}}),
                                  make_side({{"k", scaled(kWide, 0.85)}}));
  EXPECT_EQ(down[0].status, BenchStatus::kUnresolved);
  std::ostringstream os;
  EXPECT_EQ(render_bench_comparison(os, up), 0u);
  EXPECT_NE(os.str().find("unresolved"), std::string::npos);
}

TEST(BenchCompare, HeadSpreadAlsoHidesAMove) {
  // Base's five samples sit tight while head's scatter 40%: a +15% median
  // move is inside head's spread, so it is unresolved either way round.
  const auto up = compare_bench(make_side({{"k", kTight}}),
                                make_side({{"k", scaled(kWide, 1.15)}}));
  EXPECT_EQ(up[0].status, BenchStatus::kUnresolved);
  const auto down = compare_bench(make_side({{"k", kTight}}),
                                  make_side({{"k", scaled(kWide, 0.85)}}));
  EXPECT_EQ(down[0].status, BenchStatus::kUnresolved);
}

TEST(BenchCompare, SpeedupBeyondTheSpreadImproves) {
  const auto rows = compare_bench(make_side({{"k", kTight}}),
                                  make_side({{"k", scaled(kTight, 0.5)}}));
  EXPECT_EQ(rows[0].status, BenchStatus::kImprove);
}

TEST(BenchCompare, ThresholdIsStrict) {
  const std::vector<double> flat(5, 100.0);  // zero spread
  const auto at = [&](double head_ns) {
    return compare_bench(make_side({{"k", flat}}),
                         make_side({{"k", std::vector<double>(5, head_ns)}}))
        .front()
        .status;
  };
  EXPECT_EQ(at(110.0), BenchStatus::kOk);      // exactly +10%
  EXPECT_EQ(at(110.1), BenchStatus::kRegress);  // just past the gate
  EXPECT_EQ(at(90.0), BenchStatus::kOk);       // exactly -10%
  EXPECT_EQ(at(89.9), BenchStatus::kImprove);
}

TEST(BenchCompare, AddedAndRemovedKernelsDoNotGate) {
  const auto rows = compare_bench(make_side({{"kept", kTight},
                                             {"gone", kTight}}),
                                  make_side({{"kept", kTight},
                                             {"new", scaled(kTight, 9.0)}}));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "kept");
  EXPECT_EQ(rows[1].name, "gone");
  EXPECT_EQ(rows[1].status, BenchStatus::kRemoved);
  EXPECT_EQ(rows[2].name, "new");
  EXPECT_EQ(rows[2].status, BenchStatus::kAdded);
  std::ostringstream os;
  EXPECT_EQ(render_bench_comparison(os, rows), 0u);
  EXPECT_NE(os.str().find("removed"), std::string::npos);
  EXPECT_NE(os.str().find("added"), std::string::npos);
}

TEST(BenchCompare, RefusesTooFewSamples) {
  const auto five = make_side({{"k", kTight}});
  const auto four = make_side({{"k", {100.0, 101.0, 99.0, 102.0}}});
  EXPECT_THROW((void)compare_bench(four, five), cisp::Error);
  EXPECT_THROW((void)compare_bench(five, four), cisp::Error);
}

TEST(BenchCompare, RefusesAnInconsistentKernelSetWithinOneSide) {
  const auto base = make_side({{"a", kTight}, {"b", kTight}});
  auto dropped = make_side({{"a", kTight}, {"b", kTight}});
  dropped[3].entries.pop_back();  // one sample skipped kernel b
  EXPECT_THROW((void)compare_bench(base, dropped), cisp::Error);
  EXPECT_THROW((void)compare_bench(dropped, base), cisp::Error);

  auto renamed = make_side({{"a", kTight}, {"b", kTight}});
  renamed[2].entries[1].name = "c";  // same size, different set
  EXPECT_THROW((void)compare_bench(base, renamed), cisp::Error);

  auto doubled = make_side({{"a", kTight}, {"b", kTight}});
  doubled[0].entries[1].name = "a";  // a kernel listed twice
  EXPECT_THROW((void)compare_bench(doubled, base), cisp::Error);
}

TEST(BenchCompare, RefusesFastMismatches) {
  const auto base = make_side({{"k", kTight}});
  auto full = make_side({{"k", kTight}});
  full[4].fast = false;
  EXPECT_THROW((void)compare_bench(base, full), cisp::Error);
  EXPECT_THROW((void)compare_bench(full, base), cisp::Error);
}

// ---------------------------------------------------------------------------
// CLI: `perf --against ... --current ...` (compare mode) and `perf --out`
// ---------------------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& stem) {
    path = (std::filesystem::temp_directory_path() /
            ("cisp-perf-gate-test-" + stem))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& text) {
  const std::string path = (std::filesystem::path(dir) / name).string();
  std::ofstream out(path);
  out << text;
  return path;
}

/// Writes each sample of a side as `<stem>-<i>.json`; returns the paths.
std::vector<std::string> write_side(const std::string& dir,
                                    const std::string& stem,
                                    const std::vector<BenchReport>& side) {
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < side.size(); ++s) {
    paths.push_back(write_file(dir, stem + "-" + std::to_string(s) + ".json",
                               to_json(side[s])));
  }
  return paths;
}

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv = {"cisp_experiments"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = engine::run_cli(static_cast<int>(argv.size()), argv.data(),
                                   out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

/// `perf --against b... --current h...`, plus any extra arguments.
int compare_cli(const std::vector<std::string>& base,
                const std::vector<std::string>& head,
                std::string* out_text = nullptr,
                const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"perf"};
  for (const auto& path : base) {
    args.push_back("--against");
    args.push_back(path);
  }
  for (const auto& path : head) {
    args.push_back("--current");
    args.push_back(path);
  }
  args.insert(args.end(), extra.begin(), extra.end());
  return cli(args, out_text);
}

TEST(PerfCli, CompareModeExitCodes) {
  TempDir dir("compare");
  const auto base = write_side(dir.path, "base",
                               make_side({{"a", kTight}, {"b", kWide},
                                          {"gone", kTight}}));
  const auto same = write_side(
      dir.path, "same",
      make_side({{"a", {98.0, 102.0, 100.0, 99.0, 101.0}},
                 {"b", {140.0, 60.0, 80.0, 100.0, 120.0}},
                 {"gone", kTight}}));
  const auto slow = write_side(
      dir.path, "slow",
      make_side({{"a", scaled(kTight, 1.5)}, {"b", kWide}, {"gone", kTight}}));
  const auto noisy = write_side(
      dir.path, "noisy",
      make_side({{"a", kTight}, {"b", scaled(kWide, 1.15)},
                 {"gone", kTight}}));
  const auto reshaped = write_side(
      dir.path, "reshaped",
      make_side({{"a", kTight}, {"b", kWide}, {"new", kTight}}));

  std::string out;
  EXPECT_EQ(compare_cli(base, same, &out), 0);
  EXPECT_NE(out.find("0 regression(s); 0 removed, 0 added"),
            std::string::npos);
  EXPECT_EQ(compare_cli(base, slow, &out), 1);
  EXPECT_NE(out.find("REGRESS"), std::string::npos);
  EXPECT_EQ(compare_cli(base, noisy, &out), 0);
  EXPECT_NE(out.find("unresolved"), std::string::npos);
  EXPECT_EQ(compare_cli(base, reshaped, &out), 0);
  EXPECT_NE(out.find("0 regression(s); 1 removed, 1 added"),
            std::string::npos);
}

TEST(PerfCli, CompareModeRefusesBadSampleSets) {
  TempDir dir("refuse");
  const auto base = write_side(dir.path, "base", make_side({{"k", kTight}}));
  const std::vector<std::string> four(base.begin(), base.end() - 1);
  EXPECT_NE(compare_cli(base, four), 0);
  EXPECT_NE(compare_cli(four, base), 0);
  EXPECT_NE(compare_cli(base, {}), 0);

  auto full = make_side({{"k", kTight}});
  full[2].fast = false;
  EXPECT_NE(compare_cli(base, write_side(dir.path, "full", full)), 0);
  auto skipped = make_side({{"k", kTight}, {"j", kTight}});
  skipped[0].entries.pop_back();
  EXPECT_NE(compare_cli(write_side(dir.path, "skipped", skipped), base), 0);
}

TEST(PerfCli, RunModeNeedsOutAndDoesNotMixWithCompareFlags) {
  TempDir dir("modes");
  const auto base = write_side(dir.path, "base", make_side({{"k", kTight}}));
  std::string err;
  EXPECT_NE(cli({"perf"}, nullptr, &err), 0);
  EXPECT_NE(err.find("--out"), std::string::npos);
  EXPECT_NE(cli({"perf", "--fast"}), 0);
  const std::string out_path =
      (std::filesystem::path(dir.path) / "run.json").string();
  for (const std::vector<std::string>& run_flags :
       {std::vector<std::string>{"--out", out_path},
        std::vector<std::string>{"--fast"}}) {
    EXPECT_NE(compare_cli(base, base, nullptr, run_flags), 0)
        << run_flags.front();
  }
  // The suite's kernels are serial with fixed fixture seeds: perf takes
  // no --threads or --seed.
  for (const std::vector<std::string>& knob :
       {std::vector<std::string>{"--threads", "2"},
        std::vector<std::string>{"--seed", "3"}}) {
    std::vector<std::string> args = {"perf", "--out", out_path};
    args.insert(args.end(), knob.begin(), knob.end());
    EXPECT_NE(cli(args, nullptr, &err), 0) << knob.front();
    EXPECT_NE(err.find("unknown perf flag"), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(out_path));
}

TEST(PerfCli, CompareOnlyFailsCleanlyOnBadInput) {
  TempDir dir("bad");
  auto good = write_side(dir.path, "good", make_side({{"k", kTight}}));
  auto with_bad = good;
  with_bad[0] = write_file(dir.path, "bad.json", "{\"schema\": \"nope\"}");
  EXPECT_NE(compare_cli(good, with_bad), 0);
  auto with_absent = good;
  with_absent[4] = (std::filesystem::path(dir.path) / "absent.json").string();
  EXPECT_NE(compare_cli(with_absent, good), 0);
  EXPECT_NE(cli({"perf", "--bogus-flag"}), 0);
  EXPECT_NE(compare_cli(good, good, nullptr, {"--threshold", "0.5"}), 0);
}

}  // namespace
}  // namespace cisp::obs
