// Tests for the structured experiment stack above the engine: ResultSet
// rendering golden-files (CSV/JSON), serialization round-trips, registry
// listing and glob matching against the real catalog (this binary links
// every bench/example registration TU), --set parameter routing through the
// CLI, and the (name, params, seed)-keyed result cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/diff.hpp"
#include "engine/experiment.hpp"
#include "engine/report.hpp"
#include "engine/result.hpp"
#include "engine/runner.hpp"
#include "util/error.hpp"

namespace cisp::engine {
namespace {

// ---------------------------------------------------------------------------
// Test experiments registered into the process-wide instance (alongside the
// real bench/example catalog linked into this binary).
// ---------------------------------------------------------------------------

std::atomic<int> g_probe_executions{0};

const RegisterExperiment kParamEcho{
    {.name = "unit_param_echo",
     .description = "echoes its parameters (test fixture)",
     .tags = {"test"},
     .params = {{"x", "1.5", "a real knob"},
                {"label", "none", "a text knob"}}},
    [](const ExperimentContext& ctx) {
      ResultSet set;
      auto& t = set.add_table("unit_param_echo", "echo",
                              {"x", "label", "seed", "fast"});
      t.row({ctx.params.real("x", 1.5), ctx.params.text("label", "none"),
             static_cast<std::int64_t>(ctx.base_seed),
             ctx.fast ? "fast" : "full"});
      return set;
    }};

const RegisterExperiment kCacheProbe{
    {.name = "unit_cache_probe",
     .description = "counts executions (test fixture)",
     .tags = {"test"},
     .params = {{"x", "0", "cache key knob"}}},
    [](const ExperimentContext& ctx) {
      ++g_probe_executions;
      ResultSet set;
      set.add_table("unit_cache_probe", "probe", {"x", "seed"})
          .row({ctx.params.real("x", 0.0),
                static_cast<std::int64_t>(ctx.base_seed)});
      return set;
    }};

const RegisterExperiment kEmpty{
    {.name = "unit_empty",
     .description = "returns no rows (test fixture)",
     .tags = {"test"}},
    [](const ExperimentContext&) { return ResultSet{}; }};

/// A unique scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& stem) {
    path = (std::filesystem::temp_directory_path() / ("cisp-runner-test" /
           std::filesystem::path(stem))).string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

ResultSet sample_set() {
  ResultSet set;
  auto& t = set.add_table("sample", "Sample, \"quoted\" title",
                          {"real", "int", "text", "money", "null"});
  t.row({Value::real(1.25, 3), 42, "plain", Value::money(0.815), Value{}});
  t.row({Value::real(-0.5, 1), -7, "comma, \"quote\"", Value::money(12.0, 0),
         Value{}});
  set.add_table("second", "Second table", {"only"}).row({"cell"});
  set.note("a note\nwith a newline and a\ttab");
  return set;
}

// ---------------------------------------------------------------------------
// Rendering golden files
// ---------------------------------------------------------------------------

TEST(Report, CsvGolden) {
  std::ostringstream os;
  render_csv(sample_set().table("sample"), os);
  EXPECT_EQ(os.str(),
            "real,int,text,money,null\n"
            "1.250,42,plain,$0.81,-\n"
            "-0.5,-7,\"comma, \"\"quote\"\"\",$12,-\n");
}

TEST(Report, JsonGolden) {
  std::ostringstream os;
  ResultSet set;
  set.add_table("t", "Title", {"a", "b", "c"})
      .row({Value::real(2.0, 2), "x\"y", Value{}});
  set.note("line1\nline2");
  render_json(set, "exp", os);
  EXPECT_EQ(os.str(),
            "{\"experiment\": \"exp\", \"tables\": [{\"slug\": \"t\", "
            "\"title\": \"Title\", \"columns\": [\"a\", \"b\", \"c\"], "
            "\"rows\": [[2.00, \"x\\\"y\", null]]}], "
            "\"notes\": [\"line1\\nline2\"]}\n");
}

TEST(Report, PrettyRendersTablesAndNotes) {
  std::ostringstream os;
  render_pretty(sample_set(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Sample, \"quoted\" title"), std::string::npos);
  EXPECT_NE(out.find("$0.81"), std::string::npos);
  EXPECT_NE(out.find("a note\nwith a newline"), std::string::npos);
}

TEST(Report, CsvDirWritesOneFilePerTable) {
  TempDir dir("cisp-csvdir");
  const auto paths = write_csv_dir(sample_set(), dir.path);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir.path) / "sample.csv"));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir.path) / "second.csv"));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(ResultSerialization, RoundTripsExactly) {
  const ResultSet original = sample_set();
  std::stringstream buffer;
  serialize(original, buffer);
  const ResultSet restored = deserialize(buffer);
  EXPECT_TRUE(original == restored);
}

TEST(ResultSerialization, RejectsMalformedInput) {
  std::stringstream not_magic("something else\n");
  EXPECT_THROW((void)deserialize(not_magic), Error);
  std::stringstream truncated("cisp-result-v1\ntable a\tb\ncolumns c\n");
  EXPECT_THROW((void)deserialize(truncated), Error);
}

ResultSet timed_set(double seconds, double stretch) {
  ResultSet set;
  set.add_table("t", "T", {"n", "solve_s", "stretch"})
      .mark_timing("solve_s")
      .row({4, Value::real(seconds, 2), Value::real(stretch, 4)});
  return set;
}

TEST(ResultSerialization, RoundTripsTheTimingMark) {
  const ResultSet original = timed_set(0.5, 1.25);
  std::stringstream buffer;
  serialize(original, buffer);
  EXPECT_NE(buffer.str().find("\ntiming 1\n"), std::string::npos)
      << buffer.str();
  const ResultSet restored = deserialize(buffer);
  const ResultTable& table = restored.table("t");
  EXPECT_FALSE(table.is_timing(0));
  EXPECT_TRUE(table.is_timing(1));
  EXPECT_FALSE(table.is_timing(2));
  EXPECT_EQ(table.at(0, 1).as_real(), 0.5);  // the cell itself survives
  EXPECT_THROW(ResultTable("t", "T", {"a"}).mark_timing("b"), Error);
}

TEST(Diff, TimingColumnsAreSkippedButTheirRowsStillCompare) {
  const ResultSet a = timed_set(0.5, 1.25);
  const ResultSet slower = timed_set(9.75, 1.25);
  EXPECT_TRUE(a == slower);
  const DiffReport same = diff_result_sets(a, slower);
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.cells_compared, 2u);
  EXPECT_EQ(same.timing_cells_skipped, 1u);

  // A differing result cell in the same row is still caught.
  const ResultSet moved = timed_set(9.75, 1.5);
  EXPECT_FALSE(a == moved);
  const DiffReport report = diff_result_sets(a, moved);
  EXPECT_EQ(report.differing_cells, 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_NE(report.cells[0].location.find("(stretch)"), std::string::npos);

  // The column still renders.
  std::ostringstream csv;
  render_csv(slower.table("t"), csv);
  EXPECT_EQ(csv.str(), "n,solve_s,stretch\n4,9.75,1.2500\n");
}

TEST(Diff, AFileWithoutTimingMarksDiffsCleanAgainstAMarkedOne) {
  // A result written before the column was marked (no timing record)
  // against a marked one that differs only there: the mark on either
  // side skips the column.
  std::stringstream old_file(
      "cisp-result-v1\ntable t\tT\ncolumns n\tsolve_s\tstretch\n"
      "row i:4\tr2:0.5\tr4:1.25\nend\n");
  const ResultSet unmarked = deserialize(old_file);
  ASSERT_FALSE(unmarked.table("t").is_timing(1));
  const ResultSet marked = timed_set(3.0, 1.25);
  EXPECT_TRUE(diff_result_sets(unmarked, marked).identical());
  EXPECT_TRUE(diff_result_sets(marked, unmarked).identical());
  EXPECT_TRUE(unmarked == marked);
  EXPECT_FALSE(diff_result_sets(unmarked, timed_set(3.0, 2.0)).identical());
}

// ---------------------------------------------------------------------------
// Catalog: the real registrations linked into this binary
// ---------------------------------------------------------------------------

TEST(Catalog, GlobSelectsSubsets) {
  const auto& registry = ExperimentRegistry::instance();
  const auto fig04 = registry.match("fig04*");
  ASSERT_EQ(fig04.size(), 3u);
  EXPECT_EQ(fig04[0], "fig04a_budget_sweep");
  EXPECT_EQ(fig04[1], "fig04b_disjoint_paths");
  EXPECT_EQ(fig04[2], "fig04c_cost_throughput");
  EXPECT_EQ(registry.match("ablation_*").size(), 3u);
  EXPECT_TRUE(registry.match("no_such_experiment_*").empty());
}

TEST(Catalog, SpecsDeclareMetadata) {
  const auto& spec =
      ExperimentRegistry::instance().spec("fig07_weather");
  EXPECT_FALSE(spec.description.empty());
  EXPECT_TRUE(spec.has_param("days"));
  EXPECT_FALSE(spec.tags.empty());
}

// ---------------------------------------------------------------------------
// Runner: parameter routing, cache, CLI
// ---------------------------------------------------------------------------

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv = {"cisp_experiments"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(static_cast<int>(argv.size()), argv.data(), out,
                           err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(RunnerCli, ListShowsCatalog) {
  std::string out;
  ASSERT_EQ(cli({"list"}, &out), 0);
  EXPECT_NE(out.find("fig04a_budget_sweep"), std::string::npos);
  EXPECT_NE(out.find("quickstart"), std::string::npos);
  std::string described;
  ASSERT_EQ(cli({"list", "--describe"}, &described), 0);
  EXPECT_NE(described.find("--set days=<value>"), std::string::npos);
}

TEST(Catalog, ReadmeBlockIsTheListOutput) {
  // README's "### Experiment catalog" block is `list` output verbatim,
  // minus this binary's test fixtures and the trailing count line.
  std::ifstream readme(std::string(CISP_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme) << "cannot open README.md";
  std::vector<std::string> block;
  std::string line;
  while (std::getline(readme, line) && line != "### Experiment catalog") {
  }
  while (std::getline(readme, line) && line != "```") {
  }
  while (std::getline(readme, line) && line != "```") block.push_back(line);
  ASSERT_FALSE(block.empty()) << "no catalog block in README.md";

  std::string out;
  ASSERT_EQ(cli({"list"}, &out), 0);
  const auto& registry = ExperimentRegistry::instance();
  std::vector<std::string> listed;
  std::istringstream lines(out);
  while (std::getline(lines, line)) {
    const std::string name = line.substr(0, line.find(' '));
    if (!registry.contains(name)) continue;  // "N experiments"
    const auto& tags = registry.spec(name).tags;
    if (std::find(tags.begin(), tags.end(), "test") != tags.end()) continue;
    listed.push_back(line);
  }
  EXPECT_EQ(block, listed);
}

TEST(RunnerCli, SetOverridesReachTheExperiment) {
  std::string out;
  ASSERT_EQ(cli({"run", "unit_param_echo", "--no-cache", "--seed", "99",
                 "--set", "x=42.5", "--set", "label=hello"},
                &out),
            0);
  EXPECT_NE(out.find("42.500"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("99"), std::string::npos);
}

TEST(RunnerCli, UndeclaredSetKeyFailsForSingleExperiment) {
  std::string err;
  EXPECT_NE(cli({"run", "unit_param_echo", "--no-cache", "--set",
                 "nope=1"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("does not declare parameter 'nope'"), std::string::npos);
}

TEST(RunnerCli, RequireRowsFailsEmptyResultSets) {
  std::string err;
  EXPECT_NE(cli({"run", "unit_empty", "--no-cache", "--require-rows"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("empty ResultSet"), std::string::npos);
  EXPECT_EQ(cli({"run", "unit_empty", "--no-cache"}), 0);
}

TEST(RunnerCli, JsonFlagRendersJson) {
  std::string out;
  ASSERT_EQ(cli({"run", "unit_param_echo", "--no-cache", "--json"}, &out), 0);
  EXPECT_NE(out.find("{\"experiment\": \"unit_param_echo\""),
            std::string::npos);
}

TEST(RunnerCli, ThreadsAndSeedAcceptOnlyWholeUnsignedDecimals) {
  // Each value is refused by the flag parser, before any experiment (or
  // Executor) runs: stoul used to wrap "-1" and read "12abc" as 12.
  for (const char* flag : {"--threads", "--seed"}) {
    for (const char* value : {"-1", "12abc", "", "+3"}) {
      std::string out;
      std::string err;
      EXPECT_EQ(cli({"run", "unit_param_echo", "--no-cache", flag, value},
                    &out, &err),
                1)
          << flag << " " << value;
      EXPECT_NE(err.find(std::string(flag) +
                         " expects a whole unsigned decimal, got '" + value +
                         "'"),
                std::string::npos)
          << err;
      EXPECT_EQ(out.find("===="), std::string::npos) << out;
    }
  }
}

TEST(RunnerCli, SweepCombinesCellsBehindALeadingAxisColumn) {
  std::string out;
  ASSERT_EQ(cli({"sweep", "unit_param_echo", "--axis", "x=2,3.5", "--set",
                 "label=hi", "--seed", "7", "--fast", "--no-cache", "--json"},
                &out),
            0);
  // One combined table: the axis value leads every row, then the cell's
  // own columns (which here include the swept knob itself).
  EXPECT_NE(out.find("{\"experiment\": \"unit_param_echo_sweep\", "
                     "\"tables\": [{\"slug\": \"unit_param_echo\", "
                     "\"title\": \"echo\", \"columns\": [\"x\", \"x\", "
                     "\"label\", \"seed\", \"fast\"], \"rows\": "
                     "[[\"2\", 2.000, \"hi\", 7, \"fast\"], "
                     "[\"3.5\", 3.500, \"hi\", 7, \"fast\"]]}]"),
            std::string::npos)
      << out;
}

TEST(RunnerCli, SweepRejectsSettingTheAxisKeyAndRunOnlyFlags) {
  std::string err;
  EXPECT_NE(cli({"sweep", "unit_param_echo", "--axis", "x=1,2", "--set",
                 "x=3", "--no-cache"},
                nullptr, &err),
            0);
  EXPECT_NE(err.find("cannot also be --set"), std::string::npos) << err;
  for (const char* run_only : {"--metrics", "--trace"}) {
    EXPECT_NE(cli({"sweep", "unit_param_echo", "--axis", "x=1,2", run_only,
                   "t.json", "--no-cache"},
                  nullptr, &err),
              0);
    EXPECT_NE(err.find(std::string("unknown sweep flag: ") + run_only),
              std::string::npos)
        << err;
  }
}

TEST(CacheKey, DependsOnNameParamsSeedAndFast) {
  Params params;
  const std::uint64_t base = cache_key("exp", params, 0, false);
  EXPECT_EQ(base, cache_key("exp", params, 0, false));  // stable
  EXPECT_NE(base, cache_key("exp2", params, 0, false));
  EXPECT_NE(base, cache_key("exp", params, 1, false));
  EXPECT_NE(base, cache_key("exp", params, 0, true));
  Params with_param;
  with_param.set("x", "1");
  EXPECT_NE(base, cache_key("exp", with_param, 0, false));
}

TEST(CacheKey, EmbedsTheCodeVersion) {
  // The key must change across rebuilds: same experiment/params/seed under
  // a different code version is a different key, and the default version
  // is the build stamp baked into this binary.
  Params params;
  EXPECT_FALSE(build_stamp().empty());
  EXPECT_EQ(cache_key("exp", params, 0, false),
            cache_key("exp", params, 0, false, build_stamp()));
  EXPECT_NE(cache_key("exp", params, 0, false, "build-A"),
            cache_key("exp", params, 0, false, "build-B"));
}

TEST(Cache, RebuildInvalidatesEntriesFromTheOldBuild) {
  // Simulated rebuild via the cache_version override: an entry stored
  // under version A must be a miss under version B (recompute), and a hit
  // again under A — hit, miss-after-"rebuild", hit.
  TempDir dir("cisp-cache-version");
  RunnerOptions options;
  options.cache_dir = dir.path;
  options.cache_version = "build-A";
  std::ostringstream log;

  g_probe_executions = 0;
  EXPECT_FALSE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 1);
  EXPECT_TRUE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 1);

  options.cache_version = "build-B";  // the code changed
  EXPECT_FALSE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 2);

  options.cache_version = "build-A";  // old entries still keyed correctly
  EXPECT_TRUE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 2);
}

TEST(CacheKey, SeparatorCharactersInValuesCannotCollide) {
  // a="1|b=2" must not canonicalize identically to {a=1, b=2}.
  Params smuggled;
  smuggled.set("a", "1|b=2");
  Params split;
  split.set("a", "1");
  split.set("b", "2");
  EXPECT_NE(cache_key("exp", smuggled, 0, false),
            cache_key("exp", split, 0, false));
}

TEST(Cache, SecondRunHitsAndSkipsRecomputation) {
  TempDir dir("cisp-cache");
  RunnerOptions options;
  options.cache_dir = dir.path;
  options.seed = 7;
  std::ostringstream log;

  g_probe_executions = 0;
  const RunReport first = run_experiment("unit_cache_probe", options, log);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 1);

  const RunReport second = run_experiment("unit_cache_probe", options, log);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 1);  // skipped recomputation
  EXPECT_TRUE(first.results == second.results);
  EXPECT_NE(log.str().find("[cache] hit"), std::string::npos);

  // Different seed or parameter: a miss.
  options.seed = 8;
  EXPECT_FALSE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 2);
  options.overrides.set("x", "3");
  EXPECT_FALSE(run_experiment("unit_cache_probe", options, log).cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 3);
}

TEST(Cache, ProvenanceIsStampedAndRoundTripsThroughTheCache) {
  TempDir dir("cisp-provenance");
  RunnerOptions options;
  options.cache_dir = dir.path;
  options.seed = 11;
  options.fast = true;
  options.threads = 2;
  std::ostringstream log;
  g_probe_executions = 0;

  const RunReport fresh = run_experiment("unit_cache_probe", options, log);
  ASSERT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.results.provenance_value("experiment"), "unit_cache_probe");
  EXPECT_EQ(fresh.results.provenance_value("seed"), "11");
  EXPECT_EQ(fresh.results.provenance_value("fast"), "1");
  EXPECT_EQ(fresh.results.provenance_value("threads"), "2");
  EXPECT_EQ(fresh.results.provenance_value("build"),
            std::string(build_stamp()));
  EXPECT_FALSE(fresh.results.provenance_value("wall_ms").empty());
  EXPECT_EQ(fresh.results.provenance_value("absent_key"), "");

  // The cache entry carries the provenance of the run that produced it.
  const RunReport cached = run_experiment("unit_cache_probe", options, log);
  ASSERT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.results.provenance_value("experiment"),
            "unit_cache_probe");
  EXPECT_EQ(cached.results.provenance_value("seed"), "11");

  // Provenance describes the run, not the result: equality and diff both
  // ignore it, so entries from different machines / thread counts still
  // compare byte-identical.
  ResultSet a = fresh.results;
  ResultSet b = cached.results;
  b.set_provenance("threads", "64");
  b.set_provenance("extra", "only-here");
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(diff_result_sets(a, b).identical());

  // And no render sink leaks it.
  std::ostringstream pretty;
  render_pretty(b, pretty);
  EXPECT_EQ(pretty.str().find("only-here"), std::string::npos);
  std::ostringstream json;
  render_json(b, "unit_cache_probe", json);
  EXPECT_EQ(json.str().find("only-here"), std::string::npos);
}

TEST(Cache, CorruptEntryIsIgnoredAndRecomputed) {
  TempDir dir("cisp-cache-corrupt");
  RunnerOptions options;
  options.cache_dir = dir.path;
  std::ostringstream log;
  g_probe_executions = 0;
  (void)run_experiment("unit_cache_probe", options, log);
  ASSERT_EQ(g_probe_executions.load(), 1);
  // Truncate every cache entry.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::ofstream(entry.path()) << "garbage";
  }
  const RunReport report = run_experiment("unit_cache_probe", options, log);
  EXPECT_FALSE(report.cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 2);

  // A structurally valid file with a malformed cell tag throws from the
  // std::stoi path (std::invalid_argument, not cisp::Error) — it must
  // also be treated as a miss, not fail the run.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::ofstream(entry.path())
        << "cisp-result-v1\ntable t\tT\ncolumns c\nrow rX:1.0\nend\n";
  }
  const RunReport after_bad_tag =
      run_experiment("unit_cache_probe", options, log);
  EXPECT_FALSE(after_bad_tag.cache_hit);
  EXPECT_EQ(g_probe_executions.load(), 3);
}

// ---------------------------------------------------------------------------
// diff: cell-by-cell ResultSet comparison
// ---------------------------------------------------------------------------

TEST(Diff, IdenticalSetsHaveNoDifferences) {
  const DiffReport report = diff_result_sets(sample_set(), sample_set());
  EXPECT_TRUE(report.identical());
  EXPECT_GT(report.cells_compared, 0u);
  EXPECT_EQ(report.differing_cells, 0u);
}

TEST(Diff, RealCellsRespectTolerance) {
  ResultSet a;
  a.add_table("t", "T", {"x"}).row({Value::real(1.000, 3)});
  ResultSet b;
  b.add_table("t", "T", {"x"}).row({Value::real(1.004, 3)});

  EXPECT_FALSE(diff_result_sets(a, b).identical());
  DiffOptions absolute;
  absolute.abs_tolerance = 0.01;
  EXPECT_TRUE(diff_result_sets(a, b, absolute).identical());
  DiffOptions relative;
  relative.rel_tolerance = 0.01;
  EXPECT_TRUE(diff_result_sets(a, b, relative).identical());
}

TEST(Diff, NonFiniteCellsNeverMatchFiniteOnes) {
  // inf * rel_tolerance must not swallow a finite counterpart; same-value
  // non-finite cells still compare equal.
  const double inf = std::numeric_limits<double>::infinity();
  ResultSet a;
  a.add_table("t", "T", {"x", "y"})
      .row({Value::real(inf, 3), Value::real(inf, 3)});
  ResultSet b;
  b.add_table("t", "T", {"x", "y"})
      .row({Value::real(1.0, 3), Value::real(inf, 3)});
  DiffOptions generous;
  generous.rel_tolerance = 0.5;
  generous.abs_tolerance = 1e9;
  const DiffReport report = diff_result_sets(a, b, generous);
  EXPECT_EQ(report.differing_cells, 1u);  // x differs, y (inf vs inf) matches

  ResultSet c;
  c.add_table("t", "T", {"x", "y"})
      .row({Value::real(-inf, 3), Value::real(inf, 3)});
  EXPECT_EQ(diff_result_sets(a, c, generous).differing_cells, 1u);
}

TEST(Diff, ReportsStructuralAndCellMismatches) {
  ResultSet a;
  a.add_table("shared", "S", {"x", "label"})
      .row({Value::real(1.0, 2), "same"});
  a.add_table("only_a", "A", {"x"}).row({1});
  ResultSet b;
  b.add_table("shared", "S", {"x", "label"})
      .row({Value::real(2.0, 2), "same"});

  const DiffReport report = diff_result_sets(a, b);
  ASSERT_EQ(report.structural.size(), 1u);
  EXPECT_NE(report.structural[0].find("only_a"), std::string::npos);
  EXPECT_EQ(report.differing_cells, 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_NE(report.cells[0].location.find("shared[0][0]"),
            std::string::npos);
  // Integer/text cells always compare exactly, reals by kind first.
  ResultSet c;
  c.add_table("shared", "S", {"x", "label"}).row({1, "same"});
  EXPECT_FALSE(diff_result_sets(a, c).identical());
}

TEST(Diff, PrecisionAndMoneyFlagMismatchesAreDifferingCells) {
  // Same double, different rendering: "r3:" -> "r2:" changes every CSV of
  // the table, so it must not pass at tolerance 0.
  std::stringstream three("cisp-result-v1\ntable t\tT\ncolumns x\n"
                          "row r3:1.25\nend\n");
  std::stringstream two("cisp-result-v1\ntable t\tT\ncolumns x\n"
                        "row r2:1.25\nend\n");
  const DiffReport report =
      diff_result_sets(deserialize(three), deserialize(two));
  EXPECT_EQ(report.differing_cells, 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].a, "1.250");
  EXPECT_EQ(report.cells[0].b, "1.25");

  ResultSet plain;
  plain.add_table("t", "T", {"x"}).row({Value::real(0.81, 2)});
  ResultSet money;
  money.add_table("t", "T", {"x"}).row({Value::money(0.81, 2)});
  EXPECT_EQ(diff_result_sets(plain, money).differing_cells, 1u);
}

TEST(Diff, ARetitledTableIsAStructuralDifference) {
  ResultSet a;
  a.add_table("t", "Old title", {"x"}).row({1});
  ResultSet b;
  b.add_table("t", "New title", {"x"}).row({1});
  const DiffReport report = diff_result_sets(a, b);
  EXPECT_FALSE(report.identical());
  EXPECT_EQ(report.differing_cells, 0u);
  ASSERT_EQ(report.structural.size(), 1u);
  EXPECT_NE(report.structural[0].find("'Old title' in A vs 'New title' in B"),
            std::string::npos)
      << report.structural[0];
}

TEST(DiffCli, ComparesCachedRunsEndToEnd) {
  // Two cached runs of the echo fixture with different x: the diff
  // subcommand must resolve name prefixes in --cache-dir, exit nonzero on
  // the difference, and pass under a generous tolerance.
  TempDir dir("cisp-diff-cli");
  ASSERT_EQ(cli({"run", "unit_param_echo", "--cache-dir", dir.path,
                 "--set", "x=1.0"}),
            0);
  ASSERT_EQ(cli({"run", "unit_param_echo", "--cache-dir", dir.path,
                 "--set", "x=1.5"}),
            0);
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    entries.push_back(entry.path().string());
  }
  ASSERT_EQ(entries.size(), 2u);
  std::sort(entries.begin(), entries.end());

  std::string out;
  EXPECT_EQ(cli({"diff", entries[0], entries[1]}, &out), 1);
  EXPECT_NE(out.find("1 differ"), std::string::npos);
  EXPECT_EQ(cli({"diff", entries[0], entries[1], "--tolerance", "1"}, &out),
            0);
  EXPECT_NE(out.find("identical within tolerance"), std::string::npos);
  // A file diffed against itself is identical with zero tolerance.
  EXPECT_EQ(cli({"diff", entries[0], entries[0]}), 0);
  // Prefix resolution: unique prefixes resolve inside --cache-dir; the
  // shared experiment-name prefix is ambiguous.
  std::string err;
  EXPECT_EQ(cli({"diff", "unit_param_echo", "unit_param_echo",
                 "--cache-dir", dir.path},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("ambiguous"), std::string::npos);
}

TEST(RunnerCli, DiffToleranceFlagsAcceptOnlyFiniteNonNegativeDecimals) {
  // stod used to read "0.5abc" as 0.5 and let "-1" or "nan" report two
  // different runs as identical. Each value is refused before any file
  // is opened.
  for (const char* flag : {"--tolerance", "--relative"}) {
    for (const char* value : {"0.5abc", "-1", "nan", "inf", ""}) {
      std::string out;
      std::string err;
      EXPECT_EQ(cli({"diff", flag, value, "a.result", "b.result"}, &out,
                    &err),
                1)
          << flag << " " << value;
      EXPECT_NE(err.find(std::string(flag) +
                         " expects a finite decimal >= 0, got '" + value +
                         "'"),
                std::string::npos)
          << err;
      EXPECT_EQ(out.find("identical"), std::string::npos) << out;
    }
  }
}

TEST(RunnerCli, CsvOutputIsIdenticalAcrossThreadCounts) {
  // The acceptance contract on real figure sweeps (fig04a at --threads 1
  // vs 4) exercised here on a cheap fixture: CSV bytes must not depend on
  // the thread count, and the cache key must not either.
  TempDir csv1("cisp-csv-t1");
  TempDir csv4("cisp-csv-t4");
  ASSERT_EQ(cli({"run", "unit_param_echo", "--no-cache", "--threads", "1",
                 "--csv-dir", csv1.path}),
            0);
  ASSERT_EQ(cli({"run", "unit_param_echo", "--no-cache", "--threads", "4",
                 "--csv-dir", csv4.path}),
            0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a =
      slurp(csv1.path + "/unit_param_echo.csv");
  const std::string b =
      slurp(csv4.path + "/unit_param_echo.csv");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cisp::engine
