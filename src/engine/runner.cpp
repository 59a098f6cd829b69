#include "engine/runner.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "engine/diff.hpp"
#include "engine/report.hpp"
#include "obs/bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

// Generated by cmake/GenerateBuildHash.cmake into the build tree: defines
// CISP_BUILD_HASH as a SHA-256 over every source file, regenerated (and
// this TU recompiled) whenever any source changes.
#if defined(__has_include)
#if __has_include(<cisp_build_hash.h>)
#include <cisp_build_hash.h>
#endif
#endif

namespace cisp::engine {

namespace {

std::string key_hex(std::uint64_t key) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << key;
  return os.str();
}

std::string cache_path(const RunnerOptions& options, const std::string& name,
                       std::uint64_t key) {
  return (std::filesystem::path(options.cache_dir) /
          (name + "-" + key_hex(key) + ".result"))
      .string();
}

/// The overrides that apply to this experiment: declared keys only. When
/// `strict`, an undeclared key is an error (single-experiment runs); in
/// glob runs undeclared keys are skipped with a log line so one --set can
/// target a subset of the matched experiments.
Params applied_params(const ExperimentSpec& spec, const Params& overrides,
                      bool strict, std::ostream& log) {
  Params applied;
  for (const auto& [key, value] : overrides.entries()) {
    if (spec.has_param(key)) {
      applied.set(key, value);
    } else if (strict) {
      std::string declared;
      for (const auto& p : spec.params) {
        if (!declared.empty()) declared += ", ";
        declared += p.name;
      }
      CISP_REQUIRE(false, "experiment " + spec.name +
                              " does not declare parameter '" + key +
                              "' (declared: " +
                              (declared.empty() ? "none" : declared) + ")");
    } else {
      log << "[skip] " << spec.name << " does not declare parameter '" << key
          << "'\n";
    }
  }
  return applied;
}

/// The value of the flag at args[i]; advances i past it.
const std::string& flag_value(const std::vector<std::string>& args,
                              std::size_t& i) {
  CISP_REQUIRE(i + 1 < args.size(), "flag " + args[i] + " needs a value");
  return args[++i];
}

/// The value of --threads/--seed: a whole unsigned decimal and nothing
/// else. std::stoul would wrap "-1" to 2^64-1 and read "12abc" as 12.
std::uint64_t unsigned_flag_value(const std::vector<std::string>& args,
                                  std::size_t& i) {
  const std::string& flag = args[i];
  const std::string& text = flag_value(args, i);
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  CISP_REQUIRE(ec == std::errc{} && ptr == end,
               flag + " expects a whole unsigned decimal, got '" + text +
                   "'");
  return value;
}

/// The value of diff's --tolerance/--relative: a whole decimal that is
/// finite and >= 0. std::stod would read "0.5abc" as 0.5 and let "-1" or
/// "nan" make every cell compare as equal.
double tolerance_flag_value(const std::vector<std::string>& args,
                            std::size_t& i) {
  const std::string& flag = args[i];
  const std::string& text = flag_value(args, i);
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  CISP_REQUIRE(ec == std::errc{} && ptr == end && std::isfinite(value) &&
                   value >= 0.0,
               flag + " expects a finite decimal >= 0, got '" + text + "'");
  return value;
}

/// Parses args[i] into `options` when it is a flag that run and sweep
/// share: --threads, --seed, --fast, --set, --csv-dir, --json,
/// --no-cache, --cache-dir and --require-rows. Advances i past a consumed
/// value; returns false for any other argument.
bool parse_shared_flag(const std::vector<std::string>& args, std::size_t& i,
                       RunnerOptions& options) {
  const std::string& arg = args[i];
  if (arg == "--threads") {
    options.threads = static_cast<std::size_t>(unsigned_flag_value(args, i));
  } else if (arg == "--seed") {
    options.seed = unsigned_flag_value(args, i);
  } else if (arg == "--fast") {
    options.fast = true;
  } else if (arg == "--set") {
    const std::string& kv = flag_value(args, i);
    const auto eq = kv.find('=');
    CISP_REQUIRE(eq != std::string::npos && eq > 0,
                 "--set expects key=value, got: " + kv);
    options.overrides.set(kv.substr(0, eq), kv.substr(eq + 1));
  } else if (arg == "--csv-dir") {
    options.csv_dir = flag_value(args, i);
  } else if (arg == "--json") {
    options.json = true;
  } else if (arg == "--no-cache") {
    options.use_cache = false;
  } else if (arg == "--cache-dir") {
    options.cache_dir = flag_value(args, i);
  } else if (arg == "--require-rows") {
    options.require_rows = true;
  } else {
    return false;
  }
  return true;
}

void usage(std::ostream& err) {
  err << "usage: cisp_experiments <command> [args]\n"
         "\n"
         "commands:\n"
         "  list [--describe]       list registered experiments\n"
         "  describe <name>         show one experiment's metadata\n"
         "  run <name|glob>...      run experiments (globs: * and ?)\n"
         "  sweep <name>            fan one experiment over an --axis\n"
         "                          k=v1,v2,... (each value runs through\n"
         "                          the result cache; rows are combined\n"
         "                          into one table per slug, prefixed by\n"
         "                          the axis value)\n"
         "  diff <run-a> <run-b>    compare two cached ResultSets\n"
         "                          cell-by-cell (args: paths to .result\n"
         "                          files, or unique name prefixes resolved\n"
         "                          in --cache-dir)\n"
         "  perf                    run the hot-path benchmark suite once\n"
         "                          (--out), or gate head samples against\n"
         "                          base samples (--against/--current)\n"
         "\n"
         "diff flags:\n"
         "  --tolerance T   absolute tolerance for real cells (default 0)\n"
         "  --relative R    relative tolerance for real cells (default 0)\n"
         "  --cache-dir DIR where prefixes resolve (default .cisp-cache)\n"
         "\n"
         "run flags:\n"
         "  --threads N     worker threads (0 = all cores; results are\n"
         "                  identical for every value)\n"
         "  --seed S        base seed forwarded to experiments (default 0)\n"
         "  --fast          coarse substrates for smoke runs\n"
         "  --set k=v       override a declared parameter (repeatable)\n"
         "  --csv-dir DIR   write one CSV per result table into DIR\n"
         "  --json          print results as JSON instead of tables\n"
         "  --no-cache      disable the result cache (read and write)\n"
         "  --cache-dir DIR result cache location (default .cisp-cache)\n"
         "  --require-rows  fail if an experiment returns no rows\n"
         "  --metrics       collect runtime metrics and print a per-\n"
         "                  experiment snapshot (results stay byte-\n"
         "                  identical with metrics on or off)\n"
         "  --trace FILE    write a Chrome trace-event JSON of the run\n"
         "                  (load in Perfetto / chrome://tracing)\n"
         "\n"
         "sweep flags (plus the run flags above but --metrics/--trace):\n"
         "  --axis k=v1,v2,...  the swept parameter and its values\n"
         "                      (exactly one --axis; values comma-split)\n"
         "\n"
         "perf flags (run mode):\n"
         "  --out FILE      write the suite's BENCH json to FILE (required)\n"
         "  --fast          the reduced-size suite\n"
         "\n"
         "perf flags (compare mode; each repeatable, >= 5 samples a side):\n"
         "  --against FILE  a base sample\n"
         "  --current FILE  a head sample\n"
         "                  exit 1 when a kernel's head median is > 10%\n"
         "                  above base's AND the gap exceeds the wider\n"
         "                  side's interquartile distance ('unresolved'\n"
         "                  otherwise)\n";
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  CISP_REQUIRE(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// `perf` has two modes. Run: time the micro_perf suite once and write
/// one BENCH json sample. Compare: gate head samples against base samples
/// (obs::compare_bench); both sides are built from source and run
/// interleaved on one host, so every sample shares the host's noise.
int cmd_perf(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  RunnerOptions options;
  options.use_cache = false;  // measuring: a cache hit would time nothing
  std::string out_path;
  std::vector<std::string> against_paths;
  std::vector<std::string> current_paths;
  bool run_flags = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--fast") {
      options.fast = true;
      run_flags = true;
    } else if (arg == "--out") {
      out_path = flag_value(args, i);
      run_flags = true;
    } else if (arg == "--against") {
      against_paths.push_back(flag_value(args, i));
    } else if (arg == "--current") {
      current_paths.push_back(flag_value(args, i));
    } else {
      err << "unknown perf flag: " << arg << '\n';
      return 1;
    }
  }
  const bool compare = !against_paths.empty() || !current_paths.empty();
  if (compare && run_flags) {
    err << "perf: --against/--current compare saved samples; they do not "
           "mix with --out/--fast\n";
    return 1;
  }

  if (compare) {
    const auto load = [](const std::vector<std::string>& paths) {
      std::vector<obs::BenchReport> samples;
      for (const std::string& path : paths) {
        samples.push_back(obs::parse_bench_json(read_text_file(path)));
      }
      return samples;
    };
    const auto rows = obs::compare_bench(load(against_paths),
                                         load(current_paths));
    const std::size_t regressions = obs::render_bench_comparison(out, rows);
    const auto count = [&rows](obs::BenchStatus status) {
      return std::count_if(rows.begin(), rows.end(),
                           [status](const obs::BenchComparison& row) {
                             return row.status == status;
                           });
    };
    out << "[perf] " << against_paths.size() << " base vs "
        << current_paths.size() << " head samples: " << regressions
        << " regression(s); " << count(obs::BenchStatus::kRemoved)
        << " removed, " << count(obs::BenchStatus::kAdded)
        << " added kernel(s) (not gated)\n";
    return regressions == 0 ? 0 : 1;
  }

  if (out_path.empty()) {
    err << "perf needs --out FILE (run the suite) or --against/--current "
           "samples (compare)\n";
    return 1;
  }
  obs::BenchReport report;
  report.build = std::string(build_stamp());
  report.fast = options.fast;
  report.threads = options.threads;
  out << "[perf] hot-path suite (" << (options.fast ? "fast" : "full")
      << " mode)\n";
  const RunReport kernels = run_experiment("micro_perf", options, out);
  const ResultTable& table = kernels.results.table("kernels");
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    obs::BenchEntry entry;
    entry.name = table.at(r, 0).as_text();
    entry.reps = static_cast<std::uint64_t>(table.at(r, 1).as_int());
    entry.ns_per_op = table.at(r, 2).as_real();
    out << "[perf] " << entry.name << ": " << entry.ns_per_op << " ns/op\n";
    report.entries.push_back(std::move(entry));
  }
  std::ofstream file(out_path);
  CISP_REQUIRE(static_cast<bool>(file), "cannot write " + out_path);
  obs::write_bench_json(file, report);
  out << "[perf] wrote " << out_path << " (" << report.entries.size()
      << " entries, build " << report.build << ")\n";
  return 0;
}

void describe_experiment(const ExperimentSpec& spec, std::ostream& out) {
  out << spec.name << "\n  " << spec.description << '\n';
  if (!spec.tags.empty()) {
    out << "  tags: ";
    for (std::size_t t = 0; t < spec.tags.size(); ++t) {
      out << (t ? ", " : "") << spec.tags[t];
    }
    out << '\n';
  }
  for (const auto& p : spec.params) {
    out << "  --set " << p.name << "=<value>  (default " << p.default_value
        << ") " << p.description << '\n';
  }
}

int cmd_list(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  bool describe = false;
  for (const auto& arg : args) {
    if (arg == "--describe") {
      describe = true;
    } else {
      err << "unknown list flag: " << arg << '\n';
      return 1;
    }
  }
  const auto specs = ExperimentRegistry::instance().list();
  if (describe) {
    for (const auto& spec : specs) describe_experiment(spec, out);
  } else {
    std::size_t width = 0;
    for (const auto& spec : specs) width = std::max(width, spec.name.size());
    for (const auto& spec : specs) {
      out << spec.name << std::string(width - spec.name.size() + 2, ' ')
          << spec.description << '\n';
    }
  }
  out << specs.size() << " experiments\n";
  return 0;
}

int cmd_describe(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.size() != 1) {
    err << "describe takes exactly one experiment name\n";
    return 1;
  }
  describe_experiment(ExperimentRegistry::instance().spec(args[0]), out);
  return 0;
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  RunnerOptions options;
  std::string trace_path;
  std::vector<std::string> patterns;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (parse_shared_flag(args, i, options)) continue;
    if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--trace") {
      trace_path = flag_value(args, i);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown run flag: " << arg << '\n';
      return 1;
    } else {
      patterns.push_back(arg);
    }
  }
  if (patterns.empty()) {
    err << "run needs at least one experiment name or glob\n";
    return 1;
  }

  auto& registry = ExperimentRegistry::instance();
  std::vector<std::string> names;
  for (const auto& pattern : patterns) {
    const auto matched = registry.match(pattern);
    if (matched.empty()) {
      err << "no experiment matches '" << pattern << "'\n";
      return 1;
    }
    for (const auto& name : matched) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }

  options.strict_params = names.size() == 1;
  if (!trace_path.empty()) {
    obs::set_trace_enabled(true);
    obs::clear_trace();
  }
  int failures = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  for (const auto& name : names) {
    out << "==== " << name << " ====\n";
    try {
      const obs::TraceSpan span("run." + name, "runner");
      const RunReport report = run_experiment(name, options, out);
      (report.cache_hit ? cache_hits : cache_misses) += 1;
      if (options.json) {
        render_json(report.results, name, out);
      } else {
        render_pretty(report.results, out);
      }
      if (options.metrics && !report.metrics.empty()) {
        render_pretty(report.metrics, out);
      }
      if (options.require_rows && report.results.empty()) {
        err << "experiment " << name << " produced an empty ResultSet\n";
        ++failures;
      }
    } catch (const std::exception& e) {
      err << "experiment " << name << " failed: " << e.what() << '\n';
      ++failures;
    }
    out << '\n';
  }
  if (options.use_cache) {
    out << "[cache] " << cache_hits << " hit / " << cache_misses
        << " computed\n";
  }
  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    std::ofstream trace_file(trace_path);
    if (trace_file) {
      obs::write_chrome_trace(trace_file);
      out << "[trace] wrote " << trace_path << " ("
          << obs::trace_events().size() << " events";
      if (obs::trace_dropped_events() > 0) {
        out << ", " << obs::trace_dropped_events() << " dropped";
      }
      out << ")\n";
    } else {
      err << "[trace] cannot open " << trace_path << '\n';
      ++failures;
    }
  }
  if (options.metrics) obs::set_metrics_enabled(false);
  return failures == 0 ? 0 : 1;
}

/// `sweep <name> --axis k=v1,v2,...`: one experiment fanned over the axis
/// values. Each value is an ordinary cached run (same key derivation as
/// `run --set k=v`), so re-sweeping after a code change recomputes only
/// what the build hash invalidates; the combined view concatenates the
/// per-value tables row-wise behind a leading axis column.
int cmd_sweep(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  RunnerOptions options;
  std::string axis_key;
  std::vector<std::string> axis_values;
  std::string name;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (parse_shared_flag(args, i, options)) continue;
    if (arg == "--axis") {
      CISP_REQUIRE(axis_key.empty(), "sweep takes exactly one --axis");
      const std::string& kv = flag_value(args, i);
      const auto eq = kv.find('=');
      CISP_REQUIRE(eq != std::string::npos && eq > 0,
                   "--axis expects key=v1,v2,..., got: " + kv);
      axis_key = kv.substr(0, eq);
      std::string values = kv.substr(eq + 1);
      std::size_t start = 0;
      while (start <= values.size()) {
        const std::size_t comma = values.find(',', start);
        const std::string token =
            values.substr(start, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - start);
        CISP_REQUIRE(!token.empty(),
                     "--axis has an empty value in: " + kv);
        axis_values.push_back(token);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown sweep flag: " << arg << '\n';
      return 1;
    } else {
      CISP_REQUIRE(name.empty(),
                   "sweep takes exactly one experiment name, got '" + name +
                       "' and '" + arg + "'");
      name = arg;
    }
  }
  if (name.empty() || axis_key.empty()) {
    err << "sweep needs an experiment name and one --axis k=v1,v2,...\n";
    return 1;
  }
  CISP_REQUIRE(!options.overrides.contains(axis_key),
               "the --axis parameter cannot also be --set");

  options.strict_params = true;  // the axis key must be declared
  ResultSet combined;
  std::map<std::string, ResultTable*> merged_tables;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  int failures = 0;
  for (const std::string& value : axis_values) {
    out << "==== " << name << " " << axis_key << "=" << value << " ====\n";
    RunnerOptions cell = options;
    cell.overrides.set(axis_key, value);
    try {
      const RunReport report = run_experiment(name, cell, out);
      (report.cache_hit ? cache_hits : cache_misses) += 1;
      if (options.require_rows && report.results.empty()) {
        err << "experiment " << name << " produced an empty ResultSet at "
            << axis_key << "=" << value << '\n';
        ++failures;
      }
      for (const ResultTable& table : report.results.tables()) {
        std::vector<std::string> columns = {axis_key};
        for (const std::string& c : table.columns()) columns.push_back(c);
        auto [it, inserted] = merged_tables.try_emplace(table.slug(), nullptr);
        if (inserted) {
          it->second = &combined.add_table(table.slug(), table.title(),
                                           columns);
        }
        ResultTable& merged = *it->second;
        CISP_REQUIRE(merged.columns().size() == columns.size(),
                     "sweep cells disagree on the shape of table '" +
                         table.slug() + "'");
        for (const auto& cells : table.rows()) {
          std::vector<Value> row = {Value::text(value)};
          for (const Value& v : cells) row.push_back(v);
          merged.row(std::move(row));
        }
      }
    } catch (const std::exception& e) {
      err << "experiment " << name << " failed at " << axis_key << "="
          << value << ": " << e.what() << '\n';
      ++failures;
    }
  }
  combined.note("sweep: " + name + " over " + axis_key + " (" +
                std::to_string(axis_values.size()) + " values)");
  out << "\n==== combined (" << axis_key << ") ====\n";
  if (options.json) {
    render_json(combined, name + "_sweep", out);
  } else {
    render_pretty(combined, out);
  }
  if (options.use_cache) {
    out << "[cache] " << cache_hits << " hit / " << cache_misses
        << " computed\n";
  }
  return failures == 0 ? 0 : 1;
}

/// Resolves a `diff` argument: an existing file wins; otherwise it is a
/// name prefix matched against the cache directory's .result entries,
/// required to be unique.
std::string resolve_result_path(const std::string& arg,
                                const std::string& cache_dir) {
  if (std::filesystem::exists(arg)) return arg;
  std::vector<std::string> matches;
  if (std::filesystem::is_directory(cache_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() == ".result" &&
          name.rfind(arg, 0) == 0) {
        matches.push_back(entry.path().string());
      }
    }
  }
  CISP_REQUIRE(!matches.empty(),
               "'" + arg + "' is neither a file nor a prefix of any .result "
               "entry in " + cache_dir);
  std::sort(matches.begin(), matches.end());
  if (matches.size() > 1) {
    std::string listing;
    for (const auto& m : matches) listing += "\n  " + m;
    CISP_REQUIRE(false, "'" + arg + "' is ambiguous in " + cache_dir + ":" +
                            listing);
  }
  return matches.front();
}

ResultSet load_result_file(const std::string& path) {
  std::ifstream in(path);
  CISP_REQUIRE(static_cast<bool>(in), "cannot open " + path);
  return deserialize(in);
}

int cmd_diff(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  DiffOptions options;
  std::string cache_dir = ".cisp-cache";
  std::vector<std::string> runs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--tolerance") {
      options.abs_tolerance = tolerance_flag_value(args, i);
    } else if (arg == "--relative") {
      options.rel_tolerance = tolerance_flag_value(args, i);
    } else if (arg == "--cache-dir") {
      cache_dir = flag_value(args, i);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown diff flag: " << arg << '\n';
      return 1;
    } else {
      runs.push_back(arg);
    }
  }
  if (runs.size() != 2) {
    err << "diff takes exactly two cached runs (got " << runs.size()
        << ")\n";
    return 1;
  }
  const std::string path_a = resolve_result_path(runs[0], cache_dir);
  const std::string path_b = resolve_result_path(runs[1], cache_dir);
  out << "--- " << path_a << "\n+++ " << path_b << '\n';
  const DiffReport report = diff_result_sets(
      load_result_file(path_a), load_result_file(path_b), options);
  render_diff(report, out);
  return report.identical() ? 0 : 1;
}

}  // namespace

std::string_view build_stamp() noexcept {
#ifdef CISP_BUILD_HASH
  return CISP_BUILD_HASH;
#else
  // No generated source-tree hash (build system bypassed): fall back to
  // the compile timestamp of this TU, which at least changes on full
  // rebuilds.
  return __DATE__ " " __TIME__;
#endif
}

std::uint64_t cache_key(const std::string& name, const Params& applied,
                        std::uint64_t seed, bool fast,
                        std::string_view version) {
  if (version.empty()) version = build_stamp();
  // Canonical key text; params are sorted by construction (std::map).
  // Separator characters inside names/values are escaped so distinct
  // parameter sets can never canonicalize to the same string (e.g.
  // a="1|b=2" vs a=1,b=2).
  const auto escaped = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
      if (ch == '\\' || ch == '|' || ch == '=') out += '\\';
      out += ch;
    }
    return out;
  };
  std::string canonical = "cisp-cache-v2|code=" +
                          escaped(std::string(version)) + "|" +
                          escaped(name) + "|seed=" +
                          std::to_string(seed) + "|fast=" +
                          (fast ? "1" : "0");
  for (const auto& [key, value] : applied.entries()) {
    canonical += "|" + escaped(key) + "=" + escaped(value);
  }
  // FNV-1a 64-bit.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char ch : canonical) {
    hash ^= ch;
    hash *= 1099511628211ULL;
  }
  return hash;
}

RunReport run_experiment(const std::string& name,
                         const RunnerOptions& options, std::ostream& log) {
  auto& registry = ExperimentRegistry::instance();
  const ExperimentSpec& spec = registry.spec(name);
  Params applied =
      applied_params(spec, options.overrides, options.strict_params, log);

  if (options.metrics) {
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
  }

  const std::uint64_t key = cache_key(name, applied, options.seed,
                                      options.fast, options.cache_version);
  const std::string path = cache_path(options, name, key);
  RunReport report;
  report.name = name;
  report.key = key;

  static obs::Counter& cache_hits = obs::counter("cache.hit");
  static obs::Counter& cache_misses = obs::counter("cache.miss");
  static obs::Counter& cache_unreadable = obs::counter("cache.unreadable");
  static obs::Counter& cache_stores = obs::counter("cache.store");

  if (options.use_cache) {
    std::ifstream cached(path);
    if (cached) {
      try {
        report.results = deserialize(cached);
        report.cache_hit = true;
        cache_hits.add();
        obs::trace_instant("cache.hit", "cache");
        log << "[cache] hit " << path << " — skipping recomputation\n";
      } catch (const std::exception&) {
        // Any parse failure (cisp::Error, stoi, ...) means the entry is
        // unreadable: recompute rather than fail the run.
        report.results = ResultSet{};
        cache_unreadable.add();
        obs::trace_instant("cache.unreadable", "cache");
        log << "[cache] ignoring unreadable entry " << path << '\n';
      }
    }
  }

  if (!report.cache_hit) {
    cache_misses.add();
    ExperimentContext ctx;
    ctx.threads = options.threads;
    ctx.base_seed = options.seed;
    ctx.fast = options.fast;
    ctx.params = applied;
    const auto started = std::chrono::steady_clock::now();
    report.results = registry.run(name, ctx);
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - started;

    // Run provenance: metadata stamped into the ResultSet (and therefore
    // the cache entry), hostname-free by design. It never participates in
    // equality, diffs or rendering — thread count and wall time vary
    // between byte-identical runs.
    report.results.set_provenance("experiment", name);
    report.results.set_provenance("build", std::string(build_stamp()));
    report.results.set_provenance("seed", std::to_string(options.seed));
    report.results.set_provenance("fast", options.fast ? "1" : "0");
    report.results.set_provenance("threads",
                                  std::to_string(options.threads));
    report.results.set_provenance(
        "wall_ms", std::to_string(static_cast<std::uint64_t>(wall.count())));
    std::string param_text;
    for (const auto& [k, v] : applied.entries()) {
      if (!param_text.empty()) param_text += ' ';
      param_text += k + "=" + v;
    }
    report.results.set_provenance("params", param_text);

    if (options.use_cache) {
      std::filesystem::create_directories(options.cache_dir);
      std::ofstream file(path);
      if (file) {
        serialize(report.results, file);
        cache_stores.add();
        log << "[cache] stored " << path << '\n';
      }
    }
  }

  if (options.metrics) {
    auto& table = report.metrics.add_table(
        "metrics", "Runtime metrics (" + name + ")",
        {"metric", "kind", "count", "total_ms", "detail"});
    for (const obs::MetricRow& row : obs::metrics_snapshot()) {
      table.row({Value::text(row.name), Value::text(row.kind),
                 Value::integer(static_cast<std::int64_t>(row.count)),
                 row.kind == "timer"
                     ? Value::real(static_cast<double>(row.total_ns) / 1e6, 3)
                     : Value{},
                 row.detail.empty() ? Value{} : Value::text(row.detail)});
    }
  }

  if (!options.csv_dir.empty()) {
    for (const auto& written : write_csv_dir(report.results,
                                             options.csv_dir)) {
      log << "[csv] wrote " << written << '\n';
    }
  }
  return report;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage(err);
    return 1;
  }
  const std::string command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "list") return cmd_list(rest, out, err);
    if (command == "describe") return cmd_describe(rest, out, err);
    if (command == "run") return cmd_run(rest, out, err);
    if (command == "sweep") return cmd_sweep(rest, out, err);
    if (command == "diff") return cmd_diff(rest, out, err);
    if (command == "perf") return cmd_perf(rest, out, err);
    if (command == "--help" || command == "help") {
      usage(out);
      return 0;
    }
    err << "unknown command: " << command << '\n';
    usage(err);
    return 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace cisp::engine
