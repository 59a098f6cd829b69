// cisp_perfbench: the repository's benchmark program. One process runs one
// workload with a fixed worker-thread count and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// on an untraced run (--trace 0), the per-layer metrics on a traced run
// (--trace 1). See perfbench/README.md for the workloads and the layer
// map.
//
//   cisp_perfbench --workload timeline_weather --seed 1 --seconds 25 \
//                  --trace 0 [--log steps.tsv]

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "setup.hpp"

namespace perfbench {
namespace {

/// Per-layer catalog, in print order: name, unit, and the end-to-end
/// metric @ workload the layer should move. A traced run prints every
/// entry; layers a workload never enters read 0.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};
const LayerSpec kLayers[] = {
    {"terrain.raster_ms", "ms", "setup_s @ every workload"},
    {"terrain.cells", "count", "setup_s @ every workload"},
    {"infra.towers_ms", "ms", "setup_s @ every workload"},
    {"infra.towers", "count", "setup_s @ every workload"},
    {"design.hop_graph_ms", "ms", "setup_s @ every workload"},
    {"design.feasible_hops", "count", "setup_s @ every workload"},
    {"setup.construct_ms", "ms", "setup_s @ every workload"},
    {"design.problem_ms", "ms", "setup_s @ every workload"},
    {"design.link_eng_ms", "ms", "setup_s @ every workload"},
    {"design.candidates", "count", "setup_s @ every workload"},
    {"design.greedy_ms", "ms", "setup_s @ every workload"},
    {"design.capacity_ms", "ms", "setup_s @ every workload"},
    {"greedy.rescore", "count", "setup_s @ every workload"},
    {"greedy.swap_rounds", "count", "setup_s @ every workload"},
    {"flow.max_min_ms", "ms",
     "steps_per_s, step_ms_p50 @ timeline_weather; step_ms_p50 @ "
     "timeline_te_overload"},
    {"flow.max_min.rounds", "count", "step_ms_p50 @ timeline_*"},
    {"flow.warm_reuse_pct", "%", "step_ms_p50 @ timeline_*"},
    {"control.repair_ms", "ms", "step_ms_p90 @ timeline_weather"},
    {"control.repair.touched_pairs", "count",
     "step_ms_p90 @ timeline_weather"},
    {"control.repair.changed_pairs", "count",
     "step_ms_p90 @ timeline_weather"},
    {"timeline.self_ms", "ms", "step_ms_p50 @ timeline_weather"},
    {"te.split_ms", "ms", "steps_per_s, step_ms_p90 @ timeline_te_overload"},
    {"te.resolve_ms_p50", "ms", "step_ms_p90 @ timeline_te_overload"},
    {"te.solution_reuse_pct", "%", "steps_per_s @ timeline_te_overload"},
    {"te.candidate_reuse_pct", "%", "steps_per_s @ timeline_te_overload"},
    {"te.lp_pairs", "count", "step_ms_p90 @ timeline_te_overload"},
    {"te.lp_fallbacks", "count", "failed @ timeline_te_overload"},
    {"sim.run_ms", "ms", "steps_per_s, step_ms_p50 @ packet_saturated"},
    {"sim.events", "count", "steps_per_s @ packet_saturated"},
    {"sim.ns_per_event", "ns", "steps_per_s @ packet_saturated"},
    {"sim.queue_depth_mean", "count", "step_ms_p50 @ packet_saturated"},
    {"flow.max_min_ms.t1", "ms", "thread scaling @ timeline_*"},
    {"flow.max_min_ms.t4", "ms", "thread scaling @ timeline_*"},
    {"control.repair_ms.t1", "ms", "thread scaling @ timeline_*"},
    {"control.repair_ms.t4", "ms", "thread scaling @ timeline_*"},
    {"te.gather_ms.t1", "ms", "thread scaling @ timeline_te_overload"},
    {"te.gather_ms.t4", "ms", "thread scaling @ timeline_te_overload"},
    {"sim.run_ms.t1", "ms", "thread scaling @ packet_saturated"},
    {"sim.run_ms.t4", "ms", "thread scaling @ packet_saturated"},
    {"trace_overhead_pct", "%", "traced vs untraced step median"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cisp_perfbench: " << why
            << "\nusage: cisp_perfbench --workload "
               "{timeline_weather|timeline_te_overload|packet_saturated} "
               "--seed N --seconds S --trace {0|1} "
               "[--log PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--log") {
        args.log_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

// --- Host fingerprint ------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate steal jiffies from /proc/stat (0 when unreadable).
unsigned long long steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return cpu == "cpu" ? v[7] : 0;
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// User + system CPU seconds of the whole process. Next to the wall time
/// it shows how many of the worker threads ran at once.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Where the p90 step lands: its kind mix among steps at or above it.
std::string p90_placement(const std::vector<StepRecord>& steps, double p90) {
  std::map<std::string, std::size_t> at_or_above;
  std::map<std::string, std::size_t> all;
  for (const StepRecord& s : steps) {
    ++all[s.kind];
    if (s.wall_ms >= p90) ++at_or_above[s.kind];
  }
  std::ostringstream os;
  os << "p90 " << p90 << " ms; steps >= p90 by kind:";
  for (const auto& [kind, count] : at_or_above) {
    os << ' ' << kind << '=' << count << '/' << all[kind];
  }
  return os.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const std::string model = cpu_model();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double load_start = load_average();
  const unsigned long long steal_start = steal_jiffies();
  const auto start = Clock::now();

  RunResult result;
  try {
    if (args.workload == "timeline_weather") {
      result = run_timeline(args, /*te_overload=*/false);
    } else if (args.workload == "timeline_te_overload") {
      result = run_timeline(args, /*te_overload=*/true);
    } else if (args.workload == "packet_saturated") {
      result = run_packet(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& error) {
    // Set-up failures (and anything outside a step) void the run.
    std::cerr << "cisp_perfbench: " << args.workload
              << " aborted: " << error.what() << '\n';
    return 1;
  }

  const double wall_s = seconds_since(start);
  const unsigned long long steal = steal_jiffies() - steal_start;
  std::ostringstream host;
  host << "host: cpu=\"" << model << "\" nproc=" << nproc
       << " threads=" << args.threads << " load1_start=" << load_start
       << " load1_end=" << load_average() << " steal_jiffies=" << steal
       << " wall_s=" << wall_s << " cpu_s=" << cpu_seconds();

  std::vector<double> step_ms;
  for (const StepRecord& s : result.steps) step_ms.push_back(s.wall_ms);
  const double p50 = median(step_ms);
  const double p90 = quantile(step_ms, 0.9);

  std::cout << "workload " << args.workload << " seed " << args.seed
            << " trace " << args.trace << '\n'
            << host.str() << '\n';
  std::cout << "setup_s each:";
  for (const double s : result.setup_s) std::cout << ' ' << s;
  std::cout << "\nsteps " << result.steps.size() << " failed "
            << result.failed_steps() << "; " << p90_placement(result.steps, p90)
            << '\n';
  for (const std::string& note : result.notes) std::cout << note << '\n';
  for (const std::string& failure : result.failures) {
    std::cout << "CHECK FAILED: " << failure << '\n';
  }

  if (!args.log_path.empty()) {
    std::ofstream log(args.log_path);
    log << "# workload=" << args.workload << " seed=" << args.seed
        << " trace=" << args.trace << '\n'
        << "# " << host.str() << '\n'
        << "# " << p90_placement(result.steps, p90) << '\n'
        << "step\tkind\twall_ms\tok\n";
    for (const StepRecord& s : result.steps) {
      log << s.index << '\t' << s.kind << '\t' << s.wall_ms << '\t'
          << (s.ok ? 1 : 0) << '\n';
    }
  }

  // name -> (value, unit)
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    const Quality& q = result.quality;
    metrics = {
        {"setup_s", {median(result.setup_s), "s"}},
        {"steps_per_s",
         {static_cast<double>(result.steps.size()) / result.phase_s, "1/s"}},
        {"step_ms_p50", {p50, "ms"}},
        {"step_ms_p90", {p90, "ms"}},
        {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
        {"design_stretch", {q.design_stretch, "x"}},
        {"served_pct", {q.served_pct, "%"}},
        {"mean_stretch", {q.mean_stretch, "x"}},
        {"avail_3nines_pct", {q.avail_3nines_pct, "%"}},
    };
  } else {
    std::cout << "per-layer metrics (value unit | should move):\n";
    for (const LayerSpec& spec : kLayers) {
      const auto it = result.layer_values.find(spec.name);
      const double value = it == result.layer_values.end() ? 0.0 : it->second;
      std::cout << "  " << spec.name << " = " << value << ' ' << spec.unit
                << " | " << spec.moves << '\n';
      metrics.push_back({spec.name, {value, spec.unit}});
    }
  }

  const std::size_t failed = result.failed_steps();
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << result.steps.size()
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json << ", ";
    json << '"' << json_escape(metrics[i].first)
         << "\": {\"value\": " << number(metrics[i].second.first)
         << ", \"unit\": \"" << json_escape(metrics[i].second.second)
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
