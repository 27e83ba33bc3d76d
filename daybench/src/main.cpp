// Scenario-day benchmark: runs whole simulated days of the QNTN simulator
// through its public pipeline, checks every day's results, and prints the
// metrics named in BENCHMARK.json as the last line of standard output.
//
//   daybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--threads <n>] [--git-commit <sha>]
//
// --trace 0 measures the end-to-end metrics on untraced days. --trace 1
// runs each day twice, untraced and traced (registry, span profiler, timed
// topology provider, CPU sampler), checks that both give identical
// results, and reports the per-layer metrics, a self-time rollup per span
// and module, and the tracing overhead.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/experiments.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "host.hpp"
#include "rollup.hpp"
#include "timed_topology.hpp"
#include "workload.hpp"

#ifndef DAYBENCH_BUILD_TYPE
#define DAYBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace daybench;
namespace qc = qntn::core;
namespace obs = qntn::obs;

/// Share of --seconds spent on repeated set-ups (setup_s is their median),
/// interleaved with the days that fill the rest.
constexpr double kSetupShare = 0.2;
/// Fewest set-ups and measured units per run, whatever --seconds says.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMinUnits = 3;
/// CPU sampling period of a traced day.
constexpr std::uint64_t kSamplePeriodNs = 1'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;  ///< 0 = the affinity CPU count
  std::string git_commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "daybench: %s\nusage: daybench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] "
               "[--git-commit <sha>]\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--threads") {
      args.threads = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--git-commit") {
      args.git_commit = value;
    } else {
      usage("unknown option " + key);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage("bad number for " + key + ": " + value);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return args;
}

double median(std::vector<double> v) { return qntn::percentile(std::move(v), 0.5); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) x = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

/// Everything a run knows about where and how it ran.
struct Provenance {
  std::vector<std::pair<std::string, std::string>> fields;  ///< raw JSON

  void add(const std::string& key, const std::string& json_value) {
    fields.emplace_back(key, json_value);
  }
  void add(const std::string& key, double value) { add(key, json_number(value)); }

  [[nodiscard]] std::string line() const {
    std::string out = "{\"daybench_provenance\": {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(fields[i].first) + ": " +
             fields[i].second;
    }
    return out + "}}";
  }
};

/// One day's configuration, result, and wall and process CPU time.
struct Day {
  qc::QntnConfig config;
  qntn::sim::ScenarioResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Run one day of the workload on `provider`, with the optional hooks.
Day run_day(const Workload& workload, const Args& args, std::size_t index,
            const Setup& setup, const qntn::sim::TopologyProvider& provider,
            qntn::ThreadPool& pool, obs::Registry* registry,
            obs::Profiler* profiler) {
  Day day;
  day.config = day_config(workload, args.seed, index);
  qc::RunContext ctx{day.config};
  ctx.pool = &pool;
  ctx.registry = registry;
  ctx.profiler = profiler;
  const qntn::sim::ScenarioConfig scenario = ctx.scenario_config();
  const double t0 = wall_s();
  const double c0 = process_cpu_s();
  day.result = qntn::sim::run_scenario(*setup.model, provider, scenario);
  day.cpu_s = process_cpu_s() - c0;
  day.wall_s = wall_s() - t0;
  return day;
}

/// Checks days in run order against the run's first day.
class Checker {
 public:
  explicit Checker(const Workload& workload) : workload_(workload) {}

  /// Record one day; returns false (and reports why) if it fails a check.
  bool check(const Day& day) {
    ++attempted_;
    const std::string why =
        check_day(workload_, day.config, day.result, first_ ? &*first_ : nullptr);
    if (!first_) first_ = day.result;
    if (why.empty()) return true;
    ++failed_;
    std::fprintf(stderr, "daybench: day with request seed %llu failed: %s\n",
                 static_cast<unsigned long long>(day.config.request_seed),
                 why.c_str());
    return false;
  }

  /// A traced day must reproduce its untraced twin bit for bit.
  void check_twin(const Day& untraced, const Day& traced) {
    if (!check(traced)) return;
    if (fingerprint(untraced.result) != fingerprint(traced.result)) {
      ++failed_;
      std::fprintf(stderr, "daybench: traced day differs from untraced: %s vs %s\n",
                   describe(traced.result).c_str(),
                   describe(untraced.result).c_str());
    }
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  const Workload& workload_;
  std::optional<qntn::sim::ScenarioResult> first_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Days per measured unit: a sweep pairs one single-shot and one
/// entanglement day so that every unit costs the same.
std::size_t days_per_unit(const Workload& w) { return w.sweep ? 2 : 1; }

/// Per-layer measurements of one traced day; extensive fields add up over
/// the days of a unit.
struct DayTrace {
  std::vector<std::uint64_t> topology_ns;
  double coverage_s = 0.0;
  double coverage_cpu_s = 0.0;
  double serving_s = 0.0;
  double serving_cpu_s = 0.0;
  std::map<std::string, double> counters;
  double bf_tree_s = 0.0;
  double em_serve_s = 0.0;
  double traffic_issued = 0.0;
  double peak_queue_depth = 0.0;
  Rollup rollup;

  void merge(const DayTrace& o) {
    topology_ns.insert(topology_ns.end(), o.topology_ns.begin(),
                       o.topology_ns.end());
    coverage_s += o.coverage_s;
    coverage_cpu_s += o.coverage_cpu_s;
    serving_s += o.serving_s;
    serving_cpu_s += o.serving_cpu_s;
    for (const auto& [name, value] : o.counters) counters[name] += value;
    bf_tree_s += o.bf_tree_s;
    em_serve_s += o.em_serve_s;
    traffic_issued += o.traffic_issued;
    peak_queue_depth = std::max(peak_queue_depth, o.peak_queue_depth);
    rollup.merge(o.rollup);
  }
};

const char* const kCounters[] = {
    "plan.epoch_hits",     "plan.graph_queries",    "sim.epoch_cache_hits",
    "sim.epoch_cache_builds", "net.bf_trees",       "net.bf_rounds",
    "net.tree_delta_repairs", "em.route_cache_hits", "em.shared_route_builds",
};

/// Run one traced day and collect its per-layer measurements.
std::pair<Day, DayTrace> run_traced_day(const Workload& workload,
                                        const Args& args, std::size_t index,
                                        const Setup& setup,
                                        qntn::ThreadPool& pool) {
  obs::Registry registry;
  obs::Profiler profiler;
  const TimedTopology timed(setup.topology.provider());
  CpuSampler sampler(profiler, kSamplePeriodNs);
  Day day = run_day(workload, args, index, setup, timed, pool, &registry,
                    &profiler);
  sampler.stop();
  if (profiler.dropped() > 0) {
    std::fprintf(stderr, "daybench: warning: profiler dropped %llu spans\n",
                 static_cast<unsigned long long>(profiler.dropped()));
  }
  const std::vector<SpanEvent> events =
      parse_chrome_trace(profiler.chrome_trace_json());
  DayTrace trace;
  trace.topology_ns = timed.durations_ns();
  const auto phase = [&](const char* name, double& wall, double& cpu) {
    if (const SpanEvent* span = find_span(events, name)) {
      wall = 1e-9 * static_cast<double>(span->dur_ns);
      cpu = sampler.cpu_between(span->start_ns, span->start_ns + span->dur_ns);
    }
  };
  phase("sim.coverage", trace.coverage_s, trace.coverage_cpu_s);
  phase("sim.serving", trace.serving_s, trace.serving_cpu_s);
  for (const char* name : kCounters) {
    trace.counters[name] = static_cast<double>(registry.counter(name));
  }
  trace.bf_tree_s = total_s(events, "net.bf_tree");
  trace.em_serve_s = total_s(events, "em.serve");
  if (day.result.traffic.enabled) {
    trace.traffic_issued = static_cast<double>(day.result.requests_issued);
    trace.peak_queue_depth =
        static_cast<double>(day.result.traffic.peak_queue_depth);
  }
  trace.rollup = rollup(events);
  return {std::move(day), std::move(trace)};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one unit (a DayTrace merged over `days` days):
/// extensive quantities per day, ratios over the whole unit.
std::vector<Metric> unit_layer_metrics(const DayTrace& t, double days) {
  const TopologyCallStats calls = summarize_calls(t.topology_ns);
  const auto counter = [&](const char* name) { return t.counters.at(name); };
  return {
      {"plan.epoch_hit_rate", "ratio",
       ratio(counter("plan.epoch_hits"), counter("plan.graph_queries"))},
      {"sim.topology.calls", "count", static_cast<double>(calls.calls) / days},
      {"sim.topology.busy_s", "s", calls.busy_s / days},
      {"sim.topology.call_p50_us", "us", calls.p50_us},
      {"sim.topology.call_p99_us", "us", calls.p99_us},
      {"sim.coverage_s", "s", t.coverage_s / days},
      {"sim.coverage_parallelism", "cpu/wall",
       ratio(t.coverage_cpu_s, t.coverage_s)},
      {"sim.serving_s", "s", t.serving_s / days},
      {"sim.serving_parallelism", "cpu/wall",
       ratio(t.serving_cpu_s, t.serving_s)},
      {"sim.epoch_cache_hit_rate", "ratio",
       ratio(counter("sim.epoch_cache_hits"),
             counter("sim.epoch_cache_hits") +
                 counter("sim.epoch_cache_builds"))},
      {"net.bf_trees", "count", counter("net.bf_trees") / days},
      {"net.bf_rounds", "count", counter("net.bf_rounds") / days},
      {"net.bf_tree_s", "s", t.bf_tree_s / days},
      {"net.tree_delta_repairs", "count",
       counter("net.tree_delta_repairs") / days},
      {"em.serve_s", "s", t.em_serve_s / days},
      {"em.route_cache_hits", "count", counter("em.route_cache_hits") / days},
      {"em.shared_route_builds", "count",
       counter("em.shared_route_builds") / days},
      {"sim.traffic.requests_issued", "count", t.traffic_issued / days},
      {"sim.traffic.peak_queue_depth", "count", t.peak_queue_depth},
  };
}

/// Median of each metric over units (all units list the same metrics).
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& units) {
  std::vector<Metric> out = units.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& unit : units) values.push_back(unit[m].value);
    out[m].value = median(values);
  }
  return out;
}

double ephemeris_points(const qntn::sim::NetworkModel& model) {
  double points = 0.0;
  for (const qntn::net::NodeId id : model.satellite_ids()) {
    points += static_cast<double>(model.ephemeris(id).sample_count());
  }
  return points;
}

/// Alternate set-ups and measured units for `seconds`, so that set-ups
/// take about kSetupShare of the time and both sample the whole run: a
/// slow phase of a shared host then shifts neither median on its own. A
/// set-up comes first (days need one); at least kMinSetups set-ups and
/// kMinUnits units run.
void interleave(double seconds, std::size_t& setups, std::size_t& units,
                const std::function<void()>& run_setup_once,
                const std::function<void()>& run_unit) {
  const double start = wall_s();
  double setup_spent = 0.0;
  for (;;) {
    const double now = wall_s();
    bool want_setup = setups == 0 || setup_spent < kSetupShare * (now - start);
    if (now >= start + seconds) {
      if (setups >= kMinSetups && units >= kMinUnits) return;
      want_setup = setups < kMinSetups;
    }
    if (want_setup) {
      run_setup_once();
      setup_spent += wall_s() - now;
      ++setups;
    } else {
      run_unit();
      ++units;
    }
  }
}

int run(const Args& args) {
  const Workload& workload = *find_workload(args.workload);
  const std::size_t affinity = affinity_cpus();
  const std::size_t threads = args.threads > 0 ? args.threads : affinity;
  qntn::ThreadPool pool(threads);

  Provenance prov;
  prov.add("workload", json_string(workload.name));
  prov.add("seed", static_cast<double>(args.seed));
  prov.add("trace", args.trace ? "true" : "false");
  prov.add("seconds", args.seconds);
  prov.add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  prov.add("affinity_cpus", static_cast<double>(affinity));
  prov.add("pool_threads", static_cast<double>(pool.size()));
  prov.add("compiler", json_string(compiler_id()));
  prov.add("build_type", json_string(DAYBENCH_BUILD_TYPE));
  prov.add("git_commit", json_string(args.git_commit));
  if (pool.size() > affinity) {
    std::fprintf(stderr,
                 "daybench: warning: pool of %zu threads exceeds the %zu CPUs "
                 "in the affinity mask; timings will not show real scaling\n",
                 pool.size(), affinity);
    prov.add("warning", json_string("pool exceeds affinity CPUs"));
  }

  Checker checker(workload);
  const std::size_t per_unit = days_per_unit(workload);
  std::vector<Metric> metrics;
  std::optional<Setup> setup;
  std::size_t setups = 0;
  std::size_t units = 0;

  if (!args.trace) {
    std::vector<double> setup_s, day_s, day_cpu_s, requests_per_s;
    interleave(
        args.seconds, setups, units,
        [&] {
          setup.reset();
          setup.emplace(run_setup(workload, &pool));
          setup_s.push_back(setup->build_s + setup->compile_s);
        },
        [&] {
          double wall = 0.0, cpu = 0.0, issued = 0.0;
          for (std::size_t d = 0; d < per_unit; ++d) {
            const Day day = run_day(workload, args, units * per_unit + d,
                                    *setup, setup->topology.provider(), pool,
                                    nullptr, nullptr);
            checker.check(day);
            wall += day.wall_s;
            cpu += day.cpu_s;
            issued += static_cast<double>(day.result.requests_issued);
          }
          day_s.push_back(wall / static_cast<double>(per_unit));
          day_cpu_s.push_back(cpu / static_cast<double>(per_unit));
          requests_per_s.push_back(issued / wall);
        });
    // The tail percentile with at least ten samples beyond it, if any.
    if (day_s.size() >= 100) {
      prov.add("day_s_p90", qntn::percentile(day_s, 0.90));
    }
    const double days = static_cast<double>(checker.attempted());
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"day_s", "s", median(day_s)},
        {"day_cpu_s", "s", median(day_cpu_s)},
        {"requests_per_s", "1/s", median(requests_per_s)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"correct_frac", "ratio",
         (days - static_cast<double>(checker.failed())) / days},
    };
  } else {
    Rollup setup_rollup, day_rollup;
    std::vector<double> build_s, compile_s, compile_cpu_s, isl_s, ground_sat_s;
    std::vector<std::vector<Metric>> unit_metrics;
    std::vector<double> untraced_s, traced_s;
    interleave(
        args.seconds, setups, units,
        [&] {
          obs::Registry registry;
          obs::Profiler profiler;
          setup.reset();
          {
            const obs::ScopedRegistry ambient_registry(&registry);
            const obs::ScopedProfiler ambient_profiler(&profiler);
            setup.emplace(run_setup(workload, &pool));
          }
          const std::vector<SpanEvent> events =
              parse_chrome_trace(profiler.chrome_trace_json());
          setup_rollup.merge(rollup(events));
          build_s.push_back(setup->build_s);
          compile_s.push_back(setup->compile_s);
          compile_cpu_s.push_back(setup->compile_cpu_s);
          isl_s.push_back(total_s(events, "plan.compile.isl"));
          ground_sat_s.push_back(total_s(events, "plan.compile.ground_sat"));
        },
        [&] {
          DayTrace unit;
          double untraced = 0.0, traced = 0.0;
          for (std::size_t d = 0; d < per_unit; ++d) {
            const std::size_t index = units * per_unit + d;
            const auto run_bare = [&] {
              return run_day(workload, args, index, *setup,
                             setup->topology.provider(), pool, nullptr,
                             nullptr);
            };
            // Alternate which twin runs first, so neither always pays for
            // the caches the other warms.
            std::optional<Day> first_bare;
            if (units % 2 == 0) first_bare = run_bare();
            auto [day, trace] =
                run_traced_day(workload, args, index, *setup, pool);
            const Day bare = first_bare ? std::move(*first_bare) : run_bare();
            checker.check(bare);
            checker.check_twin(bare, day);
            untraced += bare.wall_s;
            traced += day.wall_s;
            unit.merge(trace);
          }
          const auto days = static_cast<double>(per_unit);
          untraced_s.push_back(untraced / days);
          traced_s.push_back(traced / days);
          unit_metrics.push_back(unit_layer_metrics(unit, days));
          day_rollup.merge(unit.rollup);
        });
    const qntn::plan::ContactPlan* plan = setup->topology.plan.get();
    metrics = {
        {"orbit.build_s", "s", median(build_s)},
        {"orbit.ephemeris_points", "count", ephemeris_points(*setup->model)},
        {"plan.compile_s", "s", median(compile_s)},
        {"plan.compile_cpu_s", "s", median(compile_cpu_s)},
        {"plan.compile.isl_s", "s", median(isl_s)},
        {"plan.compile.ground_sat_s", "s", median(ground_sat_s)},
        {"plan.windows", "count",
         plan != nullptr ? static_cast<double>(plan->windows().size()) : 0.0},
        {"plan.eta_samples", "count",
         plan != nullptr ? static_cast<double>(plan->stats().sample_count)
                         : 0.0},
    };
    for (const Metric& m : median_metrics(unit_metrics)) metrics.push_back(m);

    const double untraced_day = median(untraced_s);
    const double traced_day = median(traced_s);
    prov.add("untraced_day_s", untraced_day);
    prov.add("traced_day_s", traced_day);
    prov.add("trace_overhead_s", traced_day - untraced_day);
    prov.add("trace_overhead_frac", ratio(traced_day - untraced_day, untraced_day));
    const double traced_days = static_cast<double>(units * per_unit);
    std::printf("%s", format_rollup(setup_rollup, static_cast<double>(setups),
                                    "self-time rollup per setup").c_str());
    std::printf("%s", format_rollup(day_rollup, traced_days,
                                    "self-time rollup per traced day").c_str());
    std::printf("tracing overhead: traced day %.4f s, untraced day %.4f s, "
                "overhead %+.4f s (%+.2f %%)\n",
                traced_day, untraced_day, traced_day - untraced_day,
                100.0 * ratio(traced_day - untraced_day, untraced_day));
  }

  prov.add("setups", static_cast<double>(setups));
  prov.add("days", static_cast<double>(units * per_unit));
  prov.add("units", static_cast<double>(units));
  prov.add("days_per_unit", static_cast<double>(per_unit));
  std::printf("%s\n", prov.line().c_str());
  std::printf("%s\n",
              result_line(checker.attempted(), checker.failed(), metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daybench: error: %s\n", e.what());
    return 1;
  }
}
