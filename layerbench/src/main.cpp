// layerbench: builds one workload from libmann's public API, times
// it, checks every answer, and prints one JSON object as its last line.
//
//   layerbench prepare --models DIR
//       trains the 20-task suite into DIR once (skipped when cached)
//   layerbench run --workload W --seed N --seconds S --trace 0|1
//                  --models DIR --trace-csv PATH
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds (timers around each layer call, the program's own
// obs::MetricsRegistry attached) and prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "model/flops.hpp"
#include "power/energy.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace layerbench {
namespace {

using namespace mann;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string models;
  std::string trace_csv;
};

/// Program set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  CheckCount checks;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Loads the cached suite; refuses to train inside a measured run.
[[nodiscard]] std::vector<runtime::TaskArtifacts> load_suite(
    const Options& opt) {
  if (!runtime::suite_cache_complete(suite_config(), opt.models)) {
    throw std::runtime_error("suite models missing under " + opt.models +
                             "; run `layerbench prepare` first");
  }
  return runtime::prepare_suite_cached(suite_config(), opt.models);
}

/// Median of repeated set-ups (each repetition rebuilds everything the
/// run needs; the last one's state is kept).
struct SetupTimes {
  std::vector<double> total;
  std::vector<double> load;
  std::vector<double> compile;
  std::vector<double> cache_fill;
};


/// numeric::fx_dot on the compiled programs' real rows (E=24): each
/// output-layer row against a READ-layer row, as the OUTPUT module pairs
/// w_o rows with the hop state. Median of repeated blocks, ns per call.
[[nodiscard]] double time_fx_dot(
    const std::vector<const accel::DeviceProgram*>& programs) {
  std::vector<double> per_call;
  std::int64_t sink = 0;
  for (int block = 0; block < 21; ++block) {
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    for (int rep = 0; rep < 8; ++rep) {
      for (const accel::DeviceProgram* p : programs) {
        const std::size_t k_rows = p->w_r.rows();
        for (std::size_t r = 0; r < p->w_o.rows(); ++r) {
          sink += accel::fx_dot(p->w_o.row(r), p->w_r.row(r % k_rows)).raw();
          ++calls;
        }
      }
    }
    per_call.push_back(seconds_since(start) * 1e9 /
                       static_cast<double>(std::max<std::uint64_t>(1, calls)));
  }
  if (sink == 0x7fffffffffffffffLL) {
    std::fprintf(stderr, "#");  // keeps the folded sum observable
  }
  return median(per_call);
}

/// Every per-layer metric, zero-filled; each workload sets the layers it
/// exercises (the README maps which layer moves on which workload).
std::vector<Metric> per_layer_template() {
  std::vector<Metric> m = {
      {"setup.load_suite_s", 0, "s"},
      {"setup.compile_ms", 0, "ms"},
      {"setup.cache_fill_s", 0, "s"},
      {"numeric.fx_dot_ns", 0, "ns"},
      {"numeric.macs_per_story", 0, "count"},
      {"accel.run_us", 0, "us"},
      {"accel.ns_per_sim_cycle", 0, "ns"},
      {"accel.sim_cycles_per_story", 0, "cycles"},
  };
  for (const char* module : kDeviceModules) {
    const std::string base = std::string("accel.module.") + module;
    m.push_back({base + ".busy_cycles", 0, "cycles/story"});
    m.push_back({base + ".stall_cycles", 0, "cycles/story"});
  }
  const std::vector<Metric> rest = {
      {"accel.link_active_cycles", 0, "cycles/story"},
      {"core.ith_probes_per_story", 0, "count"},
      {"core.ith_early_exit_ratio", 0, "ratio"},
      {"accel.cycle_cache.hits", 0, "count/pass"},
      {"accel.cycle_cache.waits", 0, "count/pass"},
      {"accel.cycle_cache.misses", 0, "count/pass"},
      {"accel.cycle_cache.hit_ratio", 0, "ratio"},
      {"serve.dispatches", 0, "count/pass"},
      {"serve.mean_batch_size", 0, "stories"},
      {"serve.model_uploads", 0, "count/pass"},
      {"serve.queue_wait_p99_ms", 0, "ms_sim"},
      {"serve.device_utilization", 0, "ratio"},
      {"serve.speculation_useful_ratio", 0, "ratio"},
      {"serve.worker_pool.jobs", 0, "count/pass"},
      {"cluster.build_ms", 0, "ms"},
      {"cluster.submit_us", 0, "us"},
      {"cluster.step_until_us.p50", 0, "us"},
      {"cluster.step_until_us.p99", 0, "us"},
      {"cluster.step_until_calls", 0, "count/pass"},
      {"cluster.poll_us", 0, "us"},
      {"cluster.finalize_ms", 0, "ms"},
      {"cluster.simulate_us_per_story", 0, "us"},
      {"cluster.warm_dispatch_ratio", 0, "ratio"},
      {"cluster.instance_fairness", 0, "ratio"},
      {"cluster.mean_active_instances", 0, "count"},
      {"cluster.scale_downs", 0, "count/pass"},
      {"power.dynamic_mj_per_inference", 0, "mJ"},
      {"power.static_mj_per_inference", 0, "mJ"},
      {"power.link_mj_per_inference", 0, "mJ"},
      {"power.gflops_per_kj", 0, "GFLOPS/kJ"},
      {"power.gflops_per_kj_ith", 0, "GFLOPS/kJ"},
      {"power.estimate_us", 0, "us"},
      {"obs.snapshot_us", 0, "us"},
      {"check.near_ties", 0, "count/round"},
      {"trace.host_us_per_story_untraced", 0, "us"},
      {"trace.host_us_per_story_traced", 0, "us"},
      {"trace.overhead_ratio", 0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Overwrites the template entry `name` (which must exist).
void set_layer(std::vector<Metric>& layers, const std::string& name,
               double value) {
  for (Metric& m : layers) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

/// Host time of the units one round repeats (device_suite: each of its
/// 40 device runs; fleets: each block of kBlockArrivals arrivals of a
/// pass, then its finalize). host_us_per_story sums every unit's fastest
/// repetition in the run and divides by the stories of one round. The
/// machine's other tenants only ever add time, so per-unit minima are a
/// far steadier estimate of the program's own cost than a total is.
struct UnitTimes {
  std::vector<double> fastest;
  std::uint64_t stories = 0;  ///< per round
  std::size_t rounds = 0;

  void add(const std::vector<double>& unit_seconds,
           std::uint64_t round_stories) {
    if (rounds == 0) {
      fastest = unit_seconds;
      stories = round_stories;
    } else {
      for (std::size_t u = 0; u < fastest.size(); ++u) {
        fastest[u] = std::min(fastest[u], unit_seconds[u]);
      }
    }
    ++rounds;
  }
  [[nodiscard]] double us_per_story() const {
    double sum = 0.0;
    for (const double s : fastest) {
      sum += s;
    }
    return ratio(sum * 1e6, static_cast<double>(stories));
  }
};

/// Untraced and traced units of a run, kept apart.
struct HostTime {
  UnitTimes units[2];

  void add(bool traced, const std::vector<double>& unit_seconds,
           std::uint64_t round_stories) {
    units[traced ? 1 : 0].add(unit_seconds, round_stories);
  }
  [[nodiscard]] double us_per_story(bool traced) const {
    return units[traced ? 1 : 0].us_per_story();
  }
};

void set_setup_layers(std::vector<Metric>& layers, const SetupTimes& t) {
  set_layer(layers, "setup.load_suite_s", median(t.load));
  set_layer(layers, "setup.compile_ms", median(t.compile) * 1e3);
  set_layer(layers, "setup.cache_fill_s", median(t.cache_fill));
}

void add_trace_overhead(std::vector<Metric>& layers, const HostTime& host) {
  set_layer(layers, "trace.host_us_per_story_untraced",
            host.us_per_story(false));
  set_layer(layers, "trace.host_us_per_story_traced", host.us_per_story(true));
  set_layer(layers, "trace.overhead_ratio",
            ratio(host.us_per_story(true), host.us_per_story(false)));
}

// ------------------------------------------------------------ device_suite

/// Seeded execution order of the device cases within a round; the
/// simulated fold is order-independent, so the seed moves host behaviour
/// (which program ran last, allocator state), never a simulated figure.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

double gflops_per_kj(double seconds, double joules, std::uint64_t flops) {
  power::EnergyReport report;
  report.seconds = seconds;
  report.watts = ratio(joules, seconds);
  report.flops = flops;
  return report.flops_per_kj() / 1e9;
}

Outcome run_device_suite(const Options& opt) {
  Outcome out;
  SetupTimes setup;
  std::vector<runtime::TaskArtifacts> suite;
  std::vector<DeviceCase> cases;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    cases.clear();
    suite.clear();
    const auto start = Clock::now();
    suite = load_suite(opt);
    setup.load.push_back(seconds_since(start));
    const auto compile_start = Clock::now();
    cases = compile_device_cases(suite);
    setup.compile.push_back(seconds_since(compile_start));
    setup.cache_fill.push_back(0.0);
    setup.total.push_back(seconds_since(start));
  }

  const References ref_off = reference_argmax(suite);
  const References ref_on = reference_ith(suite);
  std::uint64_t mode_flops[2] = {0, 0};
  for (const DeviceCase& c : cases) {
    for (const data::EncodedStory& story : suite[c.task].dataset.test) {
      mode_flops[c.ith ? 1 : 0] +=
          model::count_flops(story, suite[c.task].model.config()).total();
    }
  }

  const std::vector<std::size_t> order = seeded_order(cases.size(), opt.seed);
  const power::FpgaPowerModel power;
  std::optional<DeviceRoundSim> first;
  HostTime host;
  double run_s = 0.0;
  std::uint64_t runs_timed = 0;
  double estimate_s = 0.0;
  std::uint64_t estimates_timed = 0;
  std::vector<accel::RunResult> results(cases.size());
  std::vector<double> run_seconds(cases.size(), 0.0);
  const auto measure_start = Clock::now();
  for (std::size_t round = 0;
       round < (opt.trace ? 2U : 1U) ||
       seconds_since(measure_start) < opt.seconds;
       ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    for (const std::size_t k : order) {
      const DeviceCase& c = cases[k];
      const auto start = Clock::now();
      results[k] = c.device.run(suite[c.task].dataset.test);
      run_seconds[k] = seconds_since(start);
    }
    if (traced) {
      for (const double s : run_seconds) {
        run_s += s;
      }
      runs_timed += cases.size();
    }

    const DeviceRoundSim sim = fold_device_round(
        cases, results, power, traced ? &estimate_s : nullptr);
    estimates_timed += traced ? cases.size() : 0;
    host.add(traced, run_seconds, sim.stories);
    CheckCount round_check;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const DeviceCase& c = cases[k];
      round_check += check_device_run(
          results[k], (c.ith ? ref_on : ref_off)[c.task],
          c.device.program().vocab_size, c.ith);
    }
    if (!first) {
      first = sim;
    } else if (!(sim == *first)) {
      std::fprintf(stderr, "device_suite: round %zu diverged from round 0\n",
                   round);
      round_check.failed = round_check.attempted;
    }
    out.checks += round_check;
  }

  const DeviceRoundSim& sim = *first;
  const auto stories = static_cast<double>(sim.stories);
  if (!opt.trace) {
    out.add("setup_s", median(setup.total), "s");
    out.add("host_us_per_story", host.us_per_story(false), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("sim_stories_per_s", ratio(stories, sim.sim_seconds),
            "stories/s");
    out.add("sim_latency_p50_ms", percentile(sim.gaps, 0.50) / kClockHz * 1e3,
            "ms_sim");
    out.add("sim_latency_p99_ms", percentile(sim.gaps, 0.99) / kClockHz * 1e3,
            "ms_sim");
    out.add("sim_mj_per_inference", sim.total_joules() / stories * 1e3, "mJ");
    return out;
  }

  std::vector<Metric> layers = per_layer_template();
  std::vector<const accel::DeviceProgram*> programs;
  for (const DeviceCase& c : cases) {
    programs.push_back(&c.device.program());
  }
  set_layer(layers, "numeric.fx_dot_ns", time_fx_dot(programs));
  set_layer(layers, "numeric.macs_per_story",
            static_cast<double>(sim.macs) / stories);
  set_layer(layers, "accel.run_us",
            ratio(run_s * 1e6, static_cast<double>(runs_timed)));
  set_layer(layers, "accel.ns_per_sim_cycle",
            ratio(run_s * 1e9, static_cast<double>(sim.cycles) *
                                   static_cast<double>(host.units[1].rounds)));
  set_layer(layers, "accel.sim_cycles_per_story",
            static_cast<double>(sim.cycles) / stories);
  for (std::size_t i = 0; i < std::size(kDeviceModules); ++i) {
    const std::string base = std::string("accel.module.") + kDeviceModules[i];
    set_layer(layers, base + ".busy_cycles",
              static_cast<double>(sim.module_busy[i]) / stories);
    set_layer(layers, base + ".stall_cycles",
              static_cast<double>(sim.module_stall[i]) / stories);
  }
  set_layer(layers, "accel.link_active_cycles",
            static_cast<double>(sim.link_active_cycles) / stories);
  set_layer(layers, "core.ith_probes_per_story",
            ratio(static_cast<double>(sim.ith_probes),
                  static_cast<double>(sim.ith_stories)));
  set_layer(layers, "core.ith_early_exit_ratio",
            ratio(static_cast<double>(sim.ith_early_exits),
                  static_cast<double>(sim.ith_stories)));
  set_layer(layers, "power.dynamic_mj_per_inference",
            sim.dynamic_joules / stories * 1e3);
  set_layer(layers, "power.static_mj_per_inference",
            sim.static_joules / stories * 1e3);
  set_layer(layers, "power.link_mj_per_inference",
            sim.link_joules / stories * 1e3);
  set_layer(layers, "power.gflops_per_kj",
            gflops_per_kj(sim.mode_seconds[0], sim.mode_joules[0],
                          mode_flops[0]));
  set_layer(layers, "power.gflops_per_kj_ith",
            gflops_per_kj(sim.mode_seconds[1], sim.mode_joules[1],
                          mode_flops[1]));
  set_layer(layers, "power.estimate_us",
            ratio(estimate_s * 1e6, static_cast<double>(estimates_timed)));
  set_layer(layers, "check.near_ties",
            static_cast<double>(out.checks.near_ties) /
                static_cast<double>(host.units[0].rounds +
                                    host.units[1].rounds));
  add_trace_overhead(layers, host);
  set_setup_layers(layers, setup);
  out.metrics.insert(out.metrics.end(), layers.begin(), layers.end());
  return out;
}

// ------------------------------------------------------------------ fleets

/// The simulated summary of one pass that the end-to-end metrics read.
struct FleetSim {
  double latency_p50_cycles = 0.0;
  double latency_p99_cycles = 0.0;
  double early_exit_ratio = 0.0;
  std::uint64_t device_busy_cycles = 0;
};

FleetSim summarize_pass(const FleetPass& pass) {
  FleetSim sim;
  std::vector<double> latency;
  latency.reserve(pass.completions.size());
  std::uint64_t early = 0;
  for (const cluster::ClusterCompletion& c : pass.completions) {
    if (serve::outcome_is_completion(c.completion.outcome)) {
      latency.push_back(
          static_cast<double>(c.completion.response.latency_cycles()));
      early += c.completion.response.early_exit ? 1 : 0;
    }
  }
  sim.latency_p50_cycles = percentile(latency, 0.50);
  sim.latency_p99_cycles = percentile(latency, 0.99);
  sim.early_exit_ratio = ratio(static_cast<double>(early),
                               static_cast<double>(latency.size()));
  for (const cluster::InstanceReport& inst : pass.report.instance_reports) {
    for (const serve::DeviceReport& d : inst.report.devices) {
      sim.device_busy_cycles += d.busy_cycles;
    }
  }
  return sim;
}

std::uint64_t counter_value(const std::vector<obs::MetricSample>& snapshot,
                            const std::string& name) {
  for (const obs::MetricSample& s : snapshot) {
    if (s.name == name) {
      return s.value;
    }
  }
  return 0;
}

Outcome run_fleet(const Options& opt, bool warm) {
  Outcome out;
  SetupTimes setup;
  std::vector<runtime::TaskArtifacts> suite;
  std::vector<serve::ServedModel> models;
  std::vector<serve::TraceEntry> trace;
  cluster::ClusterConfig config;
  std::unique_ptr<accel::ServiceCycleCache> shared_cache;
  FleetPass cold;
  ClusterCallTimes cold_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    cold = FleetPass{};
    shared_cache.reset();
    models.clear();
    suite.clear();
    cold_times = ClusterCallTimes{};
    const auto start = Clock::now();
    suite = load_suite(opt);
    setup.load.push_back(seconds_since(start));
    const auto compile_start = Clock::now();
    models = compile_served_models(suite);
    setup.compile.push_back(seconds_since(compile_start));
    trace = fleet_trace(opt.trace_csv, suite.size());
    config = fleet_config(trace, suite.size());
    if (warm) {
      const auto fill_start = Clock::now();
      shared_cache = std::make_unique<accel::ServiceCycleCache>(kCacheCapacity);
      cold = run_fleet_pass(config, models, trace, *shared_cache, nullptr,
                            opt.trace ? &cold_times : nullptr);
      setup.cache_fill.push_back(seconds_since(fill_start));
    } else {
      setup.cache_fill.push_back(0.0);
    }
    setup.total.push_back(seconds_since(start));
  }

  const References ref = reference_ith(suite);
  if (warm) {
    const CheckCount cold_check = check_fleet_pass(cold.arrivals,
                                                   cold.completions, ref);
    if (cold_check.failed > 0) {
      std::fprintf(stderr, "fleet_warm: the set-up's cold pass failed %zu of "
                   "%zu checks\n", cold_check.failed, cold_check.attempted);
      out.correct = false;
    }
  }

  obs::MetricsRegistry registry;
  ClusterCallTimes times;
  HostTime host;
  std::optional<cluster::ClusterReport> first;
  FleetSim sim;
  std::uint64_t probes = 0;
  std::uint64_t probed = 0;
  accel::ServiceCycleCacheStats cache_total;
  std::uint64_t passes = 0;
  const auto measure_start = Clock::now();
  for (std::size_t round = 0;
       round < (opt.trace ? 2U : 1U) ||
       seconds_since(measure_start) < opt.seconds;
       ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    FleetPass pass;
    accel::ServiceCycleCacheStats before;
    accel::ServiceCycleCacheStats after;
    {
      std::unique_ptr<accel::ServiceCycleCache> fresh;
      accel::ServiceCycleCache* cache = shared_cache.get();
      if (!warm) {
        fresh = std::make_unique<accel::ServiceCycleCache>(kCacheCapacity);
        cache = fresh.get();
      }
      before = cache->stats();
      pass = run_fleet_pass(config, models, trace, *cache,
                            traced ? &registry : nullptr,
                            traced ? &times : nullptr);
      after = cache->stats();
    }
    host.add(traced, pass.block_s, pass.arrivals.size());
    ++passes;
    cache_total.hits += after.hits - before.hits;
    cache_total.waits += after.waits - before.waits;
    cache_total.misses += after.misses - before.misses;

    CheckCount pass_check =
        check_fleet_pass(pass.arrivals, pass.completions, ref);
    const cluster::ClusterReport& reference_report =
        warm ? cold.report : (first ? *first : pass.report);
    if (!cluster::simulated_cluster_reports_identical(reference_report,
                                                      pass.report)) {
      std::fprintf(stderr, "%s: pass %zu diverged from the %s\n",
                   warm ? "fleet_warm" : "fleet_diurnal", round,
                   warm ? "cold pass" : "first pass");
      pass_check.failed = pass_check.attempted;
    }
    out.checks += pass_check;
    if (!first) {
      first = pass.report;
      sim = summarize_pass(pass);
      for (const Arrival& a : pass.arrivals) {
        probes += ref[a.task][a.story].probes;
        ++probed;
      }
    }
  }

  const cluster::ClusterReport& report = *first;
  const auto completed = static_cast<double>(report.completed);
  if (!opt.trace) {
    out.add("setup_s", median(setup.total), "s");
    out.add("host_us_per_story", host.us_per_story(false), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("sim_stories_per_s", report.throughput_stories_per_second,
            "stories/s");
    out.add("sim_latency_p50_ms", sim.latency_p50_cycles / kClockHz * 1e3,
            "ms_sim");
    out.add("sim_latency_p99_ms", sim.latency_p99_cycles / kClockHz * 1e3,
            "ms_sim");
    out.add("sim_mj_per_inference", report.energy.per_inference_joules * 1e3,
            "mJ");
    return out;
  }

  const auto snapshot_start = Clock::now();
  const std::vector<obs::MetricSample> snapshot = registry.snapshot();
  const double snapshot_s = seconds_since(snapshot_start);
  const auto traced_passes = static_cast<double>(times.passes);
  const auto all_passes = static_cast<double>(passes);

  std::vector<Metric> layers = per_layer_template();
  std::vector<const accel::DeviceProgram*> programs;
  for (const serve::ServedModel& m : models) {
    programs.push_back(&m.program);
  }
  set_layer(layers, "numeric.fx_dot_ns", time_fx_dot(programs));
  set_layer(layers, "accel.ns_per_sim_cycle",
            ratio(times.step_s * 1e9,
                  static_cast<double>(sim.device_busy_cycles) * traced_passes));
  set_layer(layers, "accel.sim_cycles_per_story",
            static_cast<double>(sim.device_busy_cycles) / completed);
  set_layer(layers, "core.ith_probes_per_story",
            ratio(static_cast<double>(probes), static_cast<double>(probed)));
  set_layer(layers, "core.ith_early_exit_ratio", sim.early_exit_ratio);
  const double lookups = static_cast<double>(
      cache_total.hits + cache_total.waits + cache_total.misses);
  set_layer(layers, "accel.cycle_cache.hits",
            static_cast<double>(cache_total.hits) / all_passes);
  set_layer(layers, "accel.cycle_cache.waits",
            static_cast<double>(cache_total.waits) / all_passes);
  set_layer(layers, "accel.cycle_cache.misses",
            static_cast<double>(cache_total.misses) / all_passes);
  set_layer(layers, "accel.cycle_cache.hit_ratio",
            ratio(static_cast<double>(cache_total.hits), lookups));

  std::uint64_t batches = 0;
  std::uint64_t speculated = 0;
  std::uint64_t useful = 0;
  double utilization = 0.0;
  for (const cluster::InstanceReport& inst : report.instance_reports) {
    batches += inst.report.batching.batches_out;
    speculated += inst.report.speculation.speculated;
    useful += inst.report.speculation.useful;
    utilization += inst.report.mean_device_utilization;
  }
  set_layer(layers, "serve.dispatches",
            static_cast<double>(counter_value(snapshot,
                                              "serve.scheduler.dispatches")) /
                traced_passes);
  set_layer(layers, "serve.mean_batch_size",
            ratio(completed, static_cast<double>(batches)));
  set_layer(layers, "serve.model_uploads",
            static_cast<double>(report.model_uploads));
  set_layer(layers, "serve.queue_wait_p99_ms",
            report.queue_wait.p99_seconds * 1e3);
  set_layer(layers, "serve.device_utilization",
            ratio(utilization,
                  static_cast<double>(report.instance_reports.size())));
  set_layer(layers, "serve.speculation_useful_ratio",
            ratio(static_cast<double>(useful),
                  static_cast<double>(speculated)));
  set_layer(layers, "serve.worker_pool.jobs",
            static_cast<double>(counter_value(
                snapshot, "serve.worker_pool.jobs_completed")) /
                traced_passes);

  set_layer(layers, "cluster.build_ms", times.build_s * 1e3 / traced_passes);
  set_layer(layers, "cluster.submit_us",
            ratio(times.submit_s * 1e6,
                  static_cast<double>(times.submit_calls)));
  std::vector<double> step_us(times.step_us.begin(), times.step_us.end());
  set_layer(layers, "cluster.step_until_us.p50", percentile(step_us, 0.50));
  set_layer(layers, "cluster.step_until_us.p99", percentile(step_us, 0.99));
  set_layer(layers, "cluster.step_until_calls",
            static_cast<double>(times.step_calls) / traced_passes);
  set_layer(layers, "cluster.poll_us",
            ratio(times.poll_s * 1e6, static_cast<double>(times.poll_calls)));
  set_layer(layers, "cluster.finalize_ms",
            times.finalize_s * 1e3 / traced_passes);
  if (warm) {
    // Cold-pass stepping minus warm-pass stepping: the host time device
    // simulation costs per story once the cache is out of the picture.
    set_layer(layers, "cluster.simulate_us_per_story",
              (cold_times.step_s - times.step_s / traced_passes) * 1e6 /
                  static_cast<double>(trace.size()));
  }
  set_layer(layers, "cluster.warm_dispatch_ratio", report.warm_dispatch_rate);
  set_layer(layers, "cluster.instance_fairness", report.instance_fairness);
  set_layer(layers, "cluster.mean_active_instances",
            report.mean_active_instances);
  set_layer(layers, "cluster.scale_downs",
            static_cast<double>(report.scale_downs));
  set_layer(layers, "power.dynamic_mj_per_inference",
            report.energy.dynamic_joules / completed * 1e3);
  set_layer(layers, "power.static_mj_per_inference",
            report.energy.static_joules / completed * 1e3);
  set_layer(layers, "power.link_mj_per_inference",
            report.energy.link_joules / completed * 1e3);
  set_layer(layers, "obs.snapshot_us", snapshot_s * 1e6);
  add_trace_overhead(layers, host);
  set_setup_layers(layers, setup);
  out.metrics.insert(out.metrics.end(), layers.begin(), layers.end());
  return out;
}

// --------------------------------------------------------------------- CLI

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const Outcome& out) {
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               format_number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  json += out.correct && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.checks.attempted);
  json += ", \"failed\": " + std::to_string(out.checks.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench prepare --models DIR\n"
               "       layerbench run --workload device_suite|fleet_diurnal|"
               "fleet_warm --seed N --seconds S --trace 0|1 --models DIR "
               "--trace-csv PATH\n",
               why);
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) {
    usage((flag + ": not a non-negative integer: " + text).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  if (argc < 2) {
    usage("missing mode");
  }
  Options opt;
  opt.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_count(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_count(flag, value);
      if (t > 1) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = t == 1;
    } else if (flag == "--models") {
      opt.models = value;
    } else if (flag == "--trace-csv") {
      opt.trace_csv = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.models.empty()) {
    usage("--models is required");
  }
  return opt;
}

int main_impl(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.mode == "prepare") {
    if (!runtime::suite_cache_complete(suite_config(), opt.models)) {
      std::fprintf(stderr, "layerbench: training the 20-task suite into %s\n",
                   opt.models.c_str());
      (void)runtime::prepare_suite_cached(suite_config(), opt.models);
    }
    return 0;
  }
  if (opt.mode != "run") {
    usage(("unknown mode " + opt.mode).c_str());
  }
  if (opt.trace_csv.empty()) {
    usage("--trace-csv is required");
  }
  Outcome out;
  if (opt.workload == "device_suite") {
    out = run_device_suite(opt);
  } else if (opt.workload == "fleet_diurnal") {
    out = run_fleet(opt, false);
  } else if (opt.workload == "fleet_warm") {
    out = run_fleet(opt, true);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  print_result(out);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  try {
    return layerbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
