#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "accel/compiler.hpp"
#include "serve/options.hpp"

namespace layerbench {

using namespace mann;

runtime::PrepareConfig suite_config() {
  runtime::PrepareConfig cfg = runtime::default_prepare_config();
  cfg.dataset.train_stories = 700;
  cfg.dataset.test_stories = 200;
  cfg.dataset.seed = 42;
  cfg.model.embedding_dim = 24;
  cfg.model.hops = 3;
  cfg.train.epochs = 25;
  cfg.train.anneal_every = 8;
  cfg.ith.rho = 1.0F;
  return cfg;
}

namespace {

accel::AccelConfig device_config(bool ith) {
  accel::AccelConfig cfg;
  cfg.clock_hz = kClockHz;
  cfg.ith_enabled = ith;
  return cfg;
}

std::size_t module_index(const std::string& name) {
  std::string lower;
  for (const char c : name) {
    lower.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  std::size_t i = 0;
  for (const char* known : kDeviceModules) {
    if (lower == known) {
      return i;
    }
    ++i;
  }
  return i;
}

}  // namespace

std::vector<DeviceCase> compile_device_cases(
    const std::vector<runtime::TaskArtifacts>& suite) {
  std::vector<DeviceCase> cases;
  cases.reserve(2 * suite.size());
  for (std::size_t t = 0; t < suite.size(); ++t) {
    for (const bool ith : {false, true}) {
      cases.push_back(
          {t, ith,
           accel::Accelerator(device_config(ith),
                              accel::compile_model(
                                  suite[t].model,
                                  ith ? &suite[t].ith : nullptr))});
    }
  }
  return cases;
}

DeviceRoundSim fold_device_round(const std::vector<DeviceCase>& cases,
                                 const std::vector<accel::RunResult>& results,
                                 const power::FpgaPowerModel& power,
                                 double* estimate_seconds) {
  constexpr std::size_t kModules = std::size(kDeviceModules);
  DeviceRoundSim sim;
  sim.module_busy.assign(kModules, 0);
  sim.module_stall.assign(kModules, 0);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const accel::RunResult& run = results[k];
    const auto start = Clock::now();
    const power::FpgaPowerReport energy = power.estimate(run, kClockHz);
    if (estimate_seconds != nullptr) {
      *estimate_seconds += seconds_since(start);
    }
    const int mode = cases[k].ith ? 1 : 0;
    sim.stories += run.stories.size();
    sim.cycles += run.total_cycles;
    sim.sim_seconds += run.seconds;
    sim.dynamic_joules += energy.dynamic_joules;
    sim.static_joules += energy.static_joules + energy.clock_joules;
    sim.link_joules += energy.link_joules;
    sim.mode_seconds[mode] += run.seconds;
    sim.mode_joules[mode] += energy.total_joules;
    sim.macs += run.total_ops.mac;
    sim.link_active_cycles += run.link_active_cycles;
    for (const accel::ModuleReport& m : run.modules) {
      const std::size_t i = module_index(m.name);
      if (i < kModules) {
        sim.module_busy[i] += m.stats.busy_cycles;
        sim.module_stall[i] += m.stats.stall_cycles;
      }
    }
    for (std::size_t s = 0; s < run.stories.size(); ++s) {
      const accel::StoryOutcome& story = run.stories[s];
      if (s > 0) {
        sim.gaps.push_back(static_cast<double>(
            story.finish_cycle - run.stories[s - 1].finish_cycle));
      }
      if (cases[k].ith) {
        ++sim.ith_stories;
        sim.ith_probes += story.output_probes;
        sim.ith_early_exits += story.early_exit ? 1 : 0;
      }
    }
  }
  return sim;
}

std::vector<serve::ServedModel> compile_served_models(
    const std::vector<runtime::TaskArtifacts>& suite) {
  std::vector<serve::ServedModel> models;
  models.reserve(suite.size());
  for (const runtime::TaskArtifacts& art : suite) {
    models.push_back(
        {accel::compile_model(art.model, &art.ith), art.dataset.test});
  }
  return models;
}

std::vector<serve::TraceEntry> fleet_trace(const std::string& csv_path,
                                           std::size_t tasks) {
  std::vector<serve::TraceEntry> base = serve::load_trace_csv(csv_path);
  for (serve::TraceEntry& entry : base) {
    entry.task %= tasks;
  }
  return serve::scale_trace(base, kTraceScale, kTraceSeed);
}

cluster::ClusterConfig fleet_config(
    const std::vector<serve::TraceEntry>& trace, std::size_t tasks) {
  serve::TenantId max_tenant = 0;
  for (const serve::TraceEntry& entry : trace) {
    max_tenant = std::max(max_tenant, entry.tenant);
  }
  // Mixed per-task SLOs: even tasks interactive (3 ms), odd batch (30 ms).
  serve::SloConfig slo;
  slo.per_task.assign(tasks, 0);
  for (std::size_t t = 0; t < tasks; ++t) {
    slo.per_task[t] = t % 2 == 0 ? 300'000 : 3'000'000;
  }
  serve::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.max_wait_cycles = 200'000;
  serve::SchedulerConfig scheduler;
  scheduler.devices = kFleetDevices;
  scheduler.work_stealing = true;
  scheduler.workers = kFleetWorkers;

  cluster::ClusterConfig config;
  config.instances = kFleetInstances;
  config.server = serve::ServingOptions()
                      .accel(device_config(true))
                      .batcher(batcher)
                      .scheduler(std::move(scheduler))
                      .tenants(std::vector<serve::TenantConfig>(
                          static_cast<std::size_t>(max_tenant) + 1))
                      .slo(std::move(slo))
                      .build();
  config.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;

  // Autoscaler thresholds derived from the trace itself: 16 epochs over
  // its span, up/down bracketing the mean arrivals per instance per
  // epoch inside the diurnal envelope.
  constexpr std::size_t kEpochs = 16;
  const sim::Cycle span = trace.empty() ? 1 : trace.back().arrival_cycle + 1;
  const double mean_per_instance =
      static_cast<double>(trace.size()) /
      static_cast<double>(kEpochs * kFleetInstances);
  config.autoscaler.enabled = true;
  config.autoscaler.epoch_cycles = std::max<sim::Cycle>(1, span / kEpochs);
  config.autoscaler.up_arrivals_per_instance = 1.25 * mean_per_instance;
  config.autoscaler.down_arrivals_per_instance = 0.75 * mean_per_instance;
  config.autoscaler.cooldown_epochs = 0;
  config.autoscaler.min_instances = 1;
  return config;
}

namespace {

/// Adds the duration of `call` to `*slot` when timing is on.
template <typename F>
decltype(auto) timed(double* slot, F&& call) {
  if (slot == nullptr) {
    return call();
  }
  const auto start = Clock::now();
  struct Stop {
    double* slot;
    Clock::time_point start;
    ~Stop() { *slot += seconds_since(start); }
  } stop{slot, start};
  return call();
}

}  // namespace

FleetPass run_fleet_pass(const cluster::ClusterConfig& config,
                         const std::vector<serve::ServedModel>& models,
                         const std::vector<serve::TraceEntry>& trace,
                         accel::ServiceCycleCache& cache,
                         obs::MetricsRegistry* metrics,
                         ClusterCallTimes* times) {
  FleetPass pass;
  pass.arrivals.reserve(trace.size());
  pass.completions.reserve(trace.size());
  // Per-(instance, task) story cursors mirror each session's round-robin
  // story choice, so every answer can be checked against its own story.
  std::vector<std::vector<std::size_t>> cursor(
      config.instances, std::vector<std::size_t>(models.size(), 0));
  const auto append = [&pass](std::vector<cluster::ClusterCompletion> got) {
    for (cluster::ClusterCompletion& c : got) {
      pass.completions.push_back(std::move(c));
    }
  };

  auto block_start = Clock::now();
  const auto close_block = [&pass, &block_start] {
    const auto now = Clock::now();
    pass.block_s.push_back(
        std::chrono::duration<double>(now - block_start).count());
    block_start = now;
  };
  {
    cluster::ClusterConfig fleet_config = config;
    fleet_config.server.scheduler.cycle_cache = &cache;
    fleet_config.server.metrics = metrics;
    cluster::Cluster fleet = timed(times ? &times->build_s : nullptr, [&] {
      return cluster::Cluster(std::move(fleet_config), models);
    });
    std::size_t since_poll = 0;
    for (const serve::TraceEntry& entry : trace) {
      if (times != nullptr) {
        const auto step_start = Clock::now();
        fleet.step_until(entry.arrival_cycle);
        const double s = seconds_since(step_start);
        times->step_s += s;
        times->step_us.push_back(static_cast<float>(s * 1e6));
        ++times->step_calls;
      } else {
        fleet.step_until(entry.arrival_cycle);
      }
      serve::SubmitRequest request;
      request.task = entry.task;
      request.tenant = entry.tenant;
      request.at_cycle = entry.arrival_cycle;
      const cluster::Cluster::Submission sub =
          timed(times ? &times->submit_s : nullptr,
                [&] { return fleet.submit(request); });
      Arrival arrival;
      arrival.id = sub.id;
      arrival.task = entry.task;
      arrival.at = entry.arrival_cycle;
      arrival.routed = sub.instance.has_value();
      if (arrival.routed) {
        std::size_t& c = cursor[*sub.instance][entry.task];
        arrival.story = c;
        c = (c + 1) % models[entry.task].stories.size();
      }
      pass.arrivals.push_back(arrival);
      if (pass.arrivals.size() % kBlockArrivals == 0) {
        close_block();
      }
      if (++since_poll >= 256) {
        append(timed(times ? &times->poll_s : nullptr,
                     [&] { return fleet.poll_completions(); }));
        since_poll = 0;
      }
    }
    // Cluster::finalize() would drain, step to quiescence and poll the
    // tail itself, but discard it; doing those steps here first keeps
    // the tail for the checks and leaves the report unchanged.
    pass.report = timed(times ? &times->finalize_s : nullptr, [&] {
      fleet.drain();
      fleet.step_until(sim::kNever);
      append(fleet.poll_completions());
      return fleet.finalize();
    });
  }
  close_block();
  if (times != nullptr) {
    ++times->passes;
    times->submit_calls += trace.size();
    times->poll_calls += trace.size() / 256;
  }
  return pass;
}

}  // namespace layerbench
