// The benchmark's workloads, built only from libmann's public API: the
// paper-protocol device runs and the trace-driven fleet, driven the way
// cluster::Cluster::run drives it (step_until(arrival), then submit).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/service_cycle_cache.hpp"
#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "power/power_model.hpp"
#include "runtime/measurement.hpp"
#include "serve/trace.hpp"

namespace layerbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The paper's 100 MHz operating point, used by every workload.
inline constexpr double kClockHz = 100.0e6;

/// The trained 20-task suite: E=24, 3 hops, 700 train / 200 test stories
/// per task (the repository's canonical bench regime). Models are cached
/// on disk keyed on this config by runtime::prepare_suite_cached.
[[nodiscard]] mann::runtime::PrepareConfig suite_config();

// ------------------------------------------------------------ device_suite

/// One compiled (task, ITH mode) device: the unit of the paper's
/// measurement protocol (model upload + the task's test split).
struct DeviceCase {
  std::size_t task = 0;
  bool ith = false;
  mann::accel::Accelerator device;
};

/// Task-major, ITH off before on: 2 cases per task.
[[nodiscard]] std::vector<DeviceCase> compile_device_cases(
    const std::vector<mann::runtime::TaskArtifacts>& suite);

/// Simulated outcome of one device_suite round, folded in case order so it
/// is independent of the (seeded) execution order. Every field is a pure
/// function of the models and the test splits.
struct DeviceRoundSim {
  std::uint64_t stories = 0;
  std::uint64_t cycles = 0;
  double sim_seconds = 0.0;
  double dynamic_joules = 0.0;
  double static_joules = 0.0;  ///< static + clock tree
  double link_joules = 0.0;
  std::uint64_t macs = 0;
  std::uint64_t link_active_cycles = 0;
  std::uint64_t ith_stories = 0;
  std::uint64_t ith_probes = 0;
  std::uint64_t ith_early_exits = 0;
  /// Per ITH mode [off, on]: simulated seconds and joules (Table I rows).
  double mode_seconds[2] = {0.0, 0.0};
  double mode_joules[2] = {0.0, 0.0};
  /// busy/stall cycles per datapath module, in kDeviceModules order.
  std::vector<std::uint64_t> module_busy;
  std::vector<std::uint64_t> module_stall;
  /// Cycles between consecutive answers of one run, all runs.
  std::vector<double> gaps;

  [[nodiscard]] double total_joules() const noexcept {
    return dynamic_joules + static_joules + link_joules;
  }
  [[nodiscard]] bool operator==(const DeviceRoundSim&) const = default;
};

/// Lower-case module names, in RunResult::modules order.
inline const char* const kDeviceModules[] = {
    "host_link", "control", "input_write", "read", "mem", "output"};

/// Folds one round's results (results[k] from cases[k]).
[[nodiscard]] DeviceRoundSim fold_device_round(
    const std::vector<DeviceCase>& cases,
    const std::vector<mann::accel::RunResult>& results,
    const mann::power::FpgaPowerModel& power, double* estimate_seconds);

// ------------------------------------------------------------------ fleets

/// Fleet shape: p2c over 3 instances of 8 devices, B=8, mixed 3/30 ms
/// SLOs, autoscaler thresholds derived from the trace (bench sweep 9).
inline constexpr std::size_t kFleetInstances = 3;
inline constexpr std::size_t kFleetDevices = 8;
inline constexpr std::size_t kTraceScale = 10;
/// scale_trace's jitter seed, fixed so the simulated figures are a
/// reference that every run and every commit reproduces bit for bit.
inline constexpr std::uint64_t kTraceSeed = 2019;
/// Entry bound of the fleet-shared cycle cache: room for every device
/// run of a pass, so a warm replay never misses.
inline constexpr std::size_t kCacheCapacity = std::size_t{1} << 16;

/// Host workers per instance (the serving template's worker count). The
/// fleets run sequentially: on a 4-core host, 1 worker per instance made
/// a cold pass ~1.7x faster but its host time spread 34% across runs,
/// against 14% sequential (6 runs each, interleaved). Simulated figures
/// are identical either way.
inline constexpr std::size_t kFleetWorkers = 0;

/// Compiles the ITH-enabled served-model registry (views into `suite`).
[[nodiscard]] std::vector<mann::serve::ServedModel> compile_served_models(
    const std::vector<mann::runtime::TaskArtifacts>& suite);

/// The committed trace amplified kTraceScale-fold, task ids folded into
/// the suite.
[[nodiscard]] std::vector<mann::serve::TraceEntry> fleet_trace(
    const std::string& csv_path, std::size_t tasks);

/// The fleet template for `trace`. No cycle cache and no metrics sink:
/// run_fleet_pass attaches those per pass.
[[nodiscard]] mann::cluster::ClusterConfig fleet_config(
    const std::vector<mann::serve::TraceEntry>& trace, std::size_t tasks);

/// Arrivals per timed block of a fleet pass.
inline constexpr std::size_t kBlockArrivals = 1000;

/// Host-time spans around each call into mann::cluster (traced runs).
struct ClusterCallTimes {
  double build_s = 0.0;
  double submit_s = 0.0;
  double step_s = 0.0;
  double poll_s = 0.0;
  double finalize_s = 0.0;
  std::uint64_t passes = 0;
  std::uint64_t submit_calls = 0;
  std::uint64_t step_calls = 0;
  std::uint64_t poll_calls = 0;
  std::vector<float> step_us;  ///< every step_until call
};

struct FleetPass {
  mann::cluster::ClusterReport report;
  std::vector<Arrival> arrivals;
  std::vector<mann::cluster::ClusterCompletion> completions;
  /// Host seconds of each block of kBlockArrivals arrivals (the first
  /// includes building the fleet), then of finalize and teardown.
  std::vector<double> block_s;
};

/// Serves `trace` once on a fresh fleet built from `config`, dispatching
/// through `cache`. `metrics` and `times` are optional (traced runs).
[[nodiscard]] FleetPass run_fleet_pass(
    const mann::cluster::ClusterConfig& config,
    const std::vector<mann::serve::ServedModel>& models,
    const std::vector<mann::serve::TraceEntry>& trace,
    mann::accel::ServiceCycleCache& cache, mann::obs::MetricsRegistry* metrics,
    ClusterCallTimes* times);

}  // namespace layerbench
