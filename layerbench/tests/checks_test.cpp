// Negative controls for the benchmark's output checks: each check must
// pass on real, correct output and count a failure on known-bad input —
// a check that can never trip proves nothing. Runs on the trained suite:
//
//   layerbench_selftest --models DIR --trace-csv PATH
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using namespace mann;
using namespace layerbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
  g_failures += ok ? 0 : 1;
}

void device_controls(const std::vector<runtime::TaskArtifacts>& suite) {
  const References ref_off = reference_argmax(suite);
  const References ref_on = reference_ith(suite);
  for (const bool ith : {false, true}) {
    const References& ref = ith ? ref_on : ref_off;
    accel::AccelConfig cfg;
    cfg.clock_hz = kClockHz;
    cfg.ith_enabled = ith;
    const accel::Accelerator device(
        cfg, accel::compile_model(suite[0].model, ith ? &suite[0].ith
                                                      : nullptr));
    const std::size_t vocab = device.program().vocab_size;
    const accel::RunResult run = device.run(suite[0].dataset.test);
    const std::string mode = ith ? " (ITH on)" : " (ITH off)";

    const CheckCount good = check_device_run(run, ref[0], vocab, ith);
    expect(good.attempted == suite[0].dataset.test.size() && good.failed == 0,
           ("device: correct run passes" + mode).c_str());

    // Another task's model answers different stories.
    const CheckCount other = check_device_run(run, ref[1], vocab, ith);
    expect(other.failed > 0,
           ("device: references of another task's model fail" + mode)
               .c_str());

    accel::RunResult wrong = run;
    wrong.stories[3].prediction =
        (wrong.stories[3].prediction + 1) % static_cast<int>(vocab);
    wrong.stories[3].prediction =
        wrong.stories[3].prediction == ref[0][3].near_tie
            ? (wrong.stories[3].prediction + 1) % static_cast<int>(vocab)
            : wrong.stories[3].prediction;
    expect(check_device_run(wrong, ref[0], vocab, ith).failed == 1,
           ("device: one wrong prediction counts one failure" + mode)
               .c_str());

    accel::RunResult probes = run;
    probes.stories[5].output_probes = vocab + 1;
    expect(check_device_run(probes, ref[0], vocab, ith).failed == 1,
           ("device: more probes than |vocab| fails" + mode).c_str());

    accel::RunResult truncated = run;
    truncated.stories.resize(run.stories.size() - 2);
    expect(check_device_run(truncated, ref[0], vocab, ith).failed == 2,
           ("device: missing answers fail" + mode).c_str());

    if (!ith) {
      accel::RunResult early = run;
      early.stories[7].output_probes = vocab - 1;
      expect(check_device_run(early, ref[0], vocab, ith).failed == 1,
             "device: ITH off must probe exactly |vocab| classes");
    }
  }
}

void fleet_controls(const std::vector<runtime::TaskArtifacts>& suite,
                    const std::string& trace_csv) {
  const std::vector<serve::ServedModel> models = compile_served_models(suite);
  std::vector<serve::TraceEntry> trace = fleet_trace(trace_csv, suite.size());
  trace.resize(3000);  // a prefix is enough to exercise every check
  const cluster::ClusterConfig config = fleet_config(trace, suite.size());
  accel::ServiceCycleCache cache(kCacheCapacity);
  const FleetPass pass =
      run_fleet_pass(config, models, trace, cache, nullptr, nullptr);
  const References ref = reference_ith(suite);

  const CheckCount good = check_fleet_pass(pass.arrivals, pass.completions, ref);
  expect(good.attempted == trace.size() && good.failed == 0,
         "fleet: correct pass passes");

  // Driving the fleet by hand must reproduce Cluster's own closed loop.
  {
    cluster::ClusterConfig replay = config;
    replay.server.scheduler.cycle_cache = nullptr;
    replay.server.traffic.process = serve::ArrivalProcess::kTrace;
    replay.server.traffic.trace = trace;
    cluster::Cluster fleet(std::move(replay), models);
    expect(cluster::simulated_cluster_reports_identical(
               pass.report, fleet.run(trace.size())),
           "fleet: the benchmark's drive equals Cluster::run");
  }

  const References swapped(ref.rbegin(), ref.rend());
  expect(check_fleet_pass(pass.arrivals, pass.completions, swapped).failed > 0,
         "fleet: references of other tasks' models fail");

  std::vector<cluster::ClusterCompletion> dup = pass.completions;
  dup.push_back(dup[10]);
  expect(check_fleet_pass(pass.arrivals, dup, ref).failed == 1,
         "fleet: a duplicated completion fails its arrival");

  std::vector<cluster::ClusterCompletion> late = pass.completions;
  serve::InferenceResponse& r = late[20].completion.response;
  expect(r.has_deadline(), "fleet: arrivals carry deadlines");
  r.complete_cycle = r.deadline_cycle + 1;
  late[20].completion.cycle = r.complete_cycle;
  expect(check_fleet_pass(pass.arrivals, late, ref).failed == 1,
         "fleet: a completion moved past its deadline fails");

  std::vector<cluster::ClusterCompletion> shed = pass.completions;
  shed[30].completion.outcome = serve::RequestOutcome::kShedQueueFull;
  expect(check_fleet_pass(pass.arrivals, shed, ref).failed == 1,
         "fleet: a refused request fails");

  std::vector<cluster::ClusterCompletion> missing = pass.completions;
  missing.erase(missing.begin() + 40);
  expect(check_fleet_pass(pass.arrivals, missing, ref).failed == 1,
         "fleet: an unresolved arrival fails");

  std::vector<cluster::ClusterCompletion> order = pass.completions;
  serve::InferenceResponse& o = order[50].completion.response;
  o.dispatch_cycle = o.complete_cycle + 1;
  expect(check_fleet_pass(pass.arrivals, order, ref).failed == 1,
         "fleet: dispatch after completion fails");

  std::vector<cluster::ClusterCompletion> stray = pass.completions;
  stray.push_back(stray[60]);
  stray.back().completion.response.id = ~serve::RequestId{0};
  expect(check_fleet_pass(pass.arrivals, stray, ref).failed == 1,
         "fleet: a completion for no arrival fails");

  // A refused arrival never reaches an instance, so it has no completion.
  std::vector<Arrival> refused = pass.arrivals;
  refused[70].routed = false;
  std::vector<cluster::ClusterCompletion> unresolved;
  for (const cluster::ClusterCompletion& c : pass.completions) {
    if (c.completion.response.id != refused[70].id) {
      unresolved.push_back(c);
    }
  }
  expect(check_fleet_pass(refused, unresolved, ref).failed == 1,
         "fleet: a router refusal fails");
}

}  // namespace

int main(int argc, char** argv) {
  std::string models_dir;
  std::string trace_csv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--models") {
      models_dir = argv[i + 1];
    } else if (flag == "--trace-csv") {
      trace_csv = argv[i + 1];
    }
  }
  if (models_dir.empty() || trace_csv.empty() ||
      !runtime::suite_cache_complete(suite_config(), models_dir)) {
    std::fprintf(stderr,
                 "usage: layerbench_selftest --models DIR --trace-csv PATH "
                 "(DIR must hold the prepared suite)\n");
    return 2;
  }
  const std::vector<runtime::TaskArtifacts> suite =
      runtime::prepare_suite_cached(suite_config(), models_dir);
  device_controls(suite);
  fleet_controls(suite, trace_csv);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
