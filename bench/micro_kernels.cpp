// Micro-benchmarks of the numeric kernels on the hot paths: the float
// reference model, the fixed-point datapath, and the ITH calibration
// statistics, plus one cold device run. google-benchmark timings,
// independent of the trained suite.
#include <benchmark/benchmark.h>

#include <chrono>
#include <span>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
#include "accel/fx_types.hpp"
#include "data/dataset.hpp"
#include "model/memn2n.hpp"
#include "numeric/kde.hpp"
#include "numeric/lut.hpp"
#include "numeric/random.hpp"
#include "numeric/silhouette.hpp"
#include "numeric/vector_ops.hpp"

namespace {

using namespace mann;

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  numeric::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.uniform(-1.0F, 1.0F);
  }
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::dot(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Dot)->Arg(24)->Arg(256);

void BM_FxDot(benchmark::State& state) {
  // Walks a pool of random-sign row pairs: reusing one pair lets the
  // branch predictor memorise it, and the timing understates the cost
  // on real rows.
  constexpr std::size_t kPairs = 4096;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto fa = random_vector(kPairs * n, 3);
  const auto fb = random_vector(kPairs * n, 4);
  accel::FxVector a(kPairs * n);
  accel::FxVector b(kPairs * n);
  for (std::size_t i = 0; i < kPairs * n; ++i) {
    a[i] = accel::Fx::from_float(fa[i]);
    b[i] = accel::Fx::from_float(fb[i]);
  }
  const std::span<const accel::Fx> rows_a(a);
  const std::span<const accel::Fx> rows_b(b);
  std::size_t pair = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::fx_dot(rows_a.subspan(pair * n, n),
                                           rows_b.subspan(pair * n, n)));
    pair = pair + 1 == kPairs ? 0 : pair + 1;
  }
}
BENCHMARK(BM_FxDot)->Arg(24)->Arg(256);

/// One cold device run (model upload + 64-story stream) of an untrained
/// E=24, 3-hop model: the device-simulation layer's host cost, reported
/// per run (the time column) and per simulated cycle.
void BM_DeviceRun(benchmark::State& state) {
  data::DatasetConfig dc;
  dc.train_stories = 1;
  dc.test_stories = 64;
  const auto ds =
      data::build_task_dataset(data::TaskId::kTwoSupportingFacts, dc);
  model::ModelConfig mc;
  mc.vocab_size = ds.vocab_size();
  mc.embedding_dim = 24;
  mc.hops = 3;
  numeric::Rng rng(12);
  const model::MemN2N net(mc, rng);
  const accel::Accelerator device(accel::AccelConfig{},
                                  accel::compile_model(net));
  double cycles = 0.0;
  double ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const accel::RunResult result = device.run(ds.test);
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    benchmark::DoNotOptimize(result.total_cycles);
    cycles += static_cast<double>(result.total_cycles);
  }
  state.counters["ns_per_sim_cycle"] = cycles > 0.0 ? ns / cycles : 0.0;
  state.counters["sim_cycles_per_run"] = benchmark::Counter(
      cycles, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DeviceRun)->Unit(benchmark::kMicrosecond);

void BM_Softmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_vector(n, 5);
  std::vector<float> v(n);
  for (auto _ : state) {
    v = base;
    numeric::softmax_inplace(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(16)->Arg(160);

void BM_ExpLut(benchmark::State& state) {
  const numeric::ExpLut lut;
  float x = -8.0F;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut(x));
    x = x < -0.1F ? x + 0.01F : -8.0F;
  }
}
BENCHMARK(BM_ExpLut);

void BM_Matvec(benchmark::State& state) {
  numeric::Rng rng(6);
  numeric::Matrix m(static_cast<std::size_t>(state.range(0)), 24);
  for (float& v : m.data()) {
    v = rng.normal();
  }
  const auto x = random_vector(24, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::matvec(m, x));
  }
}
BENCHMARK(BM_Matvec)->Arg(24)->Arg(160);

void BM_KdeEvaluate(benchmark::State& state) {
  const auto samples = random_vector(static_cast<std::size_t>(state.range(0)),
                                     8);
  const numeric::KernelDensity kde(samples);
  float x = -1.0F;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde(x));
    x = x < 1.0F ? x + 0.01F : -1.0F;
  }
}
BENCHMARK(BM_KdeEvaluate)->Arg(128)->Arg(1024);

void BM_Silhouette(benchmark::State& state) {
  const auto own = random_vector(static_cast<std::size_t>(state.range(0)), 9);
  auto other = random_vector(static_cast<std::size_t>(state.range(0)) * 4,
                             10);
  for (float& v : other) {
    v += 2.0F;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::average_silhouette(own, other));
  }
}
BENCHMARK(BM_Silhouette)->Arg(64)->Arg(512);

void BM_ModelForward(benchmark::State& state) {
  data::DatasetConfig dc;
  dc.train_stories = 1;
  dc.test_stories = 8;
  const auto ds =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  model::ModelConfig mc;
  mc.vocab_size = ds.vocab_size();
  mc.embedding_dim = 24;
  mc.hops = 3;
  numeric::Rng rng(11);
  const model::MemN2N net(mc, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(ds.test[i % ds.test.size()]));
    ++i;
  }
}
BENCHMARK(BM_ModelForward);

}  // namespace
