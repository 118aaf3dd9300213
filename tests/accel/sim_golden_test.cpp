// Golden identity of the cycle-level simulation: every RunResult field of
// a sweep of device configurations is folded into one FNV-1a digest per
// case, and the digests are pinned. Any change to how the simulator steps
// (event skipping, bulk accounting, kernel fast paths) must reproduce the
// ticked simulation bit for bit, so these values never change unless the
// simulated device itself is redesigned on purpose.
//
// The program and stories are synthetic and built from integer draws of
// the repository RNG (no float training), so the digests do not depend on
// floating-point code generation. A seeded sweep of random configurations
// also checks Accelerator::run against a reference that wires the same
// module graph and ticks every module on every cycle.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <initializer_list>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/control.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "accel/service_cycle_cache.hpp"
#include "accel/stream.hpp"
#include "sim/simulator.hpp"
#include "numeric/random.hpp"

namespace mann::accel {
namespace {

constexpr std::size_t kVocab = 20;
constexpr std::size_t kDim = 24;

/// Raw Q16.16 word uniform in [-span, span).
Fx random_fx(numeric::Rng& rng, std::int32_t span) {
  const auto width = static_cast<std::size_t>(span) * 2;
  return Fx::from_raw(static_cast<std::int32_t>(rng.index(width)) - span);
}

FxMatrix random_matrix(numeric::Rng& rng, std::size_t rows, std::size_t cols,
                       std::int32_t span) {
  FxMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (Fx& w : m.row(r)) {
      w = random_fx(rng, span);
    }
  }
  return m;
}

struct Shape {
  std::size_t vocab = kVocab;
  std::size_t dim = kDim;
  std::size_t hops = 3;
  std::size_t max_memory = 6;
};

/// A program with ITH tables, V=20, E=24, 3 hops by default. `span` bounds
/// the raw weights: 1 << 15 (|w| < 0.5) keeps the datapath in range,
/// 1 << 24 (|w| < 256) drives the dot products into saturation.
DeviceProgram synthetic_program(std::uint64_t seed, std::int32_t span,
                                const Shape& shape = {}) {
  numeric::Rng rng(seed);
  DeviceProgram p;
  p.vocab_size = shape.vocab;
  p.embedding_dim = shape.dim;
  p.hops = shape.hops;
  p.max_memory = shape.max_memory;
  p.emb_a = random_matrix(rng, shape.vocab, shape.dim, span);
  p.emb_c = random_matrix(rng, shape.vocab, shape.dim, span);
  p.emb_q = random_matrix(rng, shape.vocab, shape.dim, span);
  p.w_r = random_matrix(rng, shape.dim, shape.dim, span);
  p.w_o = random_matrix(rng, shape.vocab, shape.dim, span);
  for (std::size_t c = 0; c < shape.vocab; ++c) {
    // Three quarters of the classes never fire (the compiler's +inf
    // encoding); the rest get thresholds that some stories' logits pass.
    const auto theta = static_cast<std::int32_t>(rng.index(1 << 16));
    p.thresholds.push_back(c % 4 == 0 ? Fx::from_raw(theta) : Fx::max());
    p.probe_order.push_back(static_cast<std::int32_t>(c));
  }
  rng.shuffle(std::span<std::int32_t>(p.probe_order));
  return p;
}

/// Stories of 1-9 sentences (past max_memory, so slots are evicted) of
/// 1-5 words each, plus a 1-4 word question.
std::vector<data::EncodedStory> synthetic_stories(std::uint64_t seed,
                                                  std::size_t count,
                                                  std::size_t vocab = kVocab) {
  numeric::Rng rng(seed);
  std::vector<data::EncodedStory> stories(count);
  for (data::EncodedStory& s : stories) {
    s.context.resize(1 + rng.index(9));
    for (auto& sentence : s.context) {
      sentence.resize(1 + rng.index(5));
      for (std::int32_t& w : sentence) {
        w = static_cast<std::int32_t>(rng.index(vocab));
      }
    }
    s.question.resize(1 + rng.index(4));
    for (std::int32_t& w : s.question) {
      w = static_cast<std::int32_t>(rng.index(vocab));
    }
    s.answer = static_cast<std::int32_t>(rng.index(vocab));
  }
  return stories;
}

class Digest {
 public:
  void mix(std::uint64_t word) noexcept { h_ = fnv1a_mix(h_, word); }
  void mix_signed(std::int64_t word) noexcept {
    mix(static_cast<std::uint64_t>(word));
  }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  void mix(const std::string& s) noexcept {
    mix(std::uint64_t{s.size()});
    for (const char c : s) {
      mix(std::uint64_t{static_cast<unsigned char>(c)});
    }
  }
  void mix(const sim::OpCounts& ops) noexcept {
    for (const std::uint64_t n : {ops.mac, ops.add, ops.exp, ops.div,
                                  ops.mem_read, ops.mem_write, ops.compare}) {
      mix(n);
    }
  }
  void mix(const sim::FifoStats& f) noexcept {
    mix(f.pushes);
    mix(f.pops);
    mix(f.full_rejects);
    mix(std::uint64_t{f.max_occupancy});
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

std::uint64_t digest(const RunResult& r) {
  Digest d;
  d.mix(r.total_cycles);
  d.mix(r.seconds);
  d.mix(std::uint64_t{r.stories.size()});
  for (const StoryOutcome& s : r.stories) {
    d.mix_signed(s.prediction);
    d.mix(s.output_probes);
    d.mix(std::uint64_t{s.early_exit ? 1U : 0U});
    d.mix(s.finish_cycle);
  }
  d.mix(std::uint64_t{r.modules.size()});
  for (const ModuleReport& m : r.modules) {
    d.mix(m.name);
    d.mix(m.stats.busy_cycles);
    d.mix(m.stats.stall_cycles);
    d.mix(m.stats.ops);
  }
  d.mix(r.total_ops);
  d.mix(r.fifo_in_stats);
  d.mix(r.fifo_out_stats);
  d.mix(r.link_active_cycles);
  d.mix(std::uint64_t{r.stream_words});
  return d.value();
}

struct GoldenCase {
  const char* name;
  bool resident;            ///< warm device: model already in BRAM
  bool saturating;          ///< run the large-weight program
  std::uint64_t expected;   ///< digest pinned from the ticked simulator
  void (*edit)(AccelConfig&);
};

// clang-format off
const GoldenCase kCases[] = {
    {"cold_default", false, false, 17001012919169228067U, [](AccelConfig&) {}},
    {"warm_default", true, false, 9289809978197502504U, [](AccelConfig&) {}},
    {"cold_ith", false, false, 15584310509896977089U,
     [](AccelConfig& c) { c.ith_enabled = true; }},
    {"warm_ith", true, false, 15059059423989409658U,
     [](AccelConfig& c) { c.ith_enabled = true; }},
    {"ith_index_order_off", false, false, 13428941145252584873U,
     [](AccelConfig& c) { c.ith_enabled = true; c.use_index_ordering = false; }},
    {"sparse_read", false, false, 10653264011228980416U,
     [](AccelConfig& c) { c.sparse_read_slots = 2; }},
    {"fifo1", false, false, 16668357028340856891U,
     [](AccelConfig& c) { c.fifo_depth = 1; }},
    {"fifo2", false, false, 14757640666185434552U,
     [](AccelConfig& c) { c.fifo_depth = 2; }},
    {"lane8", false, false, 7389677349861709221U,
     [](AccelConfig& c) { c.timing.lane_width = 8; }},
    {"lane8_ith_warm", true, false, 5119389248086710939U,
     [](AccelConfig& c) { c.timing.lane_width = 8; c.ith_enabled = true; }},
    {"async_fifo32", false, false, 12297394295508165602U,
     [](AccelConfig& c) { c.link.synchronous_stories = false; }},
    {"async_fifo2", false, false, 4058796170862323916U,
     [](AccelConfig& c) { c.link.synchronous_stories = false; c.fifo_depth = 2; }},
    {"async_fifo1_warm", true, false, 15653855070049499092U,
     [](AccelConfig& c) { c.link.synchronous_stories = false; c.fifo_depth = 1; }},
    {"async_fast_link_lane8", false, false, 10904910374900197642U,
     [](AccelConfig& c) {
       c.link.synchronous_stories = false;
       c.link.words_per_second = 7.3e7;
       c.timing.lane_width = 8;
       c.fifo_depth = 2;
     }},
    {"clock25_no_latency", false, false, 15596041760975303205U,
     [](AccelConfig& c) {
       c.clock_hz = 25.0e6;
       c.link.per_story_latency = 0.0;
       c.link.result_latency = 0.0;
     }},
    {"clock25_slow_model", false, false, 2757020066171931377U,
     [](AccelConfig& c) {
       c.clock_hz = 25.0e6;
       c.link.model_words_per_second = 3.0e6;
       c.fifo_depth = 2;
     }},
    {"saturating_ith", false, true, 17619058152010017476U,
     [](AccelConfig& c) { c.ith_enabled = true; }},
    {"saturating_sparse_async", false, true, 12800356940296721988U,
     [](AccelConfig& c) {
       c.sparse_read_slots = 3;
       c.link.synchronous_stories = false;
     }},
};
// clang-format on

TEST(SimGolden, RunResultDigestsArePinned) {
  const DeviceProgram program = synthetic_program(2024, 1 << 15);
  const DeviceProgram saturating = synthetic_program(2025, 1 << 24);
  const std::vector<data::EncodedStory> stories = synthetic_stories(7, 12);
  for (const GoldenCase& c : kCases) {
    AccelConfig config;
    c.edit(config);
    const Accelerator device(config, c.saturating ? saturating : program);
    RunOptions options;
    options.model_resident = c.resident;
    const RunResult result = device.run(stories, options);
    EXPECT_EQ(digest(result), c.expected) << c.name;
  }
}

TEST(SimGolden, SweepExercisesEveryMechanism) {
  // Guards the golden sweep's coverage: if a generator change stopped the
  // synthetic workload from early-exiting, back-pressuring or saturating,
  // the pinned digests would silently stop covering that path.
  const DeviceProgram program = synthetic_program(2024, 1 << 15);
  const std::vector<data::EncodedStory> stories = synthetic_stories(7, 12);

  AccelConfig ith;
  ith.ith_enabled = true;
  const RunResult exits = Accelerator(ith, program).run(stories);
  EXPECT_GT(exits.early_exit_rate(), 0.0);
  EXPECT_LT(exits.early_exit_rate(), 1.0);

  AccelConfig pressured;
  pressured.link.synchronous_stories = false;
  pressured.fifo_depth = 1;
  const RunResult stalls = Accelerator(pressured, program).run(stories);
  EXPECT_GT(stalls.fifo_in_stats.full_rejects, 0U);
  std::uint64_t stalled = 0;
  for (const ModuleReport& m : stalls.modules) {
    stalled += m.stats.stall_cycles;
  }
  EXPECT_GT(stalled, 0U);
}

/// The reference stepping: Accelerator::simulate's module graph, ticked
/// every cycle by Simulator::run_until, folded into a RunResult.
RunResult ticked_reference(const AccelConfig& config,
                           const DeviceProgram& program,
                           std::span<const data::EncodedStory> stories,
                           bool resident) {
  AcceleratorState state(program);
  if (resident) {
    state.model_words_seen = state.model_words;
    state.model_loaded = true;
  }
  sim::Fifo<StreamWord> fifo_in("FIFO_IN", config.fifo_depth);
  sim::Fifo<std::int32_t> fifo_out("FIFO_OUT", config.fifo_depth);
  sim::Fifo<InputCmd> cmd_fifo("CMD_FIFO", config.fifo_depth);
  HostLinkModule host(
      config, encode_workload(resident ? 0 : state.model_words, stories),
      fifo_in, fifo_out);
  ControlModule control(state, fifo_in, cmd_fifo);
  InputWriteModule input_write(state, config, cmd_fifo);
  ReadModule read(state, config);
  MemModule mem(state, config);
  OutputModule output(state, config, fifo_out);
  const std::array<sim::Module*, 6> modules = {&host, &control, &input_write,
                                               &read, &mem, &output};
  sim::Simulator simulator;
  for (sim::Module* m : modules) {
    simulator.add_module(*m);
  }
  (void)simulator.run_until(
      [&] { return host.answers().size() >= stories.size(); },
      config.watchdog_cycles);

  RunResult result;
  result.total_cycles = simulator.now();
  result.seconds =
      static_cast<double>(result.total_cycles) / config.clock_hz;
  result.stream_words = host.words_total();
  result.link_active_cycles = host.link_active_cycles();
  for (std::size_t i = 0; i < stories.size(); ++i) {
    const OutputModule::Record& record = output.records().at(i);
    result.stories.push_back({record.prediction, record.probes,
                              record.early_exit, host.answers()[i].cycle});
  }
  for (const sim::Module* m : modules) {
    result.modules.push_back({m->name(), m->stats()});
    result.total_ops += m->stats().ops;
  }
  result.fifo_in_stats = fifo_in.stats();
  result.fifo_out_stats = fifo_out.stats();
  return result;
}

TEST(SimGolden, RunMatchesTickedReferenceOnRandomConfigs) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    numeric::Rng rng(seed);
    const auto pick = [&](std::initializer_list<double> values) {
      return *(values.begin() + rng.index(values.size()));
    };
    Shape shape;
    shape.vocab = 2 + rng.index(24);
    shape.dim = 1 + rng.index(40);
    shape.hops = 1 + rng.index(4);
    shape.max_memory = 1 + rng.index(8);
    const auto span = static_cast<std::int32_t>(
        pick({1 << 12, 1 << 15, 1 << 17, 1 << 24}));
    const DeviceProgram program = synthetic_program(seed, span, shape);

    AccelConfig config;
    config.clock_hz = pick({25.0e6, 33.3e6, 100.0e6, 200.0e6});
    config.timing.lane_width = static_cast<std::size_t>(pick({1, 4, 8, 32}));
    config.timing.exp_latency = static_cast<sim::Cycle>(pick({1, 2, 5}));
    config.timing.div_ii = static_cast<sim::Cycle>(pick({1, 3}));
    config.timing.bram_write = static_cast<sim::Cycle>(pick({1, 3}));
    config.fifo_depth = static_cast<std::size_t>(pick({1, 2, 3, 32}));
    config.link.synchronous_stories = rng.index(2) == 0;
    config.link.words_per_second = pick({1.3e6, 4.0e6, 3.0e7, 2.5e8});
    config.link.model_words_per_second = pick({1.0e6, 5.0e7, 2.0e8});
    config.link.per_story_latency = pick({0.0, 1.0e-7, 2.0e-6});
    config.link.result_latency = pick({0.0, 2.5e-7, 1.0e-6});
    config.sparse_read_slots = static_cast<std::size_t>(pick({0, 0, 1, 3}));
    config.ith_enabled = rng.index(2) == 0;
    config.use_index_ordering = rng.index(3) != 0;
    const bool resident = rng.index(2) == 0;
    const std::vector<data::EncodedStory> stories =
        synthetic_stories(seed, 1 + rng.index(10), shape.vocab);

    RunOptions options;
    options.model_resident = resident;
    const RunResult run = Accelerator(config, program).run(stories, options);
    const RunResult reference =
        ticked_reference(config, program, stories, resident);
    ASSERT_EQ(run.total_cycles, reference.total_cycles) << "seed " << seed;
    ASSERT_EQ(digest(run), digest(reference)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mann::accel
