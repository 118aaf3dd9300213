#include "accel/host_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

}  // namespace

HostLinkModule::HostLinkModule(const AccelConfig& config,
                               std::vector<StreamWord> words,
                               sim::Fifo<StreamWord>& fifo_in,
                               sim::Fifo<std::int32_t>& fifo_out)
    : Module("HOST_LINK"),
      words_(std::move(words)),
      fifo_in_(fifo_in),
      fifo_out_(fifo_out),
      words_per_cycle_(config.link.words_per_second / config.clock_hz),
      model_words_per_cycle_(config.link.model_words_per_second /
                             config.clock_hz),
      story_latency_cycles_(
          seconds_to_cycles(config.link.per_story_latency, config.clock_hz)),
      result_latency_cycles_(
          seconds_to_cycles(config.link.result_latency, config.clock_hz)),
      synchronous_(config.link.synchronous_stories) {
  if (words_per_cycle_ <= 0.0) {
    throw std::invalid_argument("HostLinkModule: non-positive link rate");
  }
}

double HostLinkModule::rate() const noexcept {
  // Model upload is bulk DMA; the inference stream is word-granular.
  return words_[position_].op == StreamOp::kModelWord
             ? model_words_per_cycle_
             : words_per_cycle_;
}

bool HostLinkModule::awaiting_answer() const noexcept {
  return synchronous_ && words_[position_].op == StreamOp::kStoryStart &&
         answers_.size() < stories_sent_;
}

std::optional<sim::Cycle> HostLinkModule::next_activity(
    sim::Cycle now) const {
  if (!fifo_out_.empty()) {
    return now;  // drains an answer
  }
  if (position_ >= words_.size() || awaiting_answer()) {
    return sim::kNever;
  }
  const StreamWord& word = words_[position_];
  const bool charges_latency = word.op == StreamOp::kStoryStart &&
                               !latency_charged_ && story_latency_cycles_ > 0;
  if (!charges_latency && fifo_in_.full()) {
    return sim::kNever;  // every covered cycle is a stall; skip() counts it
  }
  // The tick whose credit addition first covers a word, found by replaying
  // tick()'s exact sequence of double additions (a closed form could round
  // differently). An over-long scan stops early: reporting an earlier
  // cycle only costs a real tick there.
  constexpr sim::Cycle kMaxScan = 1 << 16;
  const double per_cycle = rate();
  sim::Cycle at = now + delay_;
  double credit = delay_ > 0 ? 0.0 : credit_;
  for (sim::Cycle scanned = 1; (credit += per_cycle) < 1.0 &&
                               scanned < kMaxScan;
       ++scanned) {
    ++at;
  }
  return at;
}

void HostLinkModule::skip(sim::Cycle cycles) {
  // Exactly what `cycles` ticks do while FIFO_OUT is empty and no word
  // moves: DMA setup counts down, then credit accrues — reset while
  // awaiting an answer, or stalling once per cycle on a full FIFO_IN.
  cycle_ += cycles;
  if (position_ >= words_.size()) {
    return;
  }
  const sim::Cycle delayed = std::min(cycles, delay_);
  if (delayed > 0) {
    delay_ -= delayed;
    credit_ = 0.0;
    link_active_cycles_ += delayed;
    mark_busy(delayed);
    cycles -= delayed;
  }
  const double per_cycle = rate();
  const bool awaiting = awaiting_answer();
  sim::Cycle stalls = 0;
  for (; cycles > 0; --cycles) {
    credit_ += per_cycle;
    if (credit_ >= 1.0) {
      if (awaiting) {
        credit_ = 0.0;
      } else {
        ++stalls;
      }
    }
  }
  mark_stalled(stalls);
  fifo_in_.reject_pushes(stalls);
}

void HostLinkModule::tick() {
  ++cycle_;
  // Drain one answer per cycle from FIFO_OUT; the host observes it after
  // the readback latency.
  if (const auto answer = fifo_out_.try_pop()) {
    answers_.push_back({*answer, cycle_ + result_latency_cycles_});
  }

  if (position_ >= words_.size()) {
    return;  // everything sent; only draining answers now
  }
  if (delay_ > 0) {
    // DMA/doorbell setup: the link is occupied but no words flow.
    --delay_;
    credit_ = 0.0;
    ++link_active_cycles_;
    mark_busy();
    return;
  }

  credit_ += rate();
  bool pushed = false;
  while (credit_ >= 1.0 && position_ < words_.size()) {
    const StreamWord& word = words_[position_];
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (awaiting_answer()) {
        credit_ = 0.0;
        break;
      }
      if (!latency_charged_ && story_latency_cycles_ > 0) {
        delay_ = story_latency_cycles_;
        latency_charged_ = true;
        break;
      }
    }
    if (!fifo_in_.try_push(word)) {
      mark_stalled();
      break;
    }
    if (word.op == StreamOp::kStoryStart) {
      latency_charged_ = false;
    }
    if (word.op == StreamOp::kEndOfStory) {
      ++stories_sent_;
    }
    credit_ -= 1.0;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

}  // namespace mann::accel
