// The clock: ticks registered modules in order until a completion
// predicate fires (or a watchdog limit trips, which is always a bug).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "sim/module.hpp"
#include "sim/types.hpp"

namespace mann::sim {

class Simulator {
 public:
  /// Registers a module. Tick order == registration order; pick an order
  /// consistent with the dataflow direction (producers before consumers
  /// gives same-cycle forwarding through FIFOs, like combinational
  /// FIFO bypass).
  void add_module(Module& module);

  /// Ticks every module every cycle until `done()` returns true. Returns
  /// cycles elapsed in this call. Throws std::runtime_error when
  /// `max_cycles` elapses first.
  template <typename Done>
  Cycle run_until(Done&& done, Cycle max_cycles);

  /// Like run_until, but when every registered module reports a future
  /// next_activity() the clock jumps straight to the earliest one, and
  /// each module accounts the skipped cycles through Module::skip instead
  /// of being ticked through the quiescent gap. Exact for modules that
  /// honour the next_activity/skip contract (module.hpp); identical to
  /// run_until when any module returns nullopt. The device simulation
  /// runs on it, and the serving runtime uses it to simulate sparse
  /// request arrivals over billions of cycles in bounded host time.
  template <typename Done>
  Cycle run_events(Done&& done, Cycle max_cycles);

  /// Jumps the clock over `cycles` quiet cycles: every module accounts
  /// them through Module::skip. The caller vouches that the jump stays
  /// within every module's next_activity().
  void skip(Cycle cycles);

  /// Cheap timing fast-forward: advances the clock by `cycles` without
  /// telling any module — for a caller that ticked the modules itself.
  void advance(Cycle cycles) noexcept { now_ += cycles; }

  /// Total cycles elapsed since construction.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  [[nodiscard]] const std::vector<Module*>& modules() const noexcept {
    return modules_;
  }

 private:
  void tick_all();
  [[noreturn]] static void watchdog_expired(const char* message);

  std::vector<Module*> modules_;
  Cycle now_ = 0;
};

template <typename Done>
Cycle Simulator::run_until(Done&& done, Cycle max_cycles) {
  const Cycle start = now_;
  while (!done()) {
    if (now_ - start >= max_cycles) {
      watchdog_expired(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }
    tick_all();
  }
  return now_ - start;
}

template <typename Done>
Cycle Simulator::run_events(Done&& done, Cycle max_cycles) {
  const Cycle start = now_;
  while (!done()) {
    if (now_ - start >= max_cycles) {
      watchdog_expired(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }

    // Quiescence check: if every module agrees nothing can happen before
    // some future cycle, jump straight there. A nullopt or a due module
    // vetoes the jump, so stop asking at the first one.
    Cycle horizon = kNever;
    for (const Module* m : modules_) {
      const std::optional<Cycle> next = m->next_activity(now_);
      horizon = next.has_value() ? std::min(horizon, *next) : now_;
      if (horizon <= now_) {
        break;
      }
    }
    if (horizon > now_ && !modules_.empty()) {
      // Clamp so the watchdog still fires instead of wrapping past it.
      skip(std::min(horizon, start + max_cycles) - now_);
      if (now_ - start >= max_cycles) {
        watchdog_expired(
            "Simulator: watchdog expired — all modules idle forever");
      }
    }
    tick_all();
  }
  return now_ - start;
}

}  // namespace mann::sim
