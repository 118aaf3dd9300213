// Module base class for the cycle-level dataflow simulation.
//
// Modules are ticked once per clock cycle in a fixed order by the
// Simulator. A module models its internal pipelines with cycle counters:
// when it starts a multi-cycle operation it performs the arithmetic
// immediately (transaction semantics) and then stays busy for the
// operation's latency, which preserves cycle-accurate timing at the module
// boundary without simulating every register.
//
// Event skipping. Most cycles of a run are quiet: a module counts down a
// busy interval, waits on a FIFO or accrues link credit, and nothing another
// module can see changes. A module that implements next_activity() and
// skip() lets Simulator::run_events jump over such stretches:
//
//  * next_activity(now) returns the earliest cycle c >= now at whose tick
//    the module could act — change anything another module or the run's
//    done predicate reads (push or pop a FIFO, flip a shared flag) —
//    assuming no other module acts first. Returning `now` (or any earlier
//    cycle) is always safe: it only forbids the jump. kNever means the
//    module stays quiet until another module acts; nullopt (the default)
//    means "tick me every cycle".
//  * skip(n) must leave the module exactly as n consecutive tick() calls
//    would, ticks now .. now+n-1, under the same assumption: every
//    counter a tick would bump (busy/stall cycles, FIFO reject counts,
//    internal clocks and credit) is advanced in bulk. run_events only calls
//    it with now + n <= next_activity(now).
#pragma once

#include <algorithm>
#include <optional>
#include <string>

#include "sim/types.hpp"

namespace mann::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Advances one clock cycle.
  virtual void tick() = 0;

  /// Earliest cycle >= now at which this module could act given no new
  /// input from other modules (see the file comment for the contract).
  [[nodiscard]] virtual std::optional<Cycle> next_activity(
      Cycle /*now*/) const {
    return std::nullopt;
  }

  /// Accounts `cycles` quiet ticks in bulk, exactly as that many tick()
  /// calls would. The default suits modules whose quiet ticks change
  /// nothing at all.
  virtual void skip(Cycle /*cycles*/) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ModuleStats& stats() const noexcept { return stats_; }

 protected:
  /// Accounting helpers for subclasses.
  void mark_busy(Cycle cycles = 1) noexcept {
    stats_.busy_cycles += cycles;
  }
  void mark_stalled(Cycle cycles = 1) noexcept {
    stats_.stall_cycles += cycles;
  }
  /// skip() of a busy countdown: the first `busy` skipped cycles are busy
  /// ones counted down, the rest idle.
  void skip_busy(Cycle& busy, Cycle cycles) noexcept {
    const Cycle counted = std::min(cycles, busy);
    mark_busy(counted);
    busy -= counted;
  }
  OpCounts& ops() noexcept { return stats_.ops; }

 private:
  std::string name_;
  ModuleStats stats_;
};

}  // namespace mann::sim
