// CONTROL module: decodes the input stream, gates story admission, and
// forwards word-level commands to the INPUT & WRITE module (Fig. 1's
// "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>

#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<InputCmd>& cmd_fifo);

  void tick() override;
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

 private:
  AcceleratorState& state_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<InputCmd>& cmd_fifo_;

  /// The head word waits on the datapath: a story start while the previous
  /// story is in flight, or a data word while CMD_FIFO is full. Every such
  /// tick is a stall and changes nothing else.
  [[nodiscard]] bool blocked(const StreamWord& word) const noexcept;
};

}  // namespace mann::accel
