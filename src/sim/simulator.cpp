#include "sim/simulator.hpp"

#include <stdexcept>

namespace mann::sim {

void Simulator::add_module(Module& module) { modules_.push_back(&module); }

void Simulator::skip(Cycle cycles) {
  for (Module* m : modules_) {
    m->skip(cycles);
  }
  now_ += cycles;
}

void Simulator::tick_all() {
  for (Module* m : modules_) {
    m->tick();
  }
  ++now_;
}

void Simulator::watchdog_expired(const char* message) {
  throw std::runtime_error(message);
}

}  // namespace mann::sim
