#pragma once
// Execution-context bindings (the eSW synthesis substitution) and the
// SW-local SHIP channel.
//
//   * HwExecContext    — PE behaviour on kernel primitives: consume() is a
//     timed wait at the PE clock, channels are whatever SHIP endpoint the
//     mapper chose (abstract channel, CAM wrapper, or HW adapter).
//   * SwExecContext    — the same behaviour as an RTOS task: consume()
//     charges CPU cycles, idle() rounds to RTOS ticks, channels resolve
//     to the device driver or to SW-local channels.
//   * SwLocalChannel   — a SHIP channel whose two ends are both RTOS
//     tasks: message queues on RTOS semaphores (no bus traffic), the
//     substitution Herrera et al. prescribe for channel objects.

#include <string>

#include "core/pe.hpp"
#include "cpu/cpu.hpp"
#include "rtos/rtos.hpp"
#include "ship/channel.hpp"

namespace stlm::core {

class HwExecContext final : public ExecContext {
public:
  HwExecContext(Simulator& sim, Time pe_cycle)
      : sim_(sim), cycle_(pe_cycle) {}

  // CAM-level mapping only: give this PE a bus master port for direct
  // memory traffic (SystemGraph::add_memory clients). `retry` optionally
  // interposes an initiator-side failure policy (bound to the same bus
  // and master index) for the PE's posted window.
  void bind_memory(cam::CamIf* bus, std::size_t master,
                   cam::RetryPolicy* retry = nullptr) {
    mem_bus_ = bus;
    mem_master_ = master;
    mem_retry_ = retry;
  }

  void consume(std::uint64_t cycles) override { wait(cycle_ * cycles); }
  void idle(Time t) override { wait(t); }
  cam::CamIf* mem_bus() override { return mem_bus_; }
  std::size_t mem_master() const override { return mem_master_; }
  cam::RetryPolicy* mem_retry() override { return mem_retry_; }
  Simulator& sim() override { return sim_; }

private:
  Simulator& sim_;
  Time cycle_;
  cam::CamIf* mem_bus_ = nullptr;
  std::size_t mem_master_ = 0;
  cam::RetryPolicy* mem_retry_ = nullptr;
};

class SwExecContext final : public ExecContext {
public:
  SwExecContext(rtos::Rtos& os, cpu::CpuModel& cpu) : os_(os), cpu_(cpu) {}

  void consume(std::uint64_t cycles) override { cpu_.consume(cycles); }
  void idle(Time t) override;
  Simulator& sim() override { return os_.sim(); }

private:
  rtos::Rtos& os_;
  cpu::CpuModel& cpu_;
};

// SHIP channel between two SW tasks on the same CPU.
class SwLocalChannel {
public:
  SwLocalChannel(rtos::Rtos& os, std::string name, std::size_t depth = 1);

  ship::ship_if& a() { return term_[0]; }
  ship::ship_if& b() { return term_[1]; }
  const std::string& name() const { return name_; }

  // Empty queues, unlatched terminals (a reset system).
  void reset();

private:
  struct Message {
    std::vector<std::uint8_t> payload;
    bool is_request;
  };

  struct Terminal final : ship::ship_if {
    Terminal(SwLocalChannel& c, int i) : ship_if(c.name_), ch(&c), index(i) {}
    bool message_available() const override;
    void put(const ship::ship_serializable_if& msg,
             ship::MsgKind kind) override;
    bool take(ship::ship_serializable_if& msg, bool reply) override;

    SwLocalChannel* ch;
    int index;
  };

  std::string name_;
  Terminal term_[2]{{*this, 0}, {*this, 1}};
  rtos::Queue<Message> dir_[2];  // dir_[i] carries terminal i's messages
};

}  // namespace stlm::core
