#include "accessor/slave_accessor.hpp"

namespace stlm::accessor {

SlaveAccessor::SlaveAccessor(Simulator& sim, std::string name,
                             ocp::OcpPins& pe_pins, BusPins& bus, Clock& clk,
                             cam::AddressRange decode)
    : Module(sim, std::move(name)),
      bus_(bus),
      clk_(clk),
      decode_(decode),
      pe_side_(sim, full_name() + ".pe_side", pe_pins, clk, this) {
  spawn_thread("fsm", [this] { fsm(); });
}

void SlaveAccessor::fsm() {
  Event& edge = clk_.posedge_event();
  for (;;) {
    // Idle: sleep until an address phase is on the bus at a rising edge.
    clk_.wait_posedge_until(bus_.PAValid, [](bool valid) { return valid; });
    const std::uint64_t addr = bus_.ABus.read();
    if (!decode_.contains(addr)) continue;

    const auto cmd = static_cast<ocp::Cmd>(bus_.MCmd.read());
    const std::uint32_t beats = bus_.BurstLen.read();
    const std::uint32_t byte_cnt = bus_.ByteCnt.read();

    bool error = false;
    if (cmd == ocp::Cmd::Write) {
      // Capture the write burst from the bus into the reusable descriptor.
      txn_.begin_write(addr, nullptr, 0);
      std::vector<std::uint8_t>& bytes = txn_.data;
      bytes.reserve(static_cast<std::size_t>(beats) * ocp::kWordBytes);
      bus_.WrAck.write(true);
      for (std::uint32_t got = 0; got < beats;) {
        wait(edge);
        if (!bus_.WrValid.read()) continue;
        ocp::append_word(bytes, bus_.WrDBus.read());
        ++got;
      }
      bus_.WrAck.write(false);
      bytes.resize(byte_cnt);
      // Forward to the PE over its own pin-level OCP interface.
      pe_side_.transport(txn_);
      error = !txn_.ok();
    } else if (cmd == ocp::Cmd::Read) {
      txn_.begin_read(addr, byte_cnt);
      pe_side_.transport(txn_);
      error = !txn_.ok();
      if (!error) {
        for (std::uint32_t beat = 0; beat < beats; ++beat) {
          bus_.RdDBus.write(ocp::word_at(txn_.resp_data, beat));
          bus_.RdAck.write(true);
          wait(edge);
        }
        bus_.RdAck.write(false);
      }
    } else {
      continue;  // idle or illegal: not ours to answer
    }

    // Completion pulse (one cycle).
    bus_.Comp.write(true);
    bus_.CompErr.write(error);
    wait(edge);
    bus_.Comp.write(false);
    bus_.CompErr.write(false);
    ++transactions_;
  }
}

}  // namespace stlm::accessor
