#include "ocp/pin_slave.hpp"

namespace stlm::ocp {

OcpPinSlave::OcpPinSlave(Simulator& sim, std::string name, OcpPins& pins,
                         Clock& clk, ocp_tl_slave_if& device,
                         std::uint32_t device_latency_cycles, Module* parent)
    : Module(sim, std::move(name), parent),
      pins_(pins),
      clk_(clk),
      device_(device),
      latency_(device_latency_cycles) {
  spawn_thread("fsm", [this] { fsm(); });
}

void OcpPinSlave::fsm() {
  Event& edge = clk_.posedge_event();
  for (;;) {
    // Idle: sleep until a command is on MCmd at a rising edge.
    clk_.wait_posedge_until(pins_.MCmd, [](std::uint8_t c) {
      return static_cast<Cmd>(c) != Cmd::Idle;
    });
    const auto cmd = static_cast<Cmd>(pins_.MCmd.read());
    if (!pins_.SCmdAccept.read()) continue;

    const std::uint32_t addr = pins_.MAddr.read();
    const std::uint32_t beats = pins_.MBurstLen.read();
    const std::uint32_t byte_cnt = pins_.MByteCnt.read();

    if (cmd == Cmd::Write) {
      // Capture beat 0 at this edge, remaining beats on following edges —
      // straight into the reusable descriptor's payload buffer.
      txn_.begin_write(addr, nullptr, 0);
      std::vector<std::uint8_t>& bytes = txn_.data;
      bytes.reserve(static_cast<std::size_t>(beats) * kWordBytes);
      append_word(bytes, pins_.MData.read());
      for (std::uint32_t beat = 1; beat < beats; ++beat) {
        wait(edge);
        append_word(bytes, pins_.MData.read());
      }
      bytes.resize(byte_cnt);  // drop final-word padding
      pins_.SCmdAccept.write(false);
      for (std::uint32_t i = 0; i < latency_; ++i) wait(edge);
      if (const Time t = device_.handle(txn_); !t.is_zero()) wait(t);
      pins_.SResp.write(static_cast<std::uint8_t>(
          txn_.ok() ? RespCode::DVA : RespCode::Err));
      wait(edge);
      pins_.SResp.write(static_cast<std::uint8_t>(RespCode::Null));
      pins_.SCmdAccept.write(true);
      ++transactions_;
      continue;
    }

    // Read.
    pins_.SCmdAccept.write(false);
    for (std::uint32_t i = 0; i < latency_; ++i) wait(edge);
    txn_.begin_read(addr, byte_cnt);
    if (const Time t = device_.handle(txn_); !t.is_zero()) wait(t);
    if (!txn_.ok()) {
      pins_.SResp.write(static_cast<std::uint8_t>(RespCode::Err));
      wait(edge);
    } else {
      for (std::uint32_t beat = 0; beat < beats; ++beat) {
        pins_.SData.write(word_at(txn_.resp_data, beat));
        pins_.SResp.write(static_cast<std::uint8_t>(RespCode::DVA));
        wait(edge);
      }
    }
    pins_.SResp.write(static_cast<std::uint8_t>(RespCode::Null));
    pins_.SCmdAccept.write(true);
    ++transactions_;
  }
}

}  // namespace stlm::ocp
