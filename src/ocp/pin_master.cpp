#include "ocp/pin_master.hpp"

namespace stlm::ocp {

OcpPinMaster::OcpPinMaster(Simulator& sim, std::string name, OcpPins& pins,
                           Clock& clk, Module* parent)
    : Module(sim, std::move(name), parent),
      pins_(pins),
      clk_(clk),
      busy_(sim, full_name() + ".busy") {}

void OcpPinMaster::transport(Txn& txn) {
  STLM_ASSERT(txn.op != Txn::Op::Msg,
              "pin-level transport needs a read/write txn on " + full_name());
  STLM_ASSERT(txn.beats() <= 255, "pin-level burst longer than MBurstLen: " +
                                      full_name());
  LockGuard g(busy_);
  const std::uint32_t beats = txn.beats();
  Event& edge = clk_.posedge_event();

  pins_.MAddr.write(static_cast<std::uint32_t>(txn.addr));
  pins_.MBurstLen.write(static_cast<std::uint8_t>(beats));
  pins_.MByteCnt.write(static_cast<std::uint32_t>(txn.payload_bytes()));

  if (txn.op == Txn::Op::Write) {
    // Command/data phase: one beat per accepted edge.
    for (std::uint32_t beat = 0; beat < beats;) {
      pins_.MCmd.write(static_cast<std::uint8_t>(Cmd::Write));
      pins_.MData.write(word_at(txn.data, beat));
      wait(edge);
      if (pins_.SCmdAccept.read()) ++beat;
    }
    pins_.MCmd.write(static_cast<std::uint8_t>(Cmd::Idle));
    // Response phase: wait for the slave's write acknowledge.
    clk_.wait_posedge_until(pins_.SResp, [](std::uint8_t r) {
      const auto code = static_cast<RespCode>(r);
      return code == RespCode::DVA || code == RespCode::Err ||
             code == RespCode::Fail;
    });
    ++transactions_;
    if (static_cast<RespCode>(pins_.SResp.read()) == RespCode::DVA) {
      txn.respond_ok();
    } else {
      txn.respond_error();
    }
    return;
  }

  // Read: command phase.
  pins_.MCmd.write(static_cast<std::uint8_t>(Cmd::Read));
  clk_.wait_posedge_until(pins_.SCmdAccept, [](bool accept) { return accept; });
  pins_.MCmd.write(static_cast<std::uint8_t>(Cmd::Idle));

  // Response phase: capture one word per DVA edge, straight into the
  // transaction's (capacity-retaining) response buffer.
  std::vector<std::uint8_t>& bytes = txn.resp_data;
  bytes.clear();
  bytes.reserve(static_cast<std::size_t>(beats) * kWordBytes);
  for (std::uint32_t beat = 0; beat < beats;) {
    wait(edge);
    const auto r = static_cast<RespCode>(pins_.SResp.read());
    if (r == RespCode::Err || r == RespCode::Fail) {
      ++transactions_;
      txn.respond_error();
      return;
    }
    if (r != RespCode::DVA) continue;
    append_word(bytes, pins_.SData.read());
    ++beat;
  }
  bytes.resize(txn.read_bytes);  // trim padding of the final word
  txn.status = Txn::Status::Ok;
  ++transactions_;
}

}  // namespace stlm::ocp
