#include "accessor/master_accessor.hpp"

namespace stlm::accessor {

MasterAccessor::MasterAccessor(Simulator& sim, std::string name,
                               ocp::OcpPins& pe_pins, BusPins& bus,
                               RtlArbiter& arbiter, Clock& clk)
    : Module(sim, std::move(name)),
      bus_(bus),
      clk_(clk),
      req_line_(sim, full_name() + ".req", false),
      my_id_(arbiter.add_request_line(req_line_)),
      pe_side_(sim, full_name() + ".pe_side", pe_pins, clk, engine_, 0, this) {
  engine_.self = this;
}

Time MasterAccessor::BusEngine::handle(Txn& txn) {
  MasterAccessor& a = *self;
  Event& edge = a.clk_.posedge_event();
  const std::uint32_t beats = txn.beats();

  // Request and wait for grant.
  a.req_line_.write(true);
  a.clk_.wait_posedge_until(
      a.bus_.Grant, [id = a.my_id_](std::uint8_t g) { return g == id; });

  // Address phase (one cycle).
  a.bus_.PAValid.write(true);
  a.bus_.ABus.write(static_cast<std::uint32_t>(txn.addr));
  a.bus_.MCmd.write(static_cast<std::uint8_t>(ocp::txn_cmd(txn)));
  a.bus_.BurstLen.write(static_cast<std::uint8_t>(beats));
  a.bus_.ByteCnt.write(static_cast<std::uint32_t>(txn.payload_bytes()));
  a.bus_.MId.write(a.my_id_);
  wait(edge);
  a.bus_.PAValid.write(false);

  bool error = false;

  if (txn.op == Txn::Op::Write) {
    // Write data phase: advance one beat per acknowledged edge.
    for (std::uint32_t beat = 0; beat < beats;) {
      a.bus_.WrDBus.write(ocp::word_at(txn.data, beat));
      a.bus_.WrValid.write(true);
      wait(edge);
      if (a.bus_.WrAck.read()) ++beat;
    }
    a.bus_.WrValid.write(false);
    // Completion.
    a.clk_.wait_posedge_until(a.bus_.Comp, [](bool comp) { return comp; });
    error = a.bus_.CompErr.read();
    a.req_line_.write(false);
    ++transactions;
    if (error) {
      txn.respond_error();
    } else {
      txn.respond_ok();
    }
    return Time::zero();
  }

  // Read data phase: capture words on RdAck (straight into the response
  // buffer) until the completion pulse.
  std::vector<std::uint8_t>& rd_bytes = txn.resp_data;
  rd_bytes.clear();
  for (;;) {
    wait(edge);
    if (a.bus_.RdAck.read()) ocp::append_word(rd_bytes, a.bus_.RdDBus.read());
    if (a.bus_.Comp.read()) {
      error = a.bus_.CompErr.read();
      break;
    }
  }
  rd_bytes.resize(txn.read_bytes);

  a.req_line_.write(false);
  ++transactions;
  if (error) {
    txn.respond_error();
  } else {
    txn.status = Txn::Status::Ok;
  }
  return Time::zero();
}

}  // namespace stlm::accessor
