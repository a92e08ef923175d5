#include "ocp/tl_channel.hpp"

namespace stlm::ocp {

OcpTlChannel::OcpTlChannel(Simulator& sim, std::string name,
                           ocp_tl_slave_if& slave, TlTiming timing)
    : sim_(sim),
      name_(std::move(name)),
      slave_(slave),
      timing_(timing),
      busy_(sim, name_ + ".busy") {
  STLM_ASSERT(!timing_.cycle.is_zero(), "OCP TL cycle must be positive: " + name_);
}

void OcpTlChannel::set_txn_logger(trace::TxnLogger* log) {
  log_.bind(log, name_);
}

void OcpTlChannel::transport(Txn& txn) {
  const Time start = sim_.now();
  LockGuard g(busy_);

  const std::uint64_t cycles = timing_.request_cycles +
                               static_cast<std::uint64_t>(txn.beats()) *
                                   timing_.cycles_per_beat +
                               timing_.response_cycles;
  wait(timing_.cycle * cycles);
  // The target's wait states.
  if (const Time t = slave_.handle(txn); !t.is_zero()) wait(t);

  ++transactions_;
  if (log_) {
    log_.record(txn.op == Txn::Op::Read ? trace::TxnKind::Read
                                        : trace::TxnKind::Write,
                txn.id, txn.payload_bytes(), start, sim_.now());
  }
}

}  // namespace stlm::ocp
