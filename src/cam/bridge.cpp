#include "cam/bridge.hpp"

namespace stlm::cam {

BusBridge::BusBridge(Simulator& sim, std::string name, CamIf& downstream,
                     std::uint32_t crossing_cycles)
    : Module(sim, std::move(name)),
      down_(downstream),
      down_master_(downstream.add_master(full_name())),
      crossing_cycles_(crossing_cycles) {}

Time BusBridge::handle(Txn& txn) {
  if (crossing_cycles_) wait(down_.cycle() * crossing_cycles_);
  ++forwarded_;
  // The upstream descriptor stays on the upstream bus, whose initiator
  // waits on it; the downstream hop gets a pooled descriptor of its own.
  // It keeps the upstream id and retry count, so the two hops' rows
  // correlate to one logical transaction.
  PooledTxn fwd(sim().txn_pool());
  Txn& down = *fwd;
  down.op = txn.op;
  down.flags = txn.flags;
  down.addr = txn.addr;
  down.read_bytes = txn.read_bytes;
  down.data = txn.data;
  down.id = txn.id;
  down.retries = txn.retries;
  down_.master_port(down_master_).transport(down);
  txn.status = down.status;
  txn.resp_data = down.resp_data;
  return Time::zero();
}

}  // namespace stlm::cam
