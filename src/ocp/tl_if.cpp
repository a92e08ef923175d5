#include "ocp/tl_if.hpp"

#include "kernel/simulator.hpp"

namespace stlm::ocp {

// Value-typed convenience shims: stage the request in a pooled descriptor,
// run the Txn hot path, copy the response out. Edge-only cost; the layers
// below never copy.

Response ocp_tl_master_if::transport(const Request& req) {
  PooledTxn t(Simulator::require_current().txn_pool());
  request_to_txn(req, *t);
  transport(*t);
  return response_from_txn(*t);
}

Response ocp_tl_slave_if::handle(const Request& req) {
  PooledTxn t(Simulator::require_current().txn_pool());
  request_to_txn(req, *t);
  if (const Time latency = handle(*t); !latency.is_zero()) wait(latency);
  return response_from_txn(*t);
}

}  // namespace stlm::ocp
