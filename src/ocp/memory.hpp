#pragma once
// Generic memory target device (OCP TL slave).
//
// Serves reads/writes inside [base, base+size); out-of-range accesses
// return an error response. Usable behind an OcpTlChannel, a CAM slave
// port, or an OcpPinSlave FSM — one model across all abstraction levels.

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "ocp/tl_if.hpp"

namespace stlm::ocp {

class MemorySlave final : public ocp_tl_slave_if {
public:
  MemorySlave(std::string name, std::uint64_t base, std::size_t size,
              Time access_time = Time::zero())
      : name_(std::move(name)),
        base_(base),
        mem_(size, 0),
        access_time_(access_time) {}

  using ocp_tl_slave_if::handle;
  // A flat memory is a pure function of (state, txn) plus one constant
  // latency, which the error response also pays.
  Time handle(Txn& txn) override {
    const std::size_t len = txn.payload_bytes();
    if (txn.addr < base_ || txn.addr + len > base_ + mem_.size()) {
      txn.respond_error();
      return access_time_;
    }
    const std::size_t off = static_cast<std::size_t>(txn.addr - base_);
    if (txn.op == Txn::Op::Write) {
      std::copy(txn.data.begin(), txn.data.end(), mem_.begin() + off);
      ++writes_;
      txn.respond_ok();
    } else {
      ++reads_;
      txn.respond_data(mem_.data() + off, len);
    }
    return access_time_;
  }

  bool fast_capable() const override { return true; }

  // Test/back-door access (no simulated time).
  std::uint8_t peek(std::uint64_t addr) const { return mem_.at(addr - base_); }
  void poke(std::uint64_t addr, std::uint8_t v) { mem_.at(addr - base_) = v; }

  std::uint64_t base() const { return base_; }
  std::size_t size() const { return mem_.size(); }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::uint64_t base_;
  std::vector<std::uint8_t> mem_;
  Time access_time_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace stlm::ocp
