#pragma once
// Concrete CCATB bus models.
//
// The paper's flow assumes "a library of CAMs (e.g. of the CoreConnect
// architecture)". We provide:
//   * SharedBusCam — generic 32-bit single-stage shared bus (baseline);
//   * PlbCam       — CoreConnect PLB-like: 64-bit, pipelined arbitration
//                    and address phases (hidden when back-to-back);
//   * OpbCam       — CoreConnect OPB-like: 32-bit peripheral bus, two
//                    cycles per data beat, no pipelining;
//   * CrossbarCam  — per-slave parallel lanes (contention only per target).
//
// Cycle counts are parameterized; defaults follow CoreConnect-class
// documentation (PLB @100 MHz, OPB @50 MHz in the examples).
//
// SharedBusCam and PlbCam support the split engine (SplitConfig): the
// address phase (arbitration + address cycles) pipelines against the
// data phase of earlier transactions, target service runs off the bus,
// and each master may keep `max_outstanding` transactions in flight.
// OpbCam has no address pipelining, so it ignores the split knobs.
// CrossbarCam's split mode queues per lane and completes out of order
// across lanes (per-port OoO).

#include <memory>

#include "cam/cam_base.hpp"
#include "kernel/channels.hpp"

namespace stlm::cam {

// Data beats a payload occupies on a bus of `width_bytes` (min one beat —
// even zero-payload control transactions own the data phase for a cycle).
inline std::uint64_t beats_for(std::size_t payload_bytes,
                               std::size_t width_bytes) {
  if (payload_bytes == 0) return 1;
  return (payload_bytes + width_bytes - 1) / width_bytes;
}

class SharedBusCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 4;

  SharedBusCam(Simulator& sim, std::string name, Time cycle,
               std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
               SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/true,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn, bool) const override {
    // arbitration + address + one cycle per data beat + response.
    return 2 + beats_for(txn.payload_bytes(), width_bytes()) + 1;
  }
  std::uint64_t split_addr_cycles(const Txn&) const override {
    return 2;  // arbitration + address
  }
  std::uint64_t split_data_cycles(const Txn& txn) const override {
    return beats_for(txn.payload_bytes(), width_bytes()) + 1;  // + response
  }
};

class PlbCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 8;

  PlbCam(Simulator& sim, std::string name, Time cycle,
         std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
         SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/true,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn,
                           bool back_to_back) const override {
    const std::uint64_t beats = beats_for(txn.payload_bytes(), width_bytes());
    // Pipelined: request/address overlap the previous data phase.
    const std::uint64_t setup = back_to_back ? 0 : 2;
    return setup + beats;
  }
  std::uint64_t split_addr_cycles(const Txn&) const override {
    return 2;  // request + address, always off the data path in split mode
  }
  std::uint64_t split_data_cycles(const Txn& txn) const override {
    return beats_for(txn.payload_bytes(), width_bytes());
  }
};

class OpbCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 4;

  OpbCam(Simulator& sim, std::string name, Time cycle,
         std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
         SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/false,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn, bool) const override {
    // Single master/slave handshake per word: 2 cycles per beat.
    return 2 + 2ull * beats_for(txn.payload_bytes(), width_bytes());
  }
};

// Parallel crossbar: one lane (and one arbiter-free FIFO queue) per
// slave. Transactions to different targets proceed concurrently. In
// split mode each lane is served by its own engine process and a master
// may post() up to `max_outstanding` transactions across lanes; their
// completions arrive in lane-service order, not issue order (per-port
// out-of-order completion). A decode error holds no lane: it completes
// at issue time with an error row.
class CrossbarCam final : public CamIf {
public:
  static constexpr std::size_t kDefaultWidthBytes = 8;

  CrossbarCam(Simulator& sim, std::string name, Time cycle,
              std::size_t width_bytes = kDefaultWidthBytes,
              SplitConfig split = {});

  double utilization() const override;
  void reset() override;

  bool split_active() const { return split_.active(); }
  // Clamped like CamBase: an inactive split config models depth 1.
  std::size_t max_outstanding() const {
    return split_.active() ? split_.max_outstanding : 1;
  }

private:
  void submit(Txn& txn) override;
  void on_master(std::size_t i) override;
  void on_slave(std::size_t lane, const std::string& label) override;

  // Atomic mode: hold the decoded lane for the whole transaction.
  void route(Txn& txn);
  void lane_engine(std::size_t lane);
  // Charge lane occupancy for `txn`, then deliver it to the lane's slave.
  void serve(std::size_t lane, Txn& txn);
  // Answer and complete an unmapped access at issue time, with its row.
  void decode_error(Txn& txn);

  SplitConfig split_;
  std::vector<std::unique_ptr<Mutex>> lanes_;
  // Split mode: per-lane intrusive queues + wake events, per-master
  // in-flight counts bounded by max_outstanding.
  std::vector<std::unique_ptr<TxnQueue>> lane_q_;
  std::vector<std::unique_ptr<Event>> lane_avail_;
  std::vector<std::size_t> inflight_;
  Event slot_free_;
};

}  // namespace stlm::cam
