#pragma once
// SHIP <-> OCP wrappers: refine a SHIP channel onto a communication
// architecture model without touching PE code (paper §3).
//
// A mapped channel becomes a pair:
//   * ShipSlaveWrapper  — sits at the slave PE; it is the SHIP mailbox's
//     target terminal (cam::MailboxTerminal) with its role fixed to
//     slave.
//   * ShipMasterWrapper — sits at the master PE; its role is fixed to
//     master. It converts send/request into burst write transactions into
//     the remote mailbox, polling RSTATUS for replies.

#include <cstdint>
#include <string>
#include <vector>

#include "cam/cam_if.hpp"
#include "cam/mailbox.hpp"
#include "kernel/module.hpp"
#include "ship/channel.hpp"

namespace stlm::cam {

class ShipSlaveWrapper final : public MailboxTerminal {
public:
  ShipSlaveWrapper(Simulator& sim, std::string name, MailboxLayout layout)
      : MailboxTerminal(sim, std::move(name), layout, ship::Role::Slave) {}
};

class ShipMasterWrapper final : public Module, public ship::ship_if {
public:
  // `poll_interval` is the simulated gap between RSTATUS polls while
  // waiting for a reply (models a real master's polling loop).
  // `coalesce` enables burst coalescing: the two adjacent same-target
  // writes each chunk needs (DATA_IN burst, then the CTRL commit word)
  // are merged into one bus burst to CTRL carrying [chunk bytes ++ ctrl
  // word] — half the mailbox transactions per chunk, one bus setup
  // instead of two. The slave wrapper decodes both spellings, so
  // coalescing is a master-side knob (Platform::coalesce_bursts).
  ShipMasterWrapper(Simulator& sim, std::string name, CamIf& cam,
                    std::size_t master_index, MailboxLayout remote,
                    Time poll_interval, bool coalesce = false);

  bool message_available() const override { return false; }

  std::uint64_t bus_transactions() const { return bus_txns_; }
  std::uint64_t poll_count() const { return polls_; }

  // Route mailbox transactions through an initiator-side shim (a
  // RetryPolicy) instead of the CAM port directly. nullptr restores the
  // direct path. The shim must forward to the same master index this
  // wrapper was wired with.
  void set_retry(ocp::ocp_tl_master_if* via) { retry_via_ = via; }

  // Back to the state right after construction (after Simulator::reset):
  // idle, zero counters. The bus and retry bindings stay.
  void reset();

private:
  // put() pushes into the remote mailbox; take() polls for the reply (a
  // master terminal takes nothing else).
  void put(const ship::ship_serializable_if& msg,
           ship::MsgKind kind) override;
  bool take(ship::ship_serializable_if& msg, bool reply) override;
  void transport_checked(Txn& txn);
  std::uint32_t read_u32(std::uint64_t addr);

  // The wrapper serves one PE: its SHIP calls are strictly sequential, so
  // one reusable descriptor and its scratch buffers suffice. BusyGuard
  // turns accidental overlapping use (two processes on one wrapper) into
  // a loud protocol error instead of silent descriptor corruption.
  class BusyGuard {
  public:
    BusyGuard(ShipMasterWrapper& w, const char* call);
    ~BusyGuard() { w_.busy_ = false; }

  private:
    ShipMasterWrapper& w_;
  };

  CamIf& cam_;
  std::size_t master_;
  MailboxLayout remote_;
  Time poll_interval_;
  MailboxPusher pusher_;
  ocp::ocp_tl_master_if* retry_via_ = nullptr;
  Txn bus_txn_;                       // reusable bus descriptor
  std::vector<std::uint8_t> rx_buf_;  // reply reassembly scratch
  bool busy_ = false;
  std::uint64_t bus_txns_ = 0;
  std::uint64_t polls_ = 0;
};

}  // namespace stlm::cam
