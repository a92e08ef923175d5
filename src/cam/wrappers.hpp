#pragma once
// SHIP <-> OCP wrappers: refine a SHIP channel onto a communication
// architecture model without touching PE code (paper §3).
//
// A mapped channel becomes a pair:
//   * ShipSlaveWrapper  — sits at the slave PE; it is an OCP TL slave on
//     the CAM (the SHIP mailbox of cam/mailbox.hpp) and presents the SHIP
//     slave calls (recv/reply) to its PE.
//   * ShipMasterWrapper — sits at the master PE; it presents the SHIP
//     master calls (send/request) and converts them into burst write
//     transactions into the remote mailbox, polling RSTATUS for replies.

#include <cstdint>
#include <string>
#include <vector>

#include "cam/cam_if.hpp"
#include "cam/mailbox.hpp"
#include "kernel/module.hpp"
#include "ship/channel.hpp"

namespace stlm::cam {

class ShipSlaveWrapper final : public Module,
                               public ocp::ocp_tl_slave_if,
                               public ship::ship_if {
public:
  // Caller must attach this wrapper to the CAM: cam.attach_slave(w,
  // layout.range(), name). (The mapper does this automatically.)
  ShipSlaveWrapper(Simulator& sim, std::string name, MailboxLayout layout);

  // --- OCP slave side (bus-facing) ------------------------------------
  using ocp::ocp_tl_slave_if::handle;
  void handle(Txn& txn) override { mailbox_.handle(txn); }
  // The mailbox FSM is wait-free, so the default zero-latency
  // fast_handle() — which simply runs handle() at the effective access
  // time — is exact.
  bool fast_capable() const override { return true; }

  // --- SHIP slave side (PE-facing) ------------------------------------
  void send(const ship::ship_serializable_if&) override;
  void recv(ship::ship_serializable_if& msg) override;
  void request(const ship::ship_serializable_if&,
               ship::ship_serializable_if&) override;
  void reply(const ship::ship_serializable_if& resp) override;
  bool message_available() const override {
    return mailbox_.message_available();
  }
  ship::Role role() const override { return term_.role(); }
  const std::string& channel_name() const override { return Module::name(); }

  std::uint64_t messages_received() const { return mailbox_.messages_in(); }

private:
  MailboxTarget mailbox_;
  ship::TerminalState term_;
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

  void send(const ship::ship_serializable_if& msg) override;
  void recv(ship::ship_serializable_if&) override;
  void request(const ship::ship_serializable_if& req,
               ship::ship_serializable_if& resp) override;
  void reply(const ship::ship_serializable_if&) override;
  bool message_available() const override { return false; }
  ship::Role role() const override { return ship::Role::Master; }
  const std::string& channel_name() const override { return Module::name(); }

  std::uint64_t bus_transactions() const { return bus_txns_; }
  std::uint64_t poll_count() const { return polls_; }

  // Route mailbox transactions through an initiator-side shim (a
  // RetryPolicy) instead of the CAM port directly. nullptr restores the
  // direct path. The shim must forward to the same master index this
  // wrapper was wired with.
  void set_retry(ocp::ocp_tl_master_if* via) { retry_via_ = via; }

private:
  void push(const ship::ship_serializable_if& msg, std::uint32_t flags);
  void pull_reply();  // fills rx_buf_
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
