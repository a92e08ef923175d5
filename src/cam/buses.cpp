// stlm-lint: hot-path — the crossbar's route and lane engines run once
// per bus transaction; steady-state simulation must stay
// heap-allocation-free (see tools/stlm_lint.py).
#include "cam/buses.hpp"

#include <algorithm>

namespace stlm::cam {

CrossbarCam::CrossbarCam(Simulator& sim, std::string name, Time cycle,
                         std::size_t width_bytes, SplitConfig split)
    : CamIf(sim, std::move(name), cycle,
            width_bytes ? width_bytes : kDefaultWidthBytes),
      split_(split),
      slot_free_(sim, full_name() + ".slot_free") {}

void CrossbarCam::on_master(std::size_t) { inflight_.push_back(0); }

void CrossbarCam::on_slave(std::size_t lane, const std::string& label) {
  const std::string lane_name = full_name() + ".lane" + label;
  // stlm-lint: allow(hot-path-alloc): lane creation is elaboration, once
  // per attached slave
  lanes_.push_back(std::make_unique<Mutex>(sim(), lane_name));
  if (split_.active()) {
    // stlm-lint: allow(hot-path-alloc): elaboration, once per lane
    lane_q_.push_back(std::make_unique<TxnQueue>());
    // stlm-lint: allow(hot-path-alloc): elaboration, once per lane
    lane_avail_.push_back(std::make_unique<Event>(sim(), lane_name + ".avail"));
    spawn_thread("lane_" + label, [this, lane] { lane_engine(lane); });
  }
}

void CrossbarCam::reset() {
  CamIf::reset();
  for (const auto& lane : lanes_) lane->reset();
  for (const auto& q : lane_q_) q->clear();
  std::fill(inflight_.begin(), inflight_.end(), 0);
}

double CrossbarCam::utilization() const {
  const Time elapsed = sim().now();
  if (elapsed.is_zero() || lanes_.empty()) return 0.0;
  // Aggregate lane busy time normalized by lanes (parallel resource).
  return busy_time_.to_seconds() /
         (elapsed.to_seconds() * static_cast<double>(lanes_.size()));
}

void CrossbarCam::submit(Txn& txn) {
  if (!split_.active()) {
    // CamIf::post contract: without split support the call may run the
    // transaction to completion before returning — the initiator's
    // later done.wait() then returns immediately.
    route(txn);
    return;
  }
  const auto slave = decode(txn);
  if (!slave) {
    decode_error(txn);
    return;
  }
  // Enforce the per-master outstanding cap at the issue point — a master
  // cannot launch deeper than its outstanding capability.
  const std::size_t master = txn.master_id;
  while (inflight_[master] >= split_.max_outstanding) wait(slot_free_);
  ++inflight_[master];
  // Lanes are arbiter-free FIFOs: same-delta pushes from two masters
  // are served in dispatch order (the pop side is a single lane engine).
  lane_q_[*slave]->push_back(txn);
  lane_avail_[*slave]->notify_delta();
}

void CrossbarCam::lane_engine(std::size_t lane) {
  for (;;) {
    while (lane_q_[lane]->empty()) wait(*lane_avail_[lane]);
    Txn* txn = lane_q_[lane]->pop_front();
    serve(lane, *txn);
    finish(*txn);
    --inflight_[txn->master_id];
    slot_free_.notify_delta();
    txn->done.complete(sim());
  }
}

void CrossbarCam::route(Txn& txn) {
  const auto slave = decode(txn);
  if (!slave) {
    decode_error(txn);
    return;
  }
  LockGuard lane(*lanes_[*slave]);
  serve(*slave, txn);
  finish(txn);
  txn.done.complete(sim());
}

void CrossbarCam::decode_error(Txn& txn) {
  count_decode_error();
  txn.respond_error();
  txn.t_grant = sim().now();
  txn.t_data = txn.t_grant;
  finish(txn);
  txn.done.complete(sim());
}

void CrossbarCam::serve(std::size_t lane, Txn& txn) {
  // Winning the lane is the crossbar's grant; route setup and data move
  // in one occupancy wait, so the data stamp fuses with it.
  txn.t_grant = sim().now();
  txn.t_data = txn.t_grant;
  const Time occ =
      cycle() * (1 + beats_for(txn.payload_bytes(), width_bytes()));
  wait(occ);
  busy_time_ += occ;
  // Lanes are arbiter-free FIFOs, so the crossbar has no grant stream to
  // stall — only injected errors and latency spikes apply.
  deliver(lane, txn);
}

}  // namespace stlm::cam
