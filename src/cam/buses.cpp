#include "cam/buses.hpp"

namespace stlm::cam {

CrossbarCam::CrossbarCam(Simulator& sim, std::string name, Time cycle,
                         std::size_t width_bytes, SplitConfig split)
    : CamIf(sim, std::move(name), cycle,
            width_bytes ? width_bytes : kDefaultWidthBytes),
      split_(split),
      slot_free_(sim, full_name() + ".slot_free") {}

void CrossbarCam::on_master(std::size_t) { inflight_.push_back(0); }

void CrossbarCam::on_slave(std::size_t lane, const std::string& label) {
  lanes_.push_back(
      std::make_unique<Mutex>(sim(), full_name() + ".lane" + label));
  lane_stats_.push_back(std::make_unique<LaneStats>());
  if (split_.active()) {
    lane_q_.push_back(std::make_unique<TxnQueue>());
    lane_avail_.push_back(
        std::make_unique<Event>(sim(), full_name() + ".lane" + label + ".avail"));
    spawn_thread("lane_" + label, [this, lane] { lane_engine(lane); });
  }
}

double CrossbarCam::utilization() const {
  const Time elapsed = sim().now();
  if (elapsed.is_zero() || lanes_.empty()) return 0.0;
  // Aggregate lane busy time normalized by lanes (parallel resource).
  return busy_time_.to_seconds() /
         (elapsed.to_seconds() * static_cast<double>(lanes_.size()));
}

trace::StatSet& CrossbarCam::stats() {
  // Recompute the lane-derived slots from the shards on every read. The
  // fold order is lane-index order — fixed at elaboration — so the
  // published floating-point sums cannot depend on how the scheduler
  // interleaved the lanes. decode_errors is counted directly on stats_
  // (integer increments commute), survives the fold untouched, and its
  // transactions join the lanes' count.
  trace::Accumulator latency, service;
  std::uint64_t txns = stats_.counter("decode_errors"), bytes = 0;
  for (const auto& ls : lane_stats_) {
    latency.merge(ls->latency);
    service.merge(ls->service);
    txns += ls->transactions;
    bytes += ls->bytes;
  }
  stats_.acc("latency_ns") = latency;
  stats_.acc("service_ns") = service;
  stats_.counter_slot("transactions") = txns;
  stats_.counter_slot("bytes") = bytes;
  for (std::size_t m = 0; m < master_count(); ++m) {
    trace::Accumulator per_master;
    for (const auto& ls : lane_stats_) {
      if (m < ls->per_master.size()) per_master.merge(ls->per_master[m]);
    }
    stats_.acc("master_" + master_label(m) + "_latency_ns") = per_master;
  }
  return stats_;
}

void CrossbarCam::transport(std::size_t master, Txn& txn) {
  if (!split_.active()) {
    route(master, txn);
    return;
  }
  // Split mode: a blocking transport is post + wait. Shelve the outer
  // waiter/bookkeeping like CamBase does, so bridges can forward the
  // same descriptor into a split crossbar.
  const std::uint32_t outer_master = txn.master_id;
  Txn::PhaseShelf shelf(txn);
  CompletionEvent::NestedScope nest(txn.done);
  post(master, txn);
  txn.done.wait(sim());
  txn.master_id = outer_master;
}

void CrossbarCam::submit(std::size_t master, Txn& txn) {
  if (!split_.active()) {
    // CamIf::post contract: without split support the call may run the
    // transaction to completion before returning — the initiator's
    // later done.wait() then returns immediately.
    route(master, txn);
    txn.done.complete(sim());
    return;
  }
  const auto slave = decode(txn);
  txn.enqueued = sim().now();
  txn.reset_phases();
  txn.status = Txn::Status::Pending;
  if (!slave) {
    decode_error(master, txn);
    txn.done.complete(sim());
    return;
  }
  // The access point stamps its port index so the lane engine can retire
  // the right master's slot and statistics (restored by transport()).
  txn.master_id = static_cast<std::uint32_t>(master);
  // Enforce the per-master outstanding cap at the issue point — a master
  // cannot launch deeper than its outstanding capability.
  while (inflight_[master] >= split_.max_outstanding) wait(slot_free_);
  ++inflight_[master];
  // Lanes are arbiter-free FIFOs: same-delta pushes from two masters
  // would be served in dispatch order, so the push side of each lane
  // queue is an audited object (the pop side is a single lane engine).
  audit::on_access(sim(), lane_q_[*slave].get(), audit::Mode::Write,
                   "cam.lane", Module::name());
  lane_q_[*slave]->push_back(txn);
  lane_avail_[*slave]->notify_delta();
}

void CrossbarCam::lane_engine(std::size_t lane) {
  for (;;) {
    while (lane_q_[lane]->empty()) wait(*lane_avail_[lane]);
    Txn* txn = lane_q_[lane]->pop_front();
    serve(lane, *txn);
    const auto master = static_cast<std::size_t>(txn->master_id);
    retire(master, lane, *txn, txn->enqueued);
    --inflight_[master];
    slot_free_.notify_delta();
    txn->done.complete(sim());
  }
}

void CrossbarCam::route(std::size_t master, Txn& txn) {
  const Time start = sim().now();
  // Shelve any outer layer's phase stamps (a bridge may forward the same
  // descriptor through here mid-transaction).
  Txn::PhaseShelf shelf(txn);
  const auto slave = decode(txn);
  if (!slave) {
    decode_error(master, txn);
    return;
  }
  LockGuard lane(*lanes_[*slave]);
  serve(*slave, txn);
  retire(master, *slave, txn, start);
}

void CrossbarCam::decode_error(std::size_t master, Txn& txn) {
  stats_.count("decode_errors");
  txn.respond_error();
  txn.t_grant = sim().now();
  txn.t_data = txn.t_grant;
  finish(txn, master, sim().now());
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

// Statistics shared by the atomic route and the split lanes. Completions
// run concurrently across lanes, so everything here lands in the lane's
// own shard (see LaneStats); within one lane, updates are totally
// ordered — the lane mutex (atomic) or the single lane engine (split) —
// which is exactly what the audit key asserts.
void CrossbarCam::retire(std::size_t master, std::size_t lane, Txn& txn,
                         Time start) {
  audit::on_access(sim(), lane_stats_[lane].get(), audit::Mode::Write,
                   "cam.stats", Module::name());
  // `start` (the outer arrival time) is the issue stamp: hierarchical
  // routes re-stamp txn.enqueued per hop, but the row and spans should
  // cover the whole crossbar round trip.
  finish(txn, master, start);
  LaneStats& ls = *lane_stats_[lane];
  ++ls.transactions;
  ls.bytes += txn.payload_bytes();
  const double latency_ns = (txn.t_complete - start).to_ns();
  ls.latency.add(latency_ns);
  ls.service.add((txn.t_complete - txn.t_grant).to_ns());
  if (ls.per_master.size() <= master) ls.per_master.resize(master_count());
  ls.per_master[master].add(latency_ns);
}

}  // namespace stlm::cam
