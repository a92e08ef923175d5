#include "cam/buses.hpp"

#include "fault/fault.hpp"
#include "obs/trace_session.hpp"

namespace stlm::cam {

CrossbarCam::CrossbarCam(Simulator& sim, std::string name, Time cycle,
                         std::size_t width_bytes, SplitConfig split,
                         bool fast_targets)
    : Module(sim, std::move(name)),
      cycle_(cycle),
      width_(width_bytes ? width_bytes : kDefaultWidthBytes),
      split_(split),
      fast_targets_(fast_targets),
      slot_free_(sim, full_name() + ".slot_free") {
  STLM_ASSERT(!cycle_.is_zero(), "crossbar cycle must be positive: " + full_name());
}

std::size_t CrossbarCam::add_master(const std::string& name) {
  auto mp = std::make_unique<MasterPort>();
  mp->xbar = this;
  mp->index = masters_.size();
  mp->label = name;
  mp->log_id = log_.intern(full_name() + "." + name);
  masters_.push_back(std::move(mp));
  inflight_.push_back(0);
  return masters_.size() - 1;
}

ocp::ocp_tl_master_if& CrossbarCam::master_port(std::size_t i) {
  STLM_ASSERT(i < masters_.size(), "master index out of range on " + full_name());
  return *masters_[i];
}

void CrossbarCam::attach_slave(ocp::ocp_tl_slave_if& slave, AddressRange range,
                               const std::string& label) {
  map_.add(range, label);
  slaves_.push_back(&slave);
  slave_fast_.push_back(slave.fast_capable());
  lanes_.push_back(
      std::make_unique<Mutex>(sim(), full_name() + ".lane" + label));
  lane_stats_.push_back(std::make_unique<LaneStats>());
  if (split_.active()) {
    lane_q_.push_back(std::make_unique<TxnQueue>());
    lane_avail_.push_back(
        std::make_unique<Event>(sim(), full_name() + ".lane" + label + ".avail"));
    const std::size_t lane = lane_q_.size() - 1;
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
  // (integer increments commute) and survives the fold untouched.
  trace::Accumulator latency, service;
  std::uint64_t txns = 0, bytes = 0;
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
  for (std::size_t m = 0; m < masters_.size(); ++m) {
    trace::Accumulator per_master;
    for (const auto& ls : lane_stats_) {
      if (m < ls->per_master.size()) per_master.merge(ls->per_master[m]);
    }
    stats_.acc("master_" + masters_[m]->label + "_latency_ns") = per_master;
  }
  return stats_;
}

void CrossbarCam::set_txn_logger(trace::TxnLogger* log) {
  log_.bind(log, full_name());
  for (auto& mp : masters_) {
    mp->log_id = log_.intern(full_name() + "." + mp->label);
  }
}

void CrossbarCam::MasterPort::transport(Txn& txn) {
  CrossbarCam& x = *xbar;
  audit::on_access(x.sim(), this, audit::Mode::Write, "cam.master", label);
  if (!x.split_.active()) {
    x.route(index, txn);
    return;
  }
  // Split mode: a blocking transport is post + wait. Shelve the outer
  // waiter/bookkeeping like CamBase does, so bridges can forward the
  // same descriptor into a split crossbar.
  const std::uint32_t outer_master = txn.master_id;
  Txn::PhaseShelf shelf(txn);
  CompletionEvent::NestedScope nest(txn.done);
  x.post(index, txn);
  txn.done.wait(x.sim());
  txn.master_id = outer_master;
}

void CrossbarCam::post(std::size_t master, Txn& txn) {
  STLM_ASSERT(master < masters_.size(),
              "master index out of range on " + full_name());
  audit::on_access(sim(), masters_[master].get(), audit::Mode::Write,
                   "cam.master", masters_[master]->label);
  if (!split_.active()) {
    // CamIf::post contract: without split support the call may run the
    // transaction to completion before returning — the initiator's
    // later done.wait() then returns immediately.
    route(master, txn);
    txn.done.complete(sim());
    return;
  }
  const std::size_t bytes = txn.payload_bytes();
  const auto slave = map_.decode(txn.addr, bytes ? bytes : 1);
  txn.enqueued = sim().now();
  txn.reset_phases();
  txn.status = Txn::Status::Pending;
  if (!slave) {
    stats_.count("decode_errors");
    txn.respond_error();
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
    // Winning the lane is the crossbar's grant; route setup and data
    // move in one occupancy wait, so the data stamp fuses with it.
    txn->t_grant = sim().now();
    txn->t_data = txn->t_grant;
    const std::size_t bytes = txn->payload_bytes();
    const std::uint64_t beats = beats_for(bytes, width_);
    const Time occupancy = cycle_ * (1 + beats);  // route setup + data
    serve(lane, *txn, occupancy);
    const auto master = static_cast<std::size_t>(txn->master_id);
    finish(master, lane, *txn, txn->enqueued);
    --inflight_[master];
    slot_free_.notify_delta();
    txn->done.complete(sim());
  }
}

void CrossbarCam::route(std::size_t master, Txn& txn) {
  const Time start = sim().now();
  const std::size_t bytes = txn.payload_bytes();
  const auto slave = map_.decode(txn.addr, bytes ? bytes : 1);
  if (!slave) {
    stats_.count("decode_errors");
    txn.respond_error();
    return;
  }
  // Shelve any outer layer's phase stamps (a bridge may forward the same
  // descriptor through here mid-transaction).
  Txn::PhaseShelf shelf(txn);
  LockGuard lane(*lanes_[*slave]);
  txn.t_grant = sim().now();  // lane acquired = granted
  txn.t_data = txn.t_grant;   // route setup + data fused in one wait
  const std::uint64_t beats = beats_for(bytes, width_);
  const Time occupancy = cycle_ * (1 + beats);  // route setup + data
  serve(*slave, txn, occupancy);
  finish(master, *slave, txn, start);
}

void CrossbarCam::serve(std::size_t s, Txn& txn, Time occ) {
  wait(occ);
  busy_time_ += occ;
  // Injected faults replace the target delivery: a latency spike is
  // charged on the lane (before the verdict, like a slow decode), an
  // error answers without touching the slave. Draw order per lane is the
  // lane's deterministic service order, so same-seed runs inject the
  // same faults at the same instants.
  if (injector_ != nullptr) {
    const auto f = injector_->on_access(s);
    if (f.spike_cycles != 0) wait(cycle_ * f.spike_cycles);
    if (f.error) {
      txn.respond_error();
      if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
        ts->instant(full_name(), "fault", sim().now());
      }
      return;
    }
  }
  if (fast_targets_ && slave_fast_[s]) {
    const Time lat = slaves_[s]->fast_handle(txn);
    if (!lat.is_zero()) wait(lat);
    return;
  }
  slaves_[s]->handle(txn);
}

// Statistics/logging shared by the atomic route and the split lanes.
// Completions run concurrently across lanes, so everything here lands in
// the lane's own shard (see LaneStats); within one lane, updates are
// totally ordered — the lane mutex (atomic) or the single lane engine
// (split) — which is exactly what the audit key asserts.
void CrossbarCam::finish(std::size_t master, std::size_t lane, Txn& txn,
                         Time start) {
  audit::on_access(sim(), lane_stats_[lane].get(), audit::Mode::Write,
                   "cam.stats", Module::name());
  txn.t_complete = sim().now();
  // Completion point: an Ok answer that arrived after its armed watchdog
  // deadline is a Timeout (same promotion rule as CamBase::complete_txn).
  if (txn.deadline_missed && txn.status == Txn::Status::Ok) {
    txn.status = Txn::Status::Timeout;
  }
  const std::size_t bytes = txn.payload_bytes();
  LaneStats& ls = *lane_stats_[lane];
  ++ls.transactions;
  ls.bytes += bytes;
  const double latency_ns = (txn.t_complete - start).to_ns();
  ls.latency.add(latency_ns);
  ls.service.add((txn.t_complete - txn.t_grant).to_ns());
  if (ls.per_master.size() <= master) ls.per_master.resize(masters_.size());
  ls.per_master[master].add(latency_ns);
  const auto kind = txn.op == Txn::Op::Read ? trace::TxnKind::Read
                                            : trace::TxnKind::Write;
  const trace::TxnStatus row_status = txn_row_status(txn);
  // One row per transaction, tagged with the issuing master (see
  // CamBase::complete_txn).
  if (log_) {
    log_.record(kind, txn.id, bytes, start, sim().now(), txn.t_grant,
                txn.t_data, row_status, txn.retries, masters_[master]->log_id);
  }
  // Timeline spans: `start` (the outer arrival time) is the issue stamp —
  // hierarchical routes re-stamp txn.enqueued per hop, but the span
  // should cover the whole crossbar round trip.
  if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
    ts->txn_phases(full_name(), txn, start);
  }
}

}  // namespace stlm::cam
