// stlm-lint: hot-path — the grant engines and the fast path run once
// per bus transaction; steady-state simulation must stay
// heap-allocation-free (see tools/stlm_lint.py).
#include "cam/cam_base.hpp"

#include "fault/fault.hpp"
#include "obs/trace_session.hpp"

namespace stlm::cam {

CamBase::CamBase(Simulator& sim, std::string name, Time cycle,
                 std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes,
                 std::size_t default_width_bytes, SplitConfig split,
                 bool protocol_supports_split, bool fast_targets)
    : CamIf(sim, std::move(name), cycle,
            width_bytes ? width_bytes : default_width_bytes),
      split_active_(split.active() && protocol_supports_split),
      engine_(std::move(arbiter), split_active_ ? split.max_outstanding : 1),
      new_request_(sim, full_name() + ".new_request"),
      resp_avail_(sim, full_name() + ".resp_avail"),
      fast_targets_(fast_targets && !split_active_) {
  if (fast_targets_) {
    // Only materialize the stat slot when the knob is on, so the stats
    // table of a fast-off platform is unchanged.
    cnt_fast_hits_ = &stats_.counter_slot("fast_path_hits");
  }
  if (split_active_) {
    spawn_thread("addr_engine", [this] { addr_engine(); });
    spawn_thread("data_engine", [this] { data_engine(); });
  } else {
    spawn_thread("engine", [this] { atomic_engine(); });
  }
}

void CamBase::reset() {
  CamIf::reset();
  engine_.reset();
  service_q_.clear();
  resp_q_.clear();
  idle_workers_.clear();
  last_txn_end_ = Time::zero();
  engine_busy_ = false;
  fast_busy_until_ = Time::zero();
  fast_inflight_ = false;
}

std::uint64_t CamBase::split_addr_cycles(const Txn&) const {
  throw SimulationError("CAM " + full_name() +
                        " enabled split mode without split timing");
}

std::uint64_t CamBase::split_data_cycles(const Txn&) const {
  throw SimulationError("CAM " + full_name() +
                        " enabled split mode without split timing");
}

void CamBase::on_master(std::size_t i) {
  engine_.add_master();
  if (split_active_) {
    // One service worker per in-flight slot: every granted transaction
    // can be in target service concurrently, so a slow slave never
    // stalls the address or data pipelines of unrelated transactions.
    for (std::size_t w = 0; w < engine_.max_outstanding(); ++w) {
      const std::string worker =
          "svc_" + master_label(i) + "_" + std::to_string(w);
      const std::string wake = full_name() + "." + worker + ".wake";
      const std::size_t id = worker_wake_.size();
      // stlm-lint: allow(hot-path-alloc): worker creation is elaboration,
      // once per in-flight slot
      worker_wake_.push_back(std::make_unique<Event>(sim(), wake));
      spawn_thread(worker, [this, id] { service_worker(id); });
    }
    idle_workers_.reserve(worker_wake_.size());
  }
}

void CamBase::submit(Txn& txn) { enqueue(txn); }

void CamBase::transport(Txn& txn) {
  if (try_fast_transport(txn)) return;
  enqueue(txn);
  txn.done.wait(sim());
}

void CamBase::enqueue(Txn& txn) {
  // A fast-capable bus sent a transaction to the full engine path
  // (contention, non-fast target, or a posted access): mark the spot on
  // the timeline so fast-hit-rate regressions can be localized in
  // simulated time.
  if (fast_targets_) {
    if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
      ts->instant(full_name(), "fast_fallback", sim().now());
    }
  }
  engine_.enqueue(txn);
  new_request_.notify_delta();
}

// ---------------------------------------------------------- fast path ----
//
// Inline completion for provably uncontended accesses to fast-capable
// targets (see the class comment in cam_base.hpp). Everything observable
// — stamps, counters, log rows, arbiter state, busy accounting, timing —
// matches what the atomic engine would have produced for the same
// isolated transaction; the only thing missing is the engine wakeup and
// its coroutine switches.

bool CamBase::fast_eligible(const Txn& txn, std::size_t* slave_out) const {
  if (!fast_targets_) return false;
  // Fault injection voids the fast path wholesale: the injector draw
  // must happen at the engine's delivery point to keep the per-slave
  // streams in simulation order.
  if (injector() != nullptr) return false;
  if (fast_inflight_) return false;                // a fast transport is
  if (sim().now() < fast_busy_until_) return false;  // bus still occupied
  // Any queued or granted engine work means arbitration order matters —
  // take the engine. (Between an engine grant and its retire the txn is
  // in flight, which also covers the engine's occupancy wait.)
  if (engine_.any_pending() || engine_.any_inflight()) return false;
  const auto s = decode(txn);
  // Decode errors keep their engine-side timing/stats path.
  if (!s || !slave(*s).fast_capable()) return false;
  *slave_out = *s;
  return true;
}

std::uint64_t CamBase::fast_grant(Txn& txn) {
  // Zero grant wait: the engine would grant in the next delta at the
  // same instant.
  const bool back_to_back = engine_busy_ && last_txn_end_ == sim().now();
  txn.t_grant = sim().now();
  txn.t_data = txn.t_grant;
  engine_.note_fast_grant(txn.master_id, now_cycle());
  return txn_cycles(txn, back_to_back);
}

bool CamBase::try_fast_transport(Txn& txn) {
  std::size_t s = 0;
  if (!fast_eligible(txn, &s)) return false;
  const Time occupancy = cycle() * fast_grant(txn);
  ocp::ocp_tl_slave_if& target = slave(s);
  // Hold the bus: competing requests issued during the occupancy fall
  // back to the engine, whose gate stalls until fast_busy_until_.
  // fast_inflight_ closes the strict time check's boundary hole: a
  // competitor (or the engine) whose timed wake lands at exactly
  // fast_busy_until_ and runs before this process resumes must still
  // see the bus as taken.
  fast_inflight_ = true;
  fast_busy_until_ = sim().now() + occupancy;
  wait(occupancy);
  busy_time_ += occupancy;
  const Time latency = target.handle(txn);
  if (!latency.is_zero()) {
    // Target service time: the engine path waits it in deliver().
    fast_busy_until_ = sim().now() + latency;
    wait(latency);
  }
  last_txn_end_ = sim().now();
  engine_busy_ = true;
  fast_inflight_ = false;
  ++*cnt_fast_hits_;
  complete_txn(txn);
  // Competitors that fell back while we held the bus are grantable now;
  // the engine may be parked in its gate waiting for exactly this.
  if (engine_.any_pending()) new_request_.notify_delta();
  return true;
}

// ------------------------------------------------------ atomic engine ----
//
// The seed behaviour: one process owns the whole transaction — its timing
// must never change (bit-identical guard in tests/test_cam_split.cpp).

void CamBase::atomic_engine() {
  for (;;) {
    // Fast-path gate: a fast transaction holds the bus until
    // fast_busy_until_; stall behind it (re-checked, because its service
    // stage may extend it). Never taken with the fast knob off —
    // fast_busy_until_ and fast_inflight_ stay clear. At the exact
    // occupancy-end instant a fast transport may not have resumed yet;
    // its completion notifies new_request_ when work is pending, so
    // parking on the event cannot strand a grantable txn.
    if (fast_inflight_ || sim().now() < fast_busy_until_) {
      if (sim().now() < fast_busy_until_) {
        wait(fast_busy_until_ - sim().now());
      } else {
        wait(new_request_);
      }
      continue;
    }
    Txn* txn = engine_.grant(now_cycle());
    if (!txn) {
      engine_busy_ = false;
      wait(new_request_);
      continue;
    }

    stall_grant();

    const bool back_to_back = engine_busy_ && last_txn_end_ == sim().now();
    const Time occupancy = cycle() * txn_cycles(*txn, back_to_back);

    // The atomic engine charges arbitration+address+data+response as one
    // occupancy wait, so address and data phases are indistinguishable:
    // both stamps carry the grant instant.
    txn->t_grant = sim().now();
    txn->t_data = txn->t_grant;
    wait(occupancy);
    busy_time_ += occupancy;

    if (const auto slave = decode(*txn)) {
      deliver(*slave, *txn);
    } else {
      txn->respond_error();
      count_decode_error();
    }

    last_txn_end_ = sim().now();
    engine_busy_ = true;

    engine_.retire(*txn);
    complete_txn(*txn);

    // Yield one delta so just-completed masters can re-enqueue before the
    // next arbitration — otherwise a saturating high-priority master
    // could never actually exercise its priority.
    new_request_.notify_delta();
    wait(new_request_);
  }
}

// ------------------------------------------------------- split engine ----

void CamBase::addr_engine() {
  for (;;) {
    Txn* txn = engine_.grant(now_cycle());
    if (!txn) {
      // Idle, or every requesting master is at its outstanding cap; a
      // new request or a retiring data phase re-arms the loop.
      wait(new_request_);
      continue;
    }

    stall_grant();

    txn->t_grant = sim().now();
    const std::uint64_t ac = split_addr_cycles(*txn);
    if (ac) wait(cycle() * ac);

    // Address decode happens in the address phase. Errors skip target
    // service and go straight to the data engine for completion.
    if (!decode(*txn)) {
      txn->respond_error();
      count_decode_error();
      resp_q_.push_back(*txn);
      resp_avail_.notify_delta();
      continue;
    }
    service_q_.push_back(*txn);
    // Wake one parked worker. Workers are interchangeable, so which one
    // cannot change results; none parked means every worker is busy or
    // already woken, and the first to loop back drains the queue.
    if (!idle_workers_.empty()) {
      worker_wake_[idle_workers_.back()]->notify_delta();
      idle_workers_.pop_back();
    }
  }
}

void CamBase::service_worker(std::size_t worker) {
  for (;;) {
    // A woken worker may find the queue drained by a busy one that
    // looped back first; it then parks again.
    while (service_q_.empty()) {
      idle_workers_.push_back(worker);
      wait(*worker_wake_[worker]);
    }
    Txn* txn = service_q_.pop_front();
    // Re-derive the decode from the address phase (cheap, and it keeps
    // the descriptor free of CAM-internal routing state).
    const auto slave = decode(*txn);
    STLM_ASSERT(slave.has_value(), "split service lost its decode");
    deliver(*slave, *txn);
    resp_q_.push_back(*txn);
    resp_avail_.notify_delta();
  }
}

void CamBase::data_engine() {
  for (;;) {
    while (resp_q_.empty()) wait(resp_avail_);
    Txn* txn = resp_q_.pop_front();
    txn->t_data = sim().now();  // response won the data channel
    const std::uint64_t dc = split_data_cycles(*txn);
    const Time occupancy = cycle() * dc;
    if (dc) wait(occupancy);
    // Split-mode utilization counts data-channel occupancy, the resource
    // the pipeline is bound by; hidden address phases are free.
    busy_time_ += occupancy;

    engine_.retire(*txn);
    complete_txn(*txn);
    // The retirement freed an outstanding slot — the address engine may
    // have an eligible master again.
    new_request_.notify_delta();
  }
}

// Grant-stall burst: the arbiter withholds the granted request for a few
// cycles. Charged before the grant stamp, so the stall reads as queueing
// delay (arbitration wait), not bus service.
void CamBase::stall_grant() {
  if (injector() == nullptr) return;
  if (const std::uint64_t stall = injector()->on_grant()) {
    wait(cycle() * stall);
  }
}

// Completion shared by both engines and the fast path: the core's
// completion point, then waking the initiator.
void CamBase::complete_txn(Txn& txn) {
  finish(txn);
  txn.done.complete(sim());  // immediate: initiator resumes within this delta
}

}  // namespace stlm::cam
