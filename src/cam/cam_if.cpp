// stlm-lint: hot-path — finish() runs once per bus transaction; the
// completion point must stay heap-allocation-free (see tools/stlm_lint.py).
#include "cam/cam_if.hpp"

#include "fault/fault.hpp"
#include "obs/trace_session.hpp"

namespace stlm::cam {

namespace {

// Map a completed descriptor's kernel-side status onto the trace
// schema's outcome column. A logged row is by definition settled, so a
// still-Pending status (a CAM forgot to stamp) degrades to Ok rather
// than inventing a fifth CSV value.
trace::TxnStatus txn_row_status(const Txn& txn) {
  switch (txn.status) {
    case Txn::Status::Error:
      return trace::TxnStatus::Error;
    case Txn::Status::Timeout:
      return trace::TxnStatus::Timeout;
    case Txn::Status::Aborted:
      return trace::TxnStatus::Aborted;
    case Txn::Status::Pending:
    case Txn::Status::Ok:
      break;
  }
  return trace::TxnStatus::Ok;
}

}  // namespace

CamIf::CamIf(Simulator& sim, std::string name, Time cycle,
             std::size_t width_bytes)
    : Module(sim, std::move(name)),
      cycle_(cycle),
      width_(width_bytes),
      cnt_transactions_(&stats_.counter_slot("transactions")),
      cnt_reads_(&stats_.counter_slot("reads")),
      cnt_writes_(&stats_.counter_slot("writes")),
      cnt_bytes_(&stats_.counter_slot("bytes")),
      cnt_decode_errors_(&stats_.counter_slot("decode_errors")) {
  STLM_ASSERT(!cycle_.is_zero(), "CAM cycle must be positive: " + full_name());
}

std::size_t CamIf::add_master(const std::string& name) {
  // stlm-lint: allow(hot-path-alloc): master registration is elaboration,
  // once per access point
  auto mp = std::make_unique<MasterPort>();
  mp->cam = this;
  mp->index = masters_.size();
  mp->label = name;
  // The master's "<bus>.<master>" name tags its rows (the logger may be
  // set before or after masters are added; set_txn_logger re-interns).
  mp->log_id = log_.intern(full_name() + "." + name);
  masters_.push_back(std::move(mp));
  on_master(masters_.size() - 1);
  return masters_.size() - 1;
}

ocp::ocp_tl_master_if& CamIf::master_port(std::size_t i) {
  STLM_ASSERT(i < masters_.size(), "master index out of range on " + full_name());
  return *masters_[i];
}

const std::string& CamIf::master_label(std::size_t i) const {
  STLM_ASSERT(i < masters_.size(), "master index out of range on " + full_name());
  return masters_[i]->label;
}

void CamIf::attach_slave(ocp::ocp_tl_slave_if& slave, AddressRange range,
                         const std::string& label) {
  map_.add(range, label);
  slaves_.push_back(&slave);
  on_slave(slaves_.size() - 1, label);
}

void CamIf::post(std::size_t master, Txn& txn) {
  STLM_ASSERT(master < masters_.size(),
              "master index out of range on " + full_name());
  arm(*masters_[master], txn);
  submit(txn);
}

void CamIf::MasterPort::transport(Txn& txn) {
  cam->arm(*this, txn);
  cam->transport(txn);
}

void CamIf::arm(const MasterPort& mp, Txn& txn) {
  txn.master_id = static_cast<std::uint32_t>(mp.index);
  txn.enqueued = sim().now();
  txn.reset_phases();
  txn.status = Txn::Status::Pending;
  txn.done.reset();
}

void CamIf::set_txn_logger(trace::TxnLogger* log) {
  log_.bind(log, full_name());
  for (auto& mp : masters_) {
    mp->log_id = log_.intern(full_name() + "." + mp->label);
  }
}

void CamIf::reset() {
  stats_.reset();
  busy_time_ = Time::zero();
}

double CamIf::utilization() const {
  // Guard: before any simulated time has elapsed there is nothing to
  // normalize by — report an idle bus instead of dividing by zero.
  const Time elapsed = sim().now();
  if (elapsed.is_zero()) return 0.0;
  return busy_time_.to_seconds() / elapsed.to_seconds();
}

void CamIf::deliver(std::size_t s, Txn& txn) {
  // Draw order per slave is the bus's deterministic service order, so
  // same-seed runs inject the same faults at the same instants.
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
  if (const Time t = slaves_[s]->handle(txn); !t.is_zero()) wait(t);
}

void CamIf::finish(Txn& txn) {
  txn.t_complete = sim().now();
  if (txn.deadline_missed && txn.status == Txn::Status::Ok) {
    txn.status = Txn::Status::Timeout;
  }
  const bool read = txn.op == Txn::Op::Read;
  ++*cnt_transactions_;
  ++*(read ? cnt_reads_ : cnt_writes_);
  *cnt_bytes_ += txn.payload_bytes();
  // One row per transaction, tagged with the issuing master so
  // per-master distributions are a group-by on TxnRecord::master.
  if (log_) {
    const trace::TxnKind kind =
        read ? trace::TxnKind::Read : trace::TxnKind::Write;
    log_.record(kind, txn.id, txn.payload_bytes(), txn.enqueued,
                txn.t_complete, txn.t_grant, txn.t_data, txn_row_status(txn),
                txn.retries, masters_[txn.master_id]->log_id);
  }
  // Every path of every bus completes here, so fast-path completions
  // show up on the timeline by construction.
  if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
    ts->txn_phases(full_name(), txn);
  }
}

}  // namespace stlm::cam
