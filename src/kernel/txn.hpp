#pragma once
// stlm-lint: hot-path — every bus access, mailbox poll and SHIP message
// begins a descriptor here (see tools/stlm_lint.py).
//
// Pooled transaction descriptor — the single currency every communication
// layer moves (OCP TL channels, CAMs, SHIP channels, the HW/SW interface).
//
// A Txn carries one transaction's request half (operation, address, write
// or message payload) and response half (status, read/reply payload) in
// buffers that keep their capacity across reuse, plus a CompletionEvent
// the initiator blocks on. Unlike Event, a CompletionEvent takes no slot
// in the Simulator's generation table and allocates nothing, so the
// steady-state transaction hot path performs zero per-transaction heap
// allocation and no table growth.
//
// Lifetime models:
//   * blocking round-trips (CAM/OCP masters): the initiator owns the Txn
//     (on its stack or as a member) and reuses it across transactions;
//   * queued messages (SHIP channels, mailbox queues): acquire from the
//     Simulator's TxnPool, link through the intrusive `next` pointer, and
//     release after consumption — the free list recycles descriptors and
//     their payload capacity.
//
// A descriptor is on one bus at a time. A bus's access point
// (cam::CamIf) arms it for the bus — master index, issue stamp, phase
// stamps, status, completion token — so re-issuing a completed
// descriptor needs no begin_*() and an initiator reads its own stamps
// after completion. A layer that crosses into another bus while its
// initiator waits (a bus bridge) forwards a pooled descriptor of its own.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/handle.hpp"
#include "kernel/time.hpp"

namespace stlm {

class Simulator;
class Process;
class Txn;
class TxnPool;
class TxnQueue;

namespace detail {
// Transaction ids (Txn::id). Each simulator numbers the transactions
// begun while it is current on a thread from 1 up, in its own counter.
// `t_txn_ids` points at the counter of the simulator that is current on
// this thread (kernel/simulator.cpp keeps it in step with the simulator
// stack) and is null when none is; a constant-initialized pointer, so
// reading it costs no TLS wrapper call. `g_txn_ids` holds the ids no
// live simulator holds: those begun with no simulator current, plus the
// final count of each destroyed simulator. With no run in flight it is
// the process's exact count of begun transactions.
inline constinit thread_local std::uint64_t* t_txn_ids = nullptr;
inline std::atomic<std::uint64_t> g_txn_ids{0};
}  // namespace detail

/// Lightweight completion token: one waiter, no simulator registration,
/// no allocation. Safe to embed in pooled or stack-allocated
/// descriptors. Completion wakes the waiter immediately (same
/// evaluation phase), exactly like Event::notify() did for the old
/// per-transaction done events.
class CompletionEvent {
public:
  /// Mark complete and wake the waiter (if any). Waking is immediate:
  /// the waiter becomes runnable within the current evaluation phase.
  void complete(Simulator& sim);
  /// Block the calling thread process until complete() is called.
  /// Returns immediately if the token already completed — so an
  /// initiator may post(), do other work, and wait late.
  void wait(Simulator& sim);
  /// True once complete() ran (cleared by reset()/begin_*()).
  bool completed() const { return completed_; }
  /// Re-arm the token for the next transaction.
  void reset() {
    completed_ = false;
    waiter_ = {};
  }

private:
  // The waiting process's handle (kernel/handle.hpp); it lapses if the
  // waiter resumes for another reason, terminates or dies.
  detail::Handle<Process> waiter_;
  bool completed_ = false;
};

/// The pooled transaction descriptor — the single currency every
/// communication layer moves by reference (OCP TL channels, CAM grant
/// engines, SHIP channels, the HW/SW interface). Carries one
/// transaction's request half, response half, and the CompletionEvent
/// the initiator blocks on. Buffers keep their capacity across reuse,
/// so steady-state traffic allocates nothing.
class Txn {
public:
  /// Transaction kind: addressed read/write, or an opaque message.
  enum class Op : std::uint8_t { Read, Write, Msg };
  /// Response status; Pending until a target responds. Targets only ever
  /// stamp Ok or Error; the two failure-semantics states are derived:
  ///   * Timeout — the access completed, but after its armed watchdog
  ///     deadline (promoted from Ok at the CAM completion point, the one
  ///     place the atomic/split engines and the fast path share);
  ///   * Aborted — the initiator's RetryPolicy exhausted its retry budget
  ///     on Error responses and gave up (stamped initiator-side).
  enum class Status : std::uint8_t { Pending, Ok, Error, Timeout, Aborted };

  // 32-bit data path: one beat per 4 payload bytes (OCP basic profile).
  static constexpr std::size_t kWordBytes = 4;
  // SHIP round-trip request marker (flags bit).
  static constexpr std::uint32_t kFlagRequest = 1u << 0;

  // --- request half ------------------------------------------------------
  Op op = Op::Read;
  std::uint32_t flags = 0;
  std::uint32_t master_id = 0;             // bus access point's index
  std::uint64_t addr = 0;
  std::uint32_t read_bytes = 0;            // requested bytes (reads only)
  std::vector<std::uint8_t> data;          // write / message payload

  // --- response half -----------------------------------------------------
  Status status = Status::Pending;
  std::vector<std::uint8_t> resp_data;     // read / reply payload

  // --- bookkeeping -------------------------------------------------------
  Time enqueued = Time::zero();            // issue time at the access point
  std::uint32_t cursor = 0;                // consumer progress (chunked IO)
  std::uint64_t id = 0;                    // per begin_*(); for tracing
  std::uint32_t retries = 0;               // re-issues so far (RetryPolicy)
  // Set by a RetryPolicy watchdog while the txn is outstanding past its
  // deadline; the CAM completion point promotes Ok -> Timeout from it.
  bool deadline_missed = false;
  CompletionEvent done;

  // --- phase timestamps (pure bookkeeping; never consulted for timing) ----
  //
  // Stamped by the CAM engines as the transaction moves through its bus
  // phases. `enqueued` is the issue time; the split engines diverge grant
  // from completion (OoO), which is what the phase-accurate TxnLogger rows
  // and the queueing/service latency split are derived from:
  //
  //   queueing delay = t_grant - enqueued      (arbitration wait)
  //   service        = t_complete - t_grant    (bus occupancy + target)
  //
  // The atomic engines fuse address and data phases into one occupancy
  // wait, so they stamp t_data == t_grant; the split engines stamp t_data
  // when the response actually wins the data channel.
  Time t_grant = Time::zero();     // won arbitration / popped by a lane
  Time t_data = Time::zero();      // data phase began on the bus
  Time t_complete = Time::zero();  // initiator-visible completion

  /// Reset the phase stamps (the bus access point does this per issue).
  void reset_phases() {
    t_grant = Time::zero();
    t_data = Time::zero();
    t_complete = Time::zero();
  }

  Txn() = default;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // --- initiator-side setup (resets response state, keeps capacity) ------

  /// Arm the descriptor as a read of `bytes` from address `a`. Resets
  /// the response half and the CompletionEvent; keeps buffer capacity.
  void begin_read(std::uint64_t a, std::uint32_t bytes) {
    begin(Op::Read, a);
    read_bytes = bytes;
  }
  /// Arm the descriptor as a write of `n` bytes at `p` to address `a`.
  void begin_write(std::uint64_t a, const void* p, std::size_t n) {
    begin(Op::Write, a);
    const auto* b = static_cast<const std::uint8_t*>(p);
    data.assign(b, b + n);
  }
  /// Arm the descriptor as an opaque message; the payload is written by
  /// the caller into `data` afterwards (typically via serialization
  /// straight into the buffer).
  void begin_msg(std::uint32_t f = 0) {
    begin(Op::Msg, 0);
    flags = f;
  }

  // --- observers ---------------------------------------------------------

  /// Bytes this transaction moves: the requested size for reads, the
  /// write/message payload size otherwise.
  std::size_t payload_bytes() const {
    return op == Op::Read ? read_bytes : data.size();
  }
  std::uint32_t beats() const {
    const std::size_t b = payload_bytes();
    return b == 0 ? 1
                  : static_cast<std::uint32_t>((b + kWordBytes - 1) /
                                               kWordBytes);
  }
  bool ok() const { return status == Status::Ok; }
  /// True when the response payload is usable: Ok, or Timeout — the
  /// access completed correctly but after its watchdog deadline.
  /// Initiators that only care about the data (MMIO helpers, mailbox
  /// wrappers) test this; SLO accounting tests ok().
  bool data_valid() const {
    return status == Status::Ok || status == Status::Timeout;
  }
  bool is_request() const { return (flags & kFlagRequest) != 0; }

  /// Prepare a completed descriptor for a retry attempt: the request half
  /// (op/addr/payload) survives, the response payload and watchdog flag
  /// reset, and the retry counter advances (the bus access point re-arms
  /// status, stamps and completion token on re-issue). Unlike begin_*()
  /// the id is kept — trace rows of every attempt correlate to one
  /// logical transaction.
  void rearm_retry() {
    resp_data.clear();
    deadline_missed = false;
    ++retries;
  }

  // --- target-side responses (in place, capacity-preserving) -------------

  /// Acknowledge without payload (writes, control accesses).
  void respond_ok() {
    status = Status::Ok;
    resp_data.clear();
  }
  /// Fail the transaction (decode error, protocol violation).
  void respond_error() {
    status = Status::Error;
    resp_data.clear();
  }
  /// Respond with `n` bytes of read/reply payload copied from `p`.
  void respond_data(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    resp_data.assign(b, b + n);
    status = Status::Ok;
  }
  // For targets that fill the payload directly (sized, zeroed on demand).
  std::vector<std::uint8_t>& respond_buffer(std::size_t n) {
    resp_data.assign(n, 0);
    status = Status::Ok;
    return resp_data;
  }

private:
  friend class TxnPool;
  friend class TxnQueue;

  void begin(Op o, std::uint64_t a) {
    reset_logical();
    op = o;
    addr = a;
    id = next_id();
  }

  // The logical state a fresh transaction starts from (begin_*() and
  // TxnPool::release); both payload buffers keep their capacity.
  void reset_logical() {
    flags = 0;
    read_bytes = 0;
    cursor = 0;
    data.clear();
    resp_data.clear();
    status = Status::Pending;
    retries = 0;
    deadline_missed = false;
    done.reset();
    reset_phases();
  }

  // Ids give trace rows a correlation key (descriptors are recycled,
  // logical transactions are not). They are dense from 1 within the
  // simulator current on the calling thread, so a cell's ids do not
  // depend on which cells ran before it or beside it, and a running
  // simulator touches no process-wide state here. Only logs and traces
  // read them.
  static std::uint64_t next_id() {
    if (std::uint64_t* ids = detail::t_txn_ids) return ++*ids;
    // stlm-lint: allow(hot-path-atomic): no simulator is current, so
    // this is not a simulated transaction's path
    return detail::g_txn_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Txn* next_ = nullptr;  // intrusive link (pending queue / free list)
};

// Intrusive FIFO of pending transactions. No allocation — links through
// Txn::next_. A Txn may sit in at most one queue at a time.
class TxnQueue {
public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return count_; }

  void push_back(Txn& t) {
    t.next_ = nullptr;
    if (tail_) {
      tail_->next_ = &t;
    } else {
      head_ = &t;
    }
    tail_ = &t;
    ++count_;
  }

  Txn* pop_front() {
    Txn* t = head_;
    if (!t) return nullptr;
    head_ = t->next_;
    if (!head_) tail_ = nullptr;
    t->next_ = nullptr;
    --count_;
    return t;
  }

  Txn* front() const { return head_; }

  // Forget the queued descriptors without touching them (their owner is
  // being reset; see TxnPool::reset).
  void clear() {
    head_ = nullptr;
    tail_ = nullptr;
    count_ = 0;
  }

private:
  Txn* head_ = nullptr;
  Txn* tail_ = nullptr;
  std::size_t count_ = 0;
};

/// Free-list pool of transaction descriptors. Released descriptors keep
/// their payload capacity, so a warmed-up pool serves acquire/release
/// cycles with no heap traffic. `created()` is the number of
/// descriptors ever allocated — a steady-state phase must not move it
/// (asserted by the pooled-Txn stress test).
class TxnPool {
public:
  /// Hand out a descriptor: recycled from the free list when possible,
  /// freshly allocated (and owned by the pool) otherwise.
  Txn& acquire() {
    ++acquired_;
    if (Txn* t = free_.pop_front()) return *t;
    // stlm-lint: allow(hot-path-alloc): free-list miss only; a warmed-up
    // pool recycles (the pooled-Txn stress test pins created())
    auto owned = std::make_unique<Txn>();
    Txn& t = *owned;
    storage_.push_back(std::move(owned));
    return t;
  }

  /// Return a descriptor to the free list. The caller must be done with
  /// it: the pool may hand it to anyone on the next acquire().
  void release(Txn& t) {
    ++released_;
    t.reset_logical();
    free_.push_back(t);
  }

  /// Take every descriptor back, wherever it was left (a queue, a parked
  /// process's frame), and restart the counters: the pool of a system
  /// being reset (core::MappedSystem::reset), whose holders have all
  /// forgotten theirs. Allocates nothing.
  void reset() {
    free_.clear();
    for (const auto& t : storage_) {
      t->reset_logical();
      free_.push_back(*t);
    }
    acquired_ = 0;
    released_ = 0;
  }

  std::uint64_t created() const { return storage_.size(); }
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t released() const { return released_; }
  std::size_t outstanding() const {
    return static_cast<std::size_t>(acquired_ - released_);
  }

private:
  TxnQueue free_;
  std::vector<std::unique_ptr<Txn>> storage_;
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
};

// RAII pool handle for scoped acquisitions (compat shims, MMIO helpers).
class PooledTxn {
public:
  explicit PooledTxn(TxnPool& pool) : pool_(&pool), t_(&pool.acquire()) {}
  ~PooledTxn() {
    if (t_) pool_->release(*t_);
  }
  PooledTxn(PooledTxn&& o) noexcept : pool_(o.pool_), t_(o.t_) {
    o.t_ = nullptr;
  }
  PooledTxn& operator=(PooledTxn&&) = delete;
  PooledTxn(const PooledTxn&) = delete;
  PooledTxn& operator=(const PooledTxn&) = delete;

  Txn& operator*() const { return *t_; }
  Txn* operator->() const { return t_; }
  Txn& get() const { return *t_; }

private:
  TxnPool* pool_;
  Txn* t_;
};

}  // namespace stlm
