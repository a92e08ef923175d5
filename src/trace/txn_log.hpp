#pragma once
// Transaction logger: every communication layer (SHIP channels, OCP
// channels, CAMs, the HW/SW interface) can record begin/end of
// transactions here. The log powers the per-architecture tables produced
// by the exploration engine and the CSV dumps used in EXPERIMENTS.md.
//
// Hot-path design: channels intern their name once (intern()) and then
// record fixed-width rows only — a record carries the interned channel
// id and the pooled transaction's id instead of copying strings per
// transaction.

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/thread_spares.hpp"
#include "kernel/time.hpp"
#include "trace/stats.hpp"

namespace stlm::trace {

enum class TxnKind : std::uint8_t {
  Send,      // SHIP one-way
  Request,   // SHIP round-trip, request half
  Reply,     // SHIP round-trip, reply half
  Read,      // OCP/bus read
  Write,     // OCP/bus write
};

const char* txn_kind_name(TxnKind k);
// Inverse of txn_kind_name. Returns false if `name` is no known kind.
bool txn_kind_from_name(const std::string& name, TxnKind& out);

// Final transaction outcome (schema v3). Mirrors the completed half of
// stlm::Txn::Status — a logged row is by definition no longer Pending.
enum class TxnStatus : std::uint8_t {
  Ok,
  Error,    // target (or injector) answered with an error response
  Timeout,  // completed, but after its armed watchdog deadline
  Aborted,  // initiator's retry policy exhausted its budget and gave up
};

const char* txn_status_name(TxnStatus s);
// Inverse of txn_status_name. Returns false if `name` is no known status.
bool txn_status_from_name(const std::string& name, TxnStatus& out);

// TxnRecord::master on rows of layers without bus masters.
inline constexpr std::uint32_t kNoMaster = 0xFFFFFFFFu;

struct TxnRecord {
  std::uint32_t channel;  // interned channel id (see TxnLogger::intern)
  // Issuing bus master (schema v4): the interned id of the master's
  // "<bus>.<label>" name, so per-master views are a group-by on this
  // field. kNoMaster on layers without masters.
  std::uint32_t master = kNoMaster;
  // stlm::Txn::id of the transaction (0 = n/a). Ids count from 1 in each
  // simulator, so a cell's column does not depend on other cells.
  std::uint64_t txn;
  std::uint64_t bytes;
  Time start;             // issue: the initiator handed the txn to the layer
  Time end;               // completion visible to the initiator
  // Phase timestamps (schema v2). Layers without distinguishable phases
  // (SHIP channels, point-to-point OCP TL) record grant == data == start,
  // which keeps their queueing delay at zero by construction. Split bus
  // engines diverge them: grant is when arbitration was won, data is when
  // the response claimed the data channel — on an OoO bus the order of
  // `end` across records no longer follows the order of `grant`.
  Time grant;
  Time data;
  TxnKind kind;
  // Failure semantics (schema v3): the row's final outcome and how many
  // re-issues preceded this attempt (0 = first issue). Layers without
  // failure semantics record Ok/0 by construction.
  TxnStatus status = TxnStatus::Ok;
  std::uint32_t retries = 0;

  double latency_ns() const { return (end - start).to_ns(); }
  // Queueing delay: issue -> grant (arbitration / outstanding-cap wait).
  double queue_ns() const { return (grant - start).to_ns(); }
  // Service span: grant -> completion (bus occupancy + target service).
  double service_ns() const { return (end - grant).to_ns(); }
};
// kind and status share the tail with retries so the row packs into one
// cache line; logs hold one record per transaction.
static_assert(sizeof(TxnRecord) == 64, "TxnRecord must stay 64 bytes");

class TxnLogger {
public:
  TxnLogger() = default;
  // Hands the row buffer to the calling thread's spare slot (see
  // SpareRows below).
  ~TxnLogger();
  TxnLogger(const TxnLogger&) = default;
  TxnLogger& operator=(const TxnLogger&) = default;
  TxnLogger(TxnLogger&&) noexcept = default;
  TxnLogger& operator=(TxnLogger&&) noexcept = default;

  // Register (or look up) a channel name; the returned id is stable for
  // the logger's lifetime. Channels call this once at wiring time.
  std::uint32_t intern(const std::string& channel);
  const std::string& channel_name(std::uint32_t id) const;
  // Number of interned channels; valid ids are [0, channel_count()).
  std::uint32_t channel_count() const {
    return static_cast<std::uint32_t>(channels_.size());
  }

  // Hot path: fixed-width row, no string traffic. The phase-less
  // overload records grant == data == start (no distinguishable phases
  // on that layer); the phase-accurate overload carries the grant and
  // data-phase timestamps stamped by the CAM engines, and the bus's
  // interned id of the issuing master (kNoMaster without one).
  void record(std::uint32_t channel_id, TxnKind kind, std::uint64_t txn_id,
              std::uint64_t bytes, Time start, Time end);
  void record(std::uint32_t channel_id, TxnKind kind, std::uint64_t txn_id,
              std::uint64_t bytes, Time start, Time end, Time grant,
              Time data, TxnStatus status = TxnStatus::Ok,
              std::uint32_t retries = 0, std::uint32_t master = kNoMaster);
  // Convenience overload for edge/test code; interns per call.
  void record(const std::string& channel, TxnKind kind, std::uint64_t bytes,
              Time start, Time end);
  // Phase-accurate convenience overload (interns per call).
  void record(const std::string& channel, TxnKind kind, std::uint64_t bytes,
              Time start, Time end, Time grant, Time data);

  const std::vector<TxnRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  // CSV schema v4 (one header line, then one line per record):
  //
  //   channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,
  //   status,retries,master
  //
  // Timestamps are integer femtoseconds, so dump_csv -> load_csv
  // round-trips records bit-identically including the phase columns;
  // latency_ns is a derived human-readable column that load_csv validates
  // syntactically but does not store. `status` is a txn_status_name
  // (ok/error/timeout/aborted), `retries` the attempt's re-issue count,
  // `master` the issuing master's channel name (empty for kNoMaster).
  // Names containing commas, quotes, or newlines are RFC4180-quoted.
  //
  // The header line doubles as the format version: load_csv also accepts
  // the v3 header (without master, defaulted to kNoMaster), the v2 header
  // (additionally without status/retries, defaulted to ok/0) and the v1
  // header (channel,kind,bytes,start_fs,end_fs,latency_ns,txn; phase
  // columns defaulted to grant = data = start), so traces captured before
  // any schema extension stay loadable. Pre-v4 bus traces carry each bus
  // row a second time under its "<bus>.<master>" channel
  // (expl::is_master_channel recognises those rows).
  void dump_csv(std::ostream& os) const;

  // Replace this logger's records (and channel table) with the contents
  // of a dump_csv stream (any schema version). Validates the header
  // and every row (including phase ordering start <= grant <= data <=
  // end and the 32-bit range of retries); throws SimulationError naming
  // the offending line and field on malformed input, leaving the logger
  // empty.
  void load_csv(std::istream& is);

private:
  // Row buffers outlive their logger on a per-OS-thread spare slot: the
  // next logger on the thread takes it at its first record, so a sweep
  // grows (and page-faults) the row vector once per thread, not once per
  // cell. One slot, keeping the largest buffer released so far.
  using SpareRows = stlm::detail::ThreadSpares<std::vector<TxnRecord>>;
  void take_spare_rows();

  void load_csv_impl(std::istream& is);

  std::vector<std::string> channels_;
  std::unordered_map<std::string, std::uint32_t> channel_index_;
  std::vector<TxnRecord> records_;
};

// A channel's bound view of a TxnLogger: pairs the logger pointer with
// the channel's interned id so every logging layer carries one member and
// one wiring call instead of repeating the intern boilerplate.
class LogHandle {
public:
  void bind(TxnLogger* log, const std::string& channel) {
    log_ = log;
    if (log_) channel_ = log_->intern(channel);
  }
  explicit operator bool() const { return log_ != nullptr; }
  // Intern another name on the bound logger (kNoMaster when unbound) —
  // a bus master's "<bus>.<label>" for TxnRecord::master.
  std::uint32_t intern(const std::string& name) const {
    return log_ ? log_->intern(name) : kNoMaster;
  }
  void record(TxnKind kind, std::uint64_t txn_id, std::uint64_t bytes,
              Time start, Time end) const {
    log_->record(channel_, kind, txn_id, bytes, start, end);
  }
  void record(TxnKind kind, std::uint64_t txn_id, std::uint64_t bytes,
              Time start, Time end, Time grant, Time data,
              TxnStatus status = TxnStatus::Ok, std::uint32_t retries = 0,
              std::uint32_t master = kNoMaster) const {
    log_->record(channel_, kind, txn_id, bytes, start, end, grant, data,
                 status, retries, master);
  }

private:
  TxnLogger* log_ = nullptr;
  std::uint32_t channel_ = 0;
};

}  // namespace stlm::trace
