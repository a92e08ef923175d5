#include "trace/txn_log.hpp"

#include <charconv>

#include "kernel/report.hpp"

namespace stlm::trace {

const char* txn_kind_name(TxnKind k) {
  switch (k) {
    case TxnKind::Send: return "send";
    case TxnKind::Request: return "request";
    case TxnKind::Reply: return "reply";
    case TxnKind::Read: return "read";
    case TxnKind::Write: return "write";
  }
  return "?";
}

bool txn_kind_from_name(const std::string& name, TxnKind& out) {
  for (TxnKind k : {TxnKind::Send, TxnKind::Request, TxnKind::Reply,
                    TxnKind::Read, TxnKind::Write}) {
    if (name == txn_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* txn_status_name(TxnStatus s) {
  switch (s) {
    case TxnStatus::Ok: return "ok";
    case TxnStatus::Error: return "error";
    case TxnStatus::Timeout: return "timeout";
    case TxnStatus::Aborted: return "aborted";
  }
  return "?";
}

bool txn_status_from_name(const std::string& name, TxnStatus& out) {
  for (TxnStatus s : {TxnStatus::Ok, TxnStatus::Error, TxnStatus::Timeout,
                      TxnStatus::Aborted}) {
    if (name == txn_status_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

TxnLogger::~TxnLogger() {
  records_.clear();
  SpareRows::give(std::move(records_));
}

void TxnLogger::take_spare_rows() {
  // First growth of a fresh logger: start from the thread's spare buffer
  // when there is one; push_back doubles as usual past its capacity.
  if (records_.capacity() == 0) SpareRows::take(records_);
}

std::uint32_t TxnLogger::intern(const std::string& channel) {
  if (const auto it = channel_index_.find(channel);
      it != channel_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(channel);
  channel_index_.emplace(channel, id);
  return id;
}

const std::string& TxnLogger::channel_name(std::uint32_t id) const {
  static const std::string unknown = "?";
  return id < channels_.size() ? channels_[id] : unknown;
}

void TxnLogger::record(std::uint32_t channel_id, TxnKind kind,
                       std::uint64_t txn_id, std::uint64_t bytes, Time start,
                       Time end) {
  // Phase-less layer: the row's grant/data stamps collapse onto issue.
  record(channel_id, kind, txn_id, bytes, start, end, start, start);
}

void TxnLogger::record(std::uint32_t channel_id, TxnKind kind,
                       std::uint64_t txn_id, std::uint64_t bytes, Time start,
                       Time end, Time grant, Time data, TxnStatus status,
                       std::uint32_t retries, std::uint32_t master) {
  if (records_.size() == records_.capacity()) [[unlikely]] take_spare_rows();
  records_.push_back(TxnRecord{channel_id, master, txn_id, bytes, start, end,
                               grant, data, kind, status, retries});
}

void TxnLogger::record(const std::string& channel, TxnKind kind,
                       std::uint64_t bytes, Time start, Time end) {
  record(intern(channel), kind, /*txn_id=*/0, bytes, start, end);
}

void TxnLogger::record(const std::string& channel, TxnKind kind,
                       std::uint64_t bytes, Time start, Time end, Time grant,
                       Time data) {
  record(intern(channel), kind, /*txn_id=*/0, bytes, start, end, grant, data);
}

namespace {

// The header line is the format version. v4 adds the issuing master;
// v3 (no master column) loads with master = kNoMaster; v2 (phase columns,
// no status) additionally loads with status = ok and retries = 0; v1
// (pre-phase traces) additionally defaults grant = data = start.
constexpr const char* kCsvHeaderV4 =
    "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
    "status,retries,master";
constexpr const char* kCsvHeaderV3 =
    "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
    "status,retries";
constexpr const char* kCsvHeaderV2 =
    "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn";
constexpr const char* kCsvHeaderV1 =
    "channel,kind,bytes,start_fs,end_fs,latency_ns,txn";

// RFC4180 quoting: only names carrying a delimiter, quote, or line break
// get wrapped (quotes inside doubled), so typical dumps stay byte-for-byte
// what they were before escaping existed.
void write_csv_field(std::ostream& os, const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

// Split one CSV line (no trailing newline) into fields, honouring quoting.
// Returns false on a malformed line (unbalanced quote, garbage after a
// closing quote) with `err` describing the problem.
bool split_csv_line(const std::string& line, std::vector<std::string>& out,
                    std::string& err) {
  out.clear();
  std::string field;
  bool quoted = false;   // inside an open quote
  bool was_quoted = false;  // current field started with a quote
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        quoted = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"') {
      if (!field.empty() || was_quoted) {
        err = "unexpected quote inside unquoted field";
        return false;
      }
      quoted = true;
      was_quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      out.push_back(std::move(field));
      field.clear();
      was_quoted = false;
      ++i;
      continue;
    }
    if (was_quoted) {
      err = "garbage after closing quote";
      return false;
    }
    field += c;
    ++i;
  }
  if (quoted) {
    err = "unterminated quote";
    return false;
  }
  out.push_back(std::move(field));
  return true;
}

// Read one logical CSV record: a newline inside an open quote belongs to
// the record (dump_csv writes channel names containing line breaks
// verbatim inside quotes), the first newline outside quotes terminates
// it. A carriage return directly before the terminator (or EOF) is
// treated as part of the line ending. Returns false at end of input.
bool read_csv_record(std::istream& is, std::string& out) {
  out.clear();
  bool quoted = false;
  bool any = false;
  int c;
  while ((c = is.get()) != std::char_traits<char>::eof()) {
    any = true;
    if (c == '\n' && !quoted) {
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return true;
    }
    if (c == '"') quoted = !quoted;  // doubled quotes toggle twice: no-op
    out += static_cast<char>(c);
  }
  if (!any) return false;
  if (!quoted && !out.empty() && out.back() == '\r') out.pop_back();
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{} && res.ptr == last;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{} && res.ptr == last;
}

[[noreturn]] void csv_error(std::size_t line_no, const std::string& what) {
  throw SimulationError("TxnLogger::load_csv: line " +
                        std::to_string(line_no) + ": " + what);
}

}  // namespace

void TxnLogger::dump_csv(std::ostream& os) const {
  os << kCsvHeaderV4 << "\n";
  for (const auto& r : records_) {
    write_csv_field(os, channel_name(r.channel));
    os << "," << txn_kind_name(r.kind) << "," << r.bytes << ","
       << r.start.femtoseconds() << "," << r.grant.femtoseconds() << ","
       << r.data.femtoseconds() << "," << r.end.femtoseconds() << ","
       << (r.end - r.start).to_ns() << "," << r.txn << ","
       << txn_status_name(r.status) << "," << r.retries << ",";
    if (r.master != kNoMaster) write_csv_field(os, channel_name(r.master));
    os << "\n";
  }
}

void TxnLogger::load_csv(std::istream& is) {
  records_.clear();
  channels_.clear();
  channel_index_.clear();
  try {
    load_csv_impl(is);
  } catch (...) {
    records_.clear();
    channels_.clear();
    channel_index_.clear();
    throw;
  }
}

void TxnLogger::load_csv_impl(std::istream& is) {
  std::string line;
  if (!read_csv_record(is, line)) {
    throw SimulationError("TxnLogger::load_csv: empty input (missing header)");
  }
  const bool v4 = line == kCsvHeaderV4;
  const bool v3 = v4 || line == kCsvHeaderV3;  // status/retries columns
  const bool v2 = v3 || line == kCsvHeaderV2;  // phase columns
  if (!v2 && line != kCsvHeaderV1) {
    throw SimulationError(
        "TxnLogger::load_csv: unrecognized header '" + line +
        "' (expected '" + kCsvHeaderV4 + "', the v3 header '" +
        kCsvHeaderV3 + "', the v2 header '" + kCsvHeaderV2 +
        "', or the v1 header '" + kCsvHeaderV1 + "')");
  }
  const std::size_t n_fields = v4 ? 12 : (v3 ? 11 : (v2 ? 9 : 7));

  std::vector<std::string> fields;
  std::string err;
  std::size_t line_no = 1;
  while (read_csv_record(is, line)) {
    ++line_no;
    if (line.empty()) continue;  // tolerate a trailing blank line
    if (!split_csv_line(line, fields, err)) csv_error(line_no, err);
    if (fields.size() != n_fields) {
      csv_error(line_no, "expected " + std::to_string(n_fields) +
                             " fields, got " + std::to_string(fields.size()));
    }
    TxnRecord r{};
    r.channel = intern(fields[0]);
    if (!txn_kind_from_name(fields[1], r.kind)) {
      csv_error(line_no, "unknown kind '" + fields[1] + "'");
    }
    // Field layout after (channel, kind, bytes):
    //   v4: start_fs grant_fs data_fs end_fs latency_ns txn status retries
    //       master
    //   v3: start_fs grant_fs data_fs end_fs latency_ns txn status retries
    //   v2: start_fs grant_fs data_fs end_fs latency_ns txn
    //   v1: start_fs end_fs latency_ns txn   (phases default to start)
    std::uint64_t bytes = 0, start_fs = 0, grant_fs = 0, data_fs = 0,
                  end_fs = 0, txn = 0;
    if (!parse_u64(fields[2], bytes)) {
      csv_error(line_no, "bad bytes '" + fields[2] + "'");
    }
    if (!parse_u64(fields[3], start_fs)) {
      csv_error(line_no, "bad start_fs '" + fields[3] + "'");
    }
    std::size_t f = 4;
    if (v2) {
      if (!parse_u64(fields[4], grant_fs)) {
        csv_error(line_no, "bad grant_fs '" + fields[4] + "'");
      }
      if (!parse_u64(fields[5], data_fs)) {
        csv_error(line_no, "bad data_fs '" + fields[5] + "'");
      }
      f = 6;
    } else {
      grant_fs = start_fs;
      data_fs = start_fs;
    }
    if (!parse_u64(fields[f], end_fs)) {
      csv_error(line_no, "bad end_fs '" + fields[f] + "'");
    }
    double latency_ns = 0.0;
    if (!parse_double(fields[f + 1], latency_ns)) {
      csv_error(line_no, "bad latency_ns '" + fields[f + 1] + "'");
    }
    if (!parse_u64(fields[f + 2], txn)) {
      csv_error(line_no, "bad txn '" + fields[f + 2] + "'");
    }
    TxnStatus status = TxnStatus::Ok;
    std::uint64_t retries = 0;
    if (v3) {
      if (!txn_status_from_name(fields[f + 3], status)) {
        csv_error(line_no, "unknown status '" + fields[f + 3] + "'");
      }
      if (!parse_u64(fields[f + 4], retries) || retries > UINT32_MAX) {
        csv_error(line_no, "bad retries '" + fields[f + 4] + "'");
      }
    }
    if (v4 && !fields[f + 5].empty()) {
      r.master = intern(fields[f + 5]);
      // The id must not alias the kNoMaster sentinel (a full id space).
      if (r.master == kNoMaster) {
        csv_error(line_no, "bad master '" + fields[f + 5] + "'");
      }
    }
    if (end_fs < start_fs) {
      csv_error(line_no, "end_fs precedes start_fs");
    }
    if (grant_fs < start_fs || data_fs < grant_fs || end_fs < data_fs) {
      csv_error(line_no,
                "phase order violated (need start <= grant <= data <= end)");
    }
    r.bytes = bytes;
    r.start = Time::fs(start_fs);
    r.grant = Time::fs(grant_fs);
    r.data = Time::fs(data_fs);
    r.end = Time::fs(end_fs);
    r.txn = txn;
    r.status = status;
    r.retries = static_cast<std::uint32_t>(retries);
    records_.push_back(r);
  }
}

}  // namespace stlm::trace
