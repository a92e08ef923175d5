#pragma once
// OCP transaction types shared by the TL channel, the CAMs, the pin-level
// FSMs, and the accessors.
//
// The paper attaches PEs to communication architecture models through
// "OCP TLM interfaces" and refines them to "pin-level OCP". This module
// models the OCP basic profile: single request group (MCmd/MAddr/MData),
// single response group (SResp/SData), word size 32 bit, precise bursts.
//
// Since the pooled-transaction refactor, the descriptor that actually
// crosses every layer is stlm::Txn (kernel/txn.hpp): layers hand the same
// Txn through the TL channel, the CAM grant engine, and the pin adapters
// without copying payloads. Request/Response survive as convenience value
// types for edge code (PE bodies, tests); the conversion helpers below
// map them onto a Txn at the boundary.

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/report.hpp"
#include "kernel/txn.hpp"

namespace stlm::ocp {

inline constexpr std::size_t kWordBytes = Txn::kWordBytes;

// Little-endian 32-bit wire helpers shared by the MMIO/mailbox register
// codecs (CPU model, HW adapter, SHIP wrappers).
inline std::uint32_t u32_from_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void u32_to_le(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// Pin-level burst packing shared by the OCP pin FSMs and the bus
// accessors: beat `beat` of `bytes` as one little-endian word,
// zero-padded past the end of the payload...
inline std::uint32_t word_at(const std::vector<std::uint8_t>& bytes,
                             std::size_t beat) {
  std::uint32_t w = 0;
  for (std::size_t i = 0; i < kWordBytes; ++i) {
    const std::size_t idx = beat * kWordBytes + i;
    if (idx < bytes.size()) {
      w |= static_cast<std::uint32_t>(bytes[idx]) << (8 * i);
    }
  }
  return w;
}

// ...and the inverse: append one captured beat. The caller trims the
// final word's padding once the burst is complete.
inline void append_word(std::vector<std::uint8_t>& bytes, std::uint32_t w) {
  for (std::size_t i = 0; i < kWordBytes; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
  }
}

enum class Cmd : std::uint8_t { Idle = 0, Write = 1, Read = 2 };
enum class RespCode : std::uint8_t { Null = 0, DVA = 1, Fail = 2, Err = 3 };

struct Request {
  Cmd cmd = Cmd::Idle;
  std::uint64_t addr = 0;
  std::vector<std::uint8_t> data;  // write payload (empty for reads)
  std::uint32_t read_bytes = 0;    // requested bytes (reads only)

  static Request read(std::uint64_t addr, std::uint32_t bytes) {
    Request r;
    r.cmd = Cmd::Read;
    r.addr = addr;
    r.read_bytes = bytes;
    return r;
  }

  static Request write(std::uint64_t addr, std::vector<std::uint8_t> bytes) {
    Request r;
    r.cmd = Cmd::Write;
    r.addr = addr;
    r.data = std::move(bytes);
    return r;
  }

  // Payload size in bytes (direction-dependent).
  std::size_t payload_bytes() const {
    return cmd == Cmd::Read ? read_bytes : data.size();
  }
  // Number of 32-bit data beats this transaction occupies.
  std::uint32_t beats() const {
    const std::size_t b = payload_bytes();
    return b == 0 ? 1
                  : static_cast<std::uint32_t>((b + kWordBytes - 1) / kWordBytes);
  }
};

struct Response {
  RespCode resp = RespCode::Null;
  std::vector<std::uint8_t> data;  // read payload

  static Response ok() {
    Response r;
    r.resp = RespCode::DVA;
    return r;
  }
  static Response error() {
    Response r;
    r.resp = RespCode::Err;
    return r;
  }
  bool good() const { return resp == RespCode::DVA; }
};

// ---- Txn <-> Request/Response boundary conversion -----------------------

inline Cmd txn_cmd(const Txn& t) {
  return t.op == Txn::Op::Read ? Cmd::Read : Cmd::Write;
}

inline RespCode txn_resp_code(const Txn& t) {
  switch (t.status) {
    case Txn::Status::Ok: return RespCode::DVA;
    // Late-but-valid data still carries DVA on the wire; the Timeout
    // verdict lives in the initiator-side descriptor, not the protocol.
    case Txn::Status::Timeout: return RespCode::DVA;
    case Txn::Status::Error: return RespCode::Err;
    case Txn::Status::Aborted: return RespCode::Err;
    case Txn::Status::Pending: return RespCode::Null;
  }
  return RespCode::Null;
}

inline void request_to_txn(const Request& req, Txn& t) {
  STLM_ASSERT(req.cmd != Cmd::Idle, "transport of IDLE request");
  if (req.cmd == Cmd::Read) {
    t.begin_read(req.addr, req.read_bytes);
  } else {
    t.begin_write(req.addr, req.data.data(), req.data.size());
  }
}

inline Response response_from_txn(const Txn& t) {
  Response r;
  r.resp = txn_resp_code(t);
  r.data = t.resp_data;  // copy out; the pooled buffer keeps its capacity
  return r;
}

}  // namespace stlm::ocp
