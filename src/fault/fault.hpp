#pragma once
// Failure-semantics configuration and the seeded fault injector.
//
// A FaultProfile describes how a platform misbehaves: per-slave error
// probability (targets answer with Status::Error), latency-spike windows
// (a slave occasionally takes extra bus cycles to answer), and
// grant-stall bursts (the arbiter occasionally withholds a grant for a
// few cycles). A RetrySpec describes how initiators respond: bounded
// retries with exponential backoff in simulated time, per-transaction
// timeout watchdogs, abort on exhaustion (see cam/retry.hpp).
//
// Determinism contract: the Injector draws from splitmix64 streams
// derived from the profile seed — one stream per slave index plus one
// grant stream — and is consulted in simulation order (the kernel's
// dispatch order is deterministic), so same-seed runs reproduce the
// exact same fault sequence byte for byte. Zero-rate knobs perform no
// draw at all: an attached all-zero profile behaves exactly like no
// injector, and the Mapper only attaches active() profiles in the first
// place, so fault-free platforms stay bit-identical to the seed anchors.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernel/time.hpp"
#include "workload/rng.hpp"

namespace stlm::fault {

struct FaultProfile {
  // Suffix appended to platform names in the exploration grid ("-<name>");
  // empty plus all-zero rates is the inactive default axis entry.
  std::string name;
  std::uint64_t seed = 1;
  // Per-access probability that the routed slave responds Status::Error.
  double error_rate = 0.0;
  // Per-access probability of a latency spike, and its size in bus cycles.
  double spike_rate = 0.0;
  std::uint64_t spike_cycles = 0;
  // Per-grant probability of an arbiter stall, and its size in bus cycles.
  double stall_rate = 0.0;
  std::uint64_t stall_cycles = 0;

  bool active() const {
    return error_rate > 0.0 || (spike_rate > 0.0 && spike_cycles > 0) ||
           (stall_rate > 0.0 && stall_cycles > 0);
  }

  bool operator==(const FaultProfile&) const = default;
};

// Initiator-side failure policy knobs (consumed by cam::RetryPolicy).
struct RetrySpec {
  // Suffix appended to platform names in the exploration grid; empty plus
  // zero knobs is the inactive default axis entry.
  std::string name;
  // Re-issues allowed after an Error response (0 = report the Error).
  std::uint32_t max_retries = 0;
  // Backoff before re-issue k is backoff_cycles << (k-1) bus cycles.
  std::uint64_t backoff_cycles = 1;
  // Watchdog deadline per attempt; zero disables the watchdog.
  Time timeout = Time::zero();

  bool active() const {
    return max_retries > 0 || timeout != Time::zero();
  }

  bool operator==(const RetrySpec&) const = default;
};

// Seeded fault source consulted by the CAM engines. One Injector per
// mapped system (the Mapper owns it); per-slave streams keep the draw
// sequence independent of how traffic interleaves across targets.
class Injector {
public:
  explicit Injector(FaultProfile profile) : profile_(std::move(profile)) {
    reset();
  }

  /// Restart every stream at its seed and the counters at 0: the same
  /// draws again, for a reset system.
  void reset() {
    grant_ = workload::SplitMix64(
        workload::SplitMix64::derive(profile_.seed, 0));
    streams_.clear();  // re-derived on first use, within the capacity
    errors_ = 0;
    spikes_ = 0;
    stalls_ = 0;
  }

  struct Access {
    bool error = false;
    std::uint64_t spike_cycles = 0;
  };

  /// Draw the fault outcome for one access to slave `slave`. Zero-rate
  /// knobs skip their draw entirely (stream untouched).
  Access on_access(std::size_t slave) {
    Access a;
    if (profile_.error_rate <= 0.0 && profile_.spike_rate <= 0.0) return a;
    auto& rng = slave_stream(slave);
    if (profile_.error_rate > 0.0 &&
        rng.uniform01() < profile_.error_rate) {
      a.error = true;
      ++errors_;
      return a;  // an erroring access doesn't also spike
    }
    if (profile_.spike_rate > 0.0 && profile_.spike_cycles > 0 &&
        rng.uniform01() < profile_.spike_rate) {
      a.spike_cycles = profile_.spike_cycles;
      ++spikes_;
    }
    return a;
  }

  /// Draw the stall (in bus cycles) charged before one arbitration grant.
  std::uint64_t on_grant() {
    if (profile_.stall_rate <= 0.0 || profile_.stall_cycles == 0) return 0;
    if (grant_.uniform01() < profile_.stall_rate) {
      ++stalls_;
      return profile_.stall_cycles;
    }
    return 0;
  }

  const FaultProfile& profile() const { return profile_; }
  std::uint64_t injected_errors() const { return errors_; }
  std::uint64_t injected_spikes() const { return spikes_; }
  std::uint64_t injected_stalls() const { return stalls_; }

private:
  workload::SplitMix64& slave_stream(std::size_t slave) {
    if (slave >= streams_.size()) {
      for (std::size_t i = streams_.size(); i <= slave; ++i) {
        // Index 0 is the grant stream; slave i uses derivation index i+1.
        streams_.emplace_back(workload::SplitMix64::derive(
            profile_.seed, static_cast<std::uint64_t>(i) + 1));
      }
    }
    return streams_[slave];
  }

  FaultProfile profile_;
  workload::SplitMix64 grant_{0};
  std::vector<workload::SplitMix64> streams_;
  std::uint64_t errors_ = 0;
  std::uint64_t spikes_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace stlm::fault
