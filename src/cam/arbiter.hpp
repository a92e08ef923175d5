#pragma once
// Bus arbitration policies for the CAM library.
//
// An arbiter picks the next master among those with pending requests.
// Policies are interchangeable per bus instance, which is one axis of the
// paper's communication architecture exploration.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/report.hpp"

namespace stlm::cam {

/// Bus arbitration policy. Stateless from the bus's point of view: the
/// grant engine passes the mask of masters that may be granted *now*
/// and the policy picks one. In split mode the mask already excludes
/// masters at their outstanding cap, so one policy implementation
/// serves both the atomic and the split engines unchanged. Every policy
/// is work-conserving and grants the sole eligible master when there is
/// one; GrantEngine::contended_picks relies on this.
class Arbiter {
public:
  virtual ~Arbiter() = default;

  /// Pick the next master to grant.
  /// @param requesting  requesting[i] is true if master i is eligible
  ///                    (has a pending transaction, and in split mode
  ///                    is under its outstanding cap)
  /// @param cycle       current bus cycle (used by time-sliced policies)
  /// @return the granted master index, or -1 if none requesting
  virtual int pick(const std::vector<bool>& requesting, std::uint64_t cycle) = 0;
  /// Policy name for reports ("priority", "round-robin", "tdma").
  virtual std::string name() const = 0;
  /// Back to the state right after construction (a reset system).
  virtual void reset() {}
};

/// Static priority: lowest index wins (index order = priority order).
class PriorityArbiter final : public Arbiter {
public:
  int pick(const std::vector<bool>& requesting, std::uint64_t) override {
    for (std::size_t i = 0; i < requesting.size(); ++i) {
      if (requesting[i]) return static_cast<int>(i);
    }
    return -1;
  }
  std::string name() const override { return "priority"; }
};

/// Round robin: rotate the highest priority after each grant.
class RoundRobinArbiter final : public Arbiter {
public:
  int pick(const std::vector<bool>& requesting, std::uint64_t) override {
    const std::size_t n = requesting.size();
    for (std::size_t k = 1; k <= n; ++k) {
      const std::size_t i = (last_ + k) % n;
      if (requesting[i]) {
        last_ = i;
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  std::string name() const override { return "round-robin"; }
  void reset() override { last_ = 0; }

private:
  std::size_t last_ = 0;
};

/// TDMA: a repeating slot table of master ids; the slot owner wins its
/// slot, otherwise round robin among the others (slot reclamation).
class TdmaArbiter final : public Arbiter {
public:
  TdmaArbiter(std::vector<std::size_t> slot_table, std::uint64_t slot_cycles)
      : table_(std::move(slot_table)), slot_cycles_(slot_cycles) {
    STLM_ASSERT(!table_.empty(), "TDMA slot table must not be empty");
    STLM_ASSERT(slot_cycles_ > 0, "TDMA slot length must be positive");
  }

  int pick(const std::vector<bool>& requesting, std::uint64_t cycle) override {
    const std::size_t slot = (cycle / slot_cycles_) % table_.size();
    const std::size_t owner = table_[slot];
    if (owner < requesting.size() && requesting[owner]) {
      return static_cast<int>(owner);
    }
    return fallback_.pick(requesting, cycle);
  }
  std::string name() const override { return "tdma"; }
  void reset() override { fallback_.reset(); }

private:
  std::vector<std::size_t> table_;
  std::uint64_t slot_cycles_;
  RoundRobinArbiter fallback_;
};

/// Static priority with aging (QoS): lowest index wins — unless some
/// requester has been waiting at least `aging_cycles` bus cycles since
/// it first requested, in which case the longest-waiting starved
/// requester wins (ties broken by lower index). `aging_cycles == 0`
/// degenerates to pure FCFS by first-request cycle.
class AgingPriorityArbiter final : public Arbiter {
public:
  explicit AgingPriorityArbiter(std::uint64_t aging_cycles)
      : aging_cycles_(aging_cycles) {}

  int pick(const std::vector<bool>& requesting, std::uint64_t cycle) override {
    if (since_.size() < requesting.size()) {
      since_.resize(requesting.size(), kIdle);
    }
    // Track when each master's current request first became visible; a
    // master that stops requesting (granted elsewhere / withdrawn)
    // resets its age.
    int first = -1;
    for (std::size_t i = 0; i < requesting.size(); ++i) {
      if (!requesting[i]) {
        since_[i] = kIdle;
        continue;
      }
      if (since_[i] == kIdle) since_[i] = cycle;
      if (first < 0) first = static_cast<int>(i);
    }
    if (first < 0) return -1;
    int aged = -1;
    for (std::size_t i = 0; i < requesting.size(); ++i) {
      if (!requesting[i] || cycle - since_[i] < aging_cycles_) continue;
      if (aged < 0 || since_[i] < since_[static_cast<std::size_t>(aged)]) {
        aged = static_cast<int>(i);
      }
    }
    const int winner = aged >= 0 ? aged : first;
    since_[static_cast<std::size_t>(winner)] = kIdle;
    return winner;
  }
  std::string name() const override { return "aging"; }
  // Idle everywhere, as the lazily grown table starts.
  void reset() override { since_.assign(since_.size(), kIdle); }

private:
  static constexpr std::uint64_t kIdle = static_cast<std::uint64_t>(-1);
  std::uint64_t aging_cycles_;
  std::vector<std::uint64_t> since_;  // first-request cycle per master
};

/// Bandwidth reservation (QoS): deficit-credit weighted arbitration.
/// Master i accrues `shares[i]` credits every pick it spends requesting;
/// the requester with the most credits wins (ties broken by lower index)
/// and pays the round's total requested share, so grant frequencies
/// converge to the share ratios under saturation while staying strictly
/// work-conserving and deterministic (integer arithmetic only). Masters
/// beyond the shares table default to share 1.
class BandwidthArbiter final : public Arbiter {
public:
  explicit BandwidthArbiter(std::vector<std::uint32_t> shares)
      : shares_(std::move(shares)) {}

  int pick(const std::vector<bool>& requesting, std::uint64_t) override {
    if (credit_.size() < requesting.size()) credit_.resize(requesting.size());
    int winner = -1;
    std::int64_t round = 0;
    for (std::size_t i = 0; i < requesting.size(); ++i) {
      if (!requesting[i]) continue;
      credit_[i] += share(i);
      round += share(i);
      if (winner < 0 || credit_[i] > credit_[static_cast<std::size_t>(winner)]) {
        winner = static_cast<int>(i);
      }
    }
    if (winner < 0) return -1;
    credit_[static_cast<std::size_t>(winner)] -= round;
    return winner;
  }
  std::string name() const override { return "bandwidth"; }
  void reset() override { credit_.assign(credit_.size(), 0); }

private:
  std::int64_t share(std::size_t i) const {
    if (i >= shares_.size() || shares_[i] == 0) return 1;
    return static_cast<std::int64_t>(shares_[i]);
  }
  std::vector<std::uint32_t> shares_;
  std::vector<std::int64_t> credit_;
};

}  // namespace stlm::cam
