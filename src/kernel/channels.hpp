#pragma once
// Blocking primitive channels: bounded FIFO, mutex, semaphore.
//
// These are the SystemC sc_fifo / sc_mutex / sc_semaphore analogues the
// eSW-synthesis methodology (Herrera et al.) substitutes with RTOS
// primitives; the RTOS library in src/rtos mirrors these interfaces.

#include <deque>
#include <string>

#include "kernel/event.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

// Two same-delta callers of one side (two pushes, two pops, two lock
// acquisitions) are served in dispatch order, and so is a non-blocking
// probe (nb_read/nb_write/try_*) against the other side's same-delta
// writer: which one goes first is the kernel's choice, not the model's.
// The dispatch-order check (docs/ARCHITECTURE.md) shows such a race as a
// different outcome under DispatchOrder::Reverse. A blocking producer/
// consumer pair commutes: whoever runs second converges on the same
// simulated result.

// Read side of a FIFO (bindable via Port<FifoInIf<T>>).
template <class T>
class FifoInIf {
public:
  virtual ~FifoInIf() = default;
  virtual T read() = 0;
  virtual bool nb_read(T& out) = 0;
  virtual std::size_t num_available() const = 0;
  virtual Event& data_written_event() = 0;
};

// Write side of a FIFO (bindable via Port<FifoOutIf<T>>).
template <class T>
class FifoOutIf {
public:
  virtual ~FifoOutIf() = default;
  virtual void write(T v) = 0;
  virtual bool nb_write(T v) = 0;
  virtual std::size_t num_free() const = 0;
  virtual Event& data_read_event() = 0;
};

template <class T>
class Fifo final : public FifoInIf<T>, public FifoOutIf<T> {
public:
  explicit Fifo(Simulator& sim, std::string name = "fifo",
                std::size_t capacity = 16)
      : name_(std::move(name)),
        capacity_(capacity),
        written_(sim, name_ + ".written"),
        read_(sim, name_ + ".read") {
    STLM_ASSERT(capacity_ > 0, "fifo capacity must be positive: " + name_);
  }

  T read() override {
    while (buf_.empty()) wait(written_);
    T v = std::move(buf_.front());
    buf_.pop_front();
    read_.notify_delta();
    return v;
  }

  bool nb_read(T& out) override {
    if (buf_.empty()) return false;
    out = std::move(buf_.front());
    buf_.pop_front();
    read_.notify_delta();
    return true;
  }

  void write(T v) override {
    while (buf_.size() >= capacity_) wait(read_);
    buf_.push_back(std::move(v));
    written_.notify_delta();
  }

  bool nb_write(T v) override {
    if (buf_.size() >= capacity_) return false;
    buf_.push_back(std::move(v));
    written_.notify_delta();
    return true;
  }

  std::size_t num_available() const override { return buf_.size(); }
  std::size_t num_free() const override { return capacity_ - buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  Event& data_written_event() override { return written_; }
  Event& data_read_event() override { return read_; }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::size_t capacity_;
  std::deque<T> buf_;
  Event written_;
  Event read_;
};

class Mutex {
public:
  explicit Mutex(Simulator& sim, std::string name = "mutex")
      : name_(std::move(name)), unlocked_(sim, name_ + ".unlocked") {}

  void lock() {
    while (locked_) wait(unlocked_);
    locked_ = true;
  }

  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

  void unlock() {
    STLM_ASSERT(locked_, "unlock of unlocked mutex: " + name_);
    locked_ = false;
    unlocked_.notify_delta();
  }

private:
  std::string name_;
  Event unlocked_;
  bool locked_ = false;
};

// RAII guard for Mutex.
class LockGuard {
public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

private:
  Mutex& m_;
};

class Semaphore {
public:
  Semaphore(Simulator& sim, int initial, std::string name = "semaphore")
      : name_(std::move(name)), value_(initial), posted_(sim, name_ + ".posted") {
    STLM_ASSERT(initial >= 0, "semaphore initial value must be >= 0: " + name_);
  }

  void acquire() {
    while (value_ == 0) wait(posted_);
    --value_;
  }

  bool try_acquire() {
    if (value_ == 0) return false;
    --value_;
    return true;
  }

  void release() {
    ++value_;
    posted_.notify_delta();
  }

  int value() const { return value_; }

private:
  std::string name_;
  int value_;
  Event posted_;
};

}  // namespace stlm
