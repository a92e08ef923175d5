#pragma once
// Per-OS-thread spare: a released buffer kept for the next owner.
//
// Objects that are rebuilt once per simulated cell — the timed queue's
// heap vector, the transaction log's row vector — hand their storage to
// the calling thread's spare slot when they die, and their successor on
// the same thread takes it back. The capacity, and the page faults that
// grew it, are paid once per thread instead of once per cell.
//
// ThreadSpares<T> keeps one buffer: the largest by capacity() offered so
// far, so retained memory is bounded by the largest cell the thread ran.
// Give a buffer already cleared of content.
//
// The slot is a function-local thread_local, destroyed at thread exit.
// An owner that dies after that point (a static, another thread_local
// destroyed later) must not touch it, so its destructor sets a plain
// thread_local flag — a bool has no destructor and stays readable — and
// give()/take() then drop the buffer or find nothing.

#include <utility>

namespace stlm::detail {

template <class T>
class ThreadSpares {
public:
  // Move the spare into `out` (replacing its contents); false when the
  // thread holds none.
  static bool take(T& out) {
    Slot* s = slot();
    if (s == nullptr || s->buf.capacity() == 0) return false;
    out = std::move(s->buf);
    s->buf = T{};
    return true;
  }

  // Offer a released buffer. Kept when it is larger than the spare;
  // otherwise freed with `buf`.
  static void give(T&& buf) {
    Slot* s = slot();
    if (s == nullptr || buf.capacity() <= s->buf.capacity()) return;
    s->buf = std::move(buf);
  }

private:
  struct Slot {
    T buf{};
    ~Slot() { gone = true; }
  };

  static Slot* slot() {
    if (gone) return nullptr;
    thread_local Slot s;
    return &s;
  }

  static inline thread_local bool gone = false;
};

}  // namespace stlm::detail
