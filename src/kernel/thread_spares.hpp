#pragma once
// Per-OS-thread spares: released buffers kept for the next owner.
//
// Objects that are rebuilt once per simulated cell — the timed queue's
// heap vector, the transaction log's row vector — hand their storage to
// the calling thread's spare slots when they die, and their successor on
// the same thread takes it back. The capacity, and the page faults that
// grew it, are paid once per thread instead of once per cell.
//
// ThreadSpares<T, N> keeps at most N buffers: the N largest by
// capacity() offered so far, so retained memory is bounded by the largest
// cells the thread ran. Give a buffer already cleared of content.
//
// The slots are a function-local thread_local, destroyed at thread exit.
// An owner that dies after that point (a static, another thread_local
// destroyed later) must not touch them, so their destructor sets a plain
// thread_local flag — a bool has no destructor and stays readable — and
// give()/take() then drop the buffer or find nothing.

#include <array>
#include <cstddef>
#include <utility>

namespace stlm::detail {

template <class T, std::size_t N>
class ThreadSpares {
  static_assert(N > 0, "ThreadSpares needs at least one slot");

public:
  // Move a spare into `out` (replacing its contents); false when the
  // thread holds none.
  static bool take(T& out) {
    Slots* s = slots();
    if (s == nullptr || s->count == 0) return false;
    out = std::move(s->bufs[--s->count]);
    return true;
  }

  // Offer a released buffer. Kept in a free slot, or in place of the
  // smallest spare when it is larger; otherwise freed with `buf`.
  static void give(T&& buf) {
    if (buf.capacity() == 0) return;
    Slots* s = slots();
    if (s == nullptr) return;
    if (s->count < N) {
      s->bufs[s->count++] = std::move(buf);
      return;
    }
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < N; ++i) {
      if (s->bufs[i].capacity() < s->bufs[smallest].capacity()) smallest = i;
    }
    if (buf.capacity() > s->bufs[smallest].capacity()) {
      s->bufs[smallest] = std::move(buf);
    }
  }

private:
  struct Slots {
    std::array<T, N> bufs{};
    std::size_t count = 0;
    ~Slots() { gone = true; }
  };

  static Slots* slots() {
    if (gone) return nullptr;
    thread_local Slots s;
    return &s;
  }

  static inline thread_local bool gone = false;
};

}  // namespace stlm::detail
