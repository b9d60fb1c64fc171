// SeqRing: slots indexed by a dense, ascending 64-bit sequence number.
//
// The live relay numbers what it queues (requests per client connection,
// forwards per upstream), and everything it holds lies in a window
// [head, head + capacity) that slides forward as the oldest entry
// retires. A power-of-two vector indexed by seq & mask replaces both the
// ordered map of the reorder buffer and the FIFO deque of in-flight
// forwards: no node per entry, no allocation once the window has reached
// its working size. The ring grows on demand and never shrinks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prord::net {

template <class T>
class SeqRing {
 public:
  /// Lowest sequence number still held (the FIFO front).
  std::uint64_t head() const noexcept { return head_; }
  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_ - head_);
  }

  /// The slot of `seq` (>= head()), growing the ring so it fits.
  T& slot(std::uint64_t seq) {
    reserve_through(seq);
    tail_ = std::max(tail_, seq + 1);
    return slots_[index(seq)];
  }
  /// Appends a slot at tail() (FIFO use).
  T& push_back() { return slot(tail_); }

  /// The head slot; the ring must not be empty.
  T& front() noexcept { return slots_[index(head_)]; }

  /// Resets the head slot and advances head() (also past a slot that was
  /// never used, so a caller may retire a sequence number it handled
  /// without parking it).
  void pop_front() {
    if (!slots_.empty()) slots_[index(head_)] = T{};
    ++head_;
    tail_ = std::max(tail_, head_);
  }

 private:
  std::size_t index(std::uint64_t seq) const noexcept {
    return static_cast<std::size_t>(seq) & (slots_.size() - 1);
  }

  void reserve_through(std::uint64_t seq) {
    const std::uint64_t need = seq - head_ + 1;
    if (need <= slots_.size()) return;
    std::size_t cap = std::max<std::size_t>(8, slots_.size());
    while (cap < need) cap *= 2;
    std::vector<T> grown(cap);
    // Every live entry lies in [head_, head_ + old capacity).
    for (std::uint64_t s = head_; s < head_ + slots_.size(); ++s)
      grown[static_cast<std::size_t>(s) & (cap - 1)] =
          std::move(slots_[index(s)]);
    slots_ = std::move(grown);
  }

  std::vector<T> slots_;  ///< size is zero or a power of two
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;  ///< one past the highest slot handed out
};

}  // namespace prord::net
