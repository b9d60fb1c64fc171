// Reference model for the event-queue equivalence fuzz.
//
// The simulator's original pending-event set: a binary heap keyed on
// (time, sequence) with unordered_set cancellation bookkeeping. It is
// slow (one heap entry per push, hash lookups on every cancel and pop)
// but obviously correct, so tests/simcore/event_queue_equivalence_test.cpp
// drives sim::EventQueue's timing wheel against it operation for
// operation. Same API as sim::EventQueue; handles carry no node pointer.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"

namespace prord::test_support {

class ReferenceEventHeap {
 public:
  sim::EventHandle push(sim::SimTime at, sim::EventFn fn) {
    assert(fn && "ReferenceEventHeap::push: empty function");
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{at, seq, std::move(fn)});
    sift_up(heap_.size() - 1);
    pending_.insert(seq);
    return sim::EventHandle{seq, nullptr};
  }

  bool cancel(sim::EventHandle h) {
    if (!h.valid()) return false;
    // Seqs are unique, so a stale handle (event already fired or
    // cancelled) is simply absent from pending_ and the cancel is a no-op.
    if (pending_.erase(h.seq) == 0) return false;
    cancelled_.insert(h.seq);
    return true;
  }

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return pending_.size(); }

  sim::SimTime next_time() {
    drop_dead_head();
    if (heap_.empty())
      throw std::logic_error("ReferenceEventHeap::next_time: empty");
    return heap_.front().at;
  }

  sim::EventFn pop(sim::SimTime& at) {
    drop_dead_head();
    if (heap_.empty()) throw std::logic_error("ReferenceEventHeap::pop: empty");
    at = heap_.front().at;
    sim::EventFn fn = std::move(heap_.front().fn);
    pending_.erase(heap_.front().seq);
    std::swap(heap_.front(), heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return fn;
  }

 private:
  struct Entry {
    sim::SimTime at;
    std::uint64_t seq;
    sim::EventFn fn;

    bool operator>(const Entry& o) const noexcept {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  void drop_dead_head() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.front().seq);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      std::swap(heap_.front(), heap_.back());
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
    }
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[parent] > heap_[i])) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      std::size_t smallest = i;
      if (l < n && heap_[smallest] > heap_[l]) smallest = l;
      if (r < n && heap_[smallest] > heap_[r]) smallest = r;
      if (smallest == i) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<std::uint64_t> pending_;    // seqs still scheduled
  std::unordered_set<std::uint64_t> cancelled_;  // tombstones in heap_
  std::uint64_t next_seq_ = 1;
};

}  // namespace prord::test_support
