// Equivalence fuzz: the timing-wheel queue must be operation-for-operation
// indistinguishable from the reference binary heap
// (tests/support/reference_event_heap.h) — same pop order, same
// pop times, same cancel outcomes, same sizes — under randomized streams
// of pushes (leaf-window, mid-wheel, overflow-range, and below-clock
// "past" times), cancels, and pops. This is the contract that lets every
// figure table stay byte-identical after the queue swap: the simulator
// orders simultaneous events by sequence number, and both implementations
// must honour it exactly.
#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "support/reference_event_heap.h"

namespace prord::sim {
namespace {

void run_fuzz(std::uint64_t seed, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EventQueue wheel;
  test_support::ReferenceEventHeap heap;

  std::mt19937_64 rng(seed);
  std::vector<EventHandle> wheel_handles, heap_handles;
  std::vector<std::pair<SimTime, int>> wheel_fired, heap_fired;
  SimTime horizon = 0;  // max time popped so far
  int next_id = 0;

  const auto push_both = [&](SimTime at) {
    const int id = next_id++;
    wheel_handles.push_back(wheel.push(
        at, [&wheel_fired, at, id] { wheel_fired.emplace_back(at, id); }));
    heap_handles.push_back(heap.push(
        at, [&heap_fired, at, id] { heap_fired.emplace_back(at, id); }));
  };

  const auto pop_both = [&] {
    SimTime wheel_at = -1, heap_at = -2;
    EventFn wheel_fn = wheel.pop(wheel_at);
    EventFn heap_fn = heap.pop(heap_at);
    ASSERT_EQ(wheel_at, heap_at);
    wheel_fn();
    heap_fn();
    ASSERT_FALSE(wheel_fired.empty());
    ASSERT_EQ(wheel_fired.back(), heap_fired.back());
    if (wheel_at > horizon) horizon = wheel_at;
  };

  for (int op = 0; op < ops; ++op) {
    const auto roll = rng() % 100;
    if (roll < 50 || wheel.empty()) {
      // Push — spread times across every wheel region.
      SimTime at = 0;
      switch (rng() % 8) {
        case 0:  // same-leaf collisions (sequence order decides)
          at = horizon + static_cast<SimTime>(rng() % 4);
          break;
        case 1:  // leaf window
          at = horizon + static_cast<SimTime>(rng() % 2000);
          break;
        case 2:
        case 3:  // L1/L2 windows (~2 ms .. ~4.3 s)
          at = horizon + static_cast<SimTime>(rng() % (1u << 22));
          break;
        case 4:  // beyond the wheel span: overflow heap
          at = horizon + static_cast<SimTime>(rng() % (1ull << 34));
          break;
        default:  // at or below the clock: the "past" mini-heap
          at = static_cast<SimTime>(
              rng() % (static_cast<std::uint64_t>(horizon) + 1));
          break;
      }
      push_both(at);
    } else if (roll < 70 && !wheel_handles.empty()) {
      // Cancel a random handle (live, already fired, or already cancelled
      // — outcomes must agree in every case).
      const std::size_t i = rng() % wheel_handles.size();
      const bool wheel_ok = wheel.cancel(wheel_handles[i]);
      const bool heap_ok = heap.cancel(heap_handles[i]);
      ASSERT_EQ(wheel_ok, heap_ok) << "cancel of handle " << i;
    } else {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(wheel.next_time(), heap.next_time());
      ASSERT_NO_FATAL_FAILURE(pop_both());
    }
    ASSERT_EQ(wheel.size(), heap.size());
    ASSERT_EQ(wheel.empty(), heap.empty());
  }

  // Drain everything that's left; full fire logs must match exactly.
  while (!heap.empty()) {
    ASSERT_FALSE(wheel.empty());
    ASSERT_EQ(wheel.next_time(), heap.next_time());
    ASSERT_NO_FATAL_FAILURE(pop_both());
  }
  ASSERT_TRUE(wheel.empty());
  ASSERT_EQ(wheel_fired, heap_fired);
}

TEST(EventQueueEquivalence, RandomizedStreamsMatchHeapReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    run_fuzz(seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueEquivalence, CancelHeavyStreamsMatchHeapReference) {
  // A second pass with fewer ops and a different seed band; cancels are
  // already covered above, but small streams tickle the wheel's cascade
  // boundaries differently (the clock crosses blocks in bigger jumps
  // relative to the live population).
  for (const std::uint64_t seed : {1000ull, 2026ull, 9999ull}) {
    run_fuzz(seed, 4'000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace prord::sim
