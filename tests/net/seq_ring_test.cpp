// SeqRing: FIFO use across wrap-around and growth, and sparse slots ahead
// of the head (the reorder ring's out-of-order parking).
#include "net/seq_ring.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace prord::net {
namespace {

TEST(SeqRing, FifoSurvivesWrapAndGrowth) {
  SeqRing<int> ring;
  EXPECT_TRUE(ring.empty());
  int next_in = 0;
  int next_out = 0;
  // Uneven push/pop rounds: the window wraps the slot array many times
  // and grows while its head sits mid-array.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 3; ++i) ring.push_back() = next_in++;
    for (int i = 0; i < round % 5 + 1 && !ring.empty(); ++i) {
      EXPECT_EQ(ring.front(), next_out++);
      ring.pop_front();
    }
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_in - next_out));
    EXPECT_EQ(ring.head(), static_cast<std::uint64_t>(next_out));
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(SeqRing, SlotsAheadOfTheHeadKeepTheirSequenceNumbers) {
  SeqRing<std::optional<std::string>> ring;
  for (int i = 0; i < 5; ++i) ring.pop_front();  // retire 0..4 unparked
  EXPECT_EQ(ring.head(), 5u);
  EXPECT_TRUE(ring.empty());
  // Park 6 and 40 (forces growth with head at 5), leaving holes.
  ring.slot(6) = "six";
  ring.slot(40) = "forty";
  EXPECT_FALSE(ring.front().has_value());  // 5 still outstanding
  ring.slot(5) = "five";
  std::string drained;
  while (!ring.empty() && ring.front()) {
    drained += *ring.front() + " ";
    ring.pop_front();
  }
  EXPECT_EQ(drained, "five six ");
  EXPECT_EQ(ring.head(), 7u);
  EXPECT_EQ(ring.slot(40).value_or(""), "forty");
  while (ring.head() < 40) ring.pop_front();
  EXPECT_EQ(ring.front().value_or(""), "forty");
  ring.pop_front();
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace prord::net
