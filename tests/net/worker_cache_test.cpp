// The live worker's cache over real loopback sockets: a fixed sequence of
// GETs interleaved with distributor-style preload() calls must leave the
// worker holding exactly the files the byte-capacity reference LRU
// (tests/support/reference_lru.h) holds after every step, and every
// cache_evict flight event must name a file the reference evicted.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/backend_worker.h"
#include "net/live_cluster.h"
#include "net/site_store.h"
#include "obs/flight_recorder.h"
#include "support/reference_lru.h"
#include "util/json.h"
#include "util/rng.h"

namespace prord::net {
namespace {

constexpr std::uint64_t kCapacity = 20'000;
constexpr trace::FileId kFiles = 24;

/// kFiles pages of 1-7 KB, the last one larger than the whole cache.
trace::FileTable site_files() {
  trace::FileTable files;
  for (trace::FileId f = 0; f < kFiles; ++f) {
    const std::uint32_t bytes =
        f + 1 == kFiles ? 2 * kCapacity : 1'000 + 1'000 * (f * 5 % 7);
    files.intern("/f/" + std::to_string(f) + ".html", bytes);
  }
  return files;
}

class WorkerCache : public ::testing::Test {
 protected:
  void SetUp() override { obs::FlightRecorder::instance().reset(); }
  void TearDown() override { obs::FlightRecorder::instance().reset(); }
};

TEST_F(WorkerCache, GetsAndPreloadsMatchReferenceLru) {
  const trace::FileTable files = site_files();
  const SiteStore store(files);
  obs::FlightRecorder::instance().enable();
  BackendWorker worker(0, store, kCapacity);
  ASSERT_TRUE(worker.start());

  test_support::ReferenceLru ref(kCapacity);
  std::vector<trace::FileId> ref_evicted;
  util::Rng rng(11);
  for (int step = 0; step < 300; ++step) {
    // Skewed towards the low ids so hits, refreshes and evictions mix.
    const auto f = static_cast<trace::FileId>(
        std::min(rng.below(kFiles), rng.below(kFiles)));
    const bool preload = rng.bernoulli(0.3);
    if (preload) {
      worker.preload(f);
    } else {
      const std::string body = http_get(worker.port(), store.url(f));
      ASSERT_EQ(body, store.make_payload(f)) << "step " << step;
    }
    if (!ref.lookup(f)) ref.insert(f, store.size_bytes(f), ref_evicted);
    for (trace::FileId g = 0; g < kFiles; ++g)
      ASSERT_EQ(worker.caches(g), ref.contains(g))
          << "step " << step << (preload ? " preload " : " GET ") << f
          << ", file " << g;
  }
  worker.stop();
  ASSERT_FALSE(ref_evicted.empty());
  EXPECT_FALSE(worker.caches(kFiles - 1));
  EXPECT_GT(worker.stats().cache_hits.load(), 0u);
  EXPECT_GT(worker.stats().preloads.load(), 0u);

  // Misses evict on the worker's thread, preloads on this one: gather the
  // cache_evict events of every ring.
  const util::JsonValue doc =
      util::json_parse(obs::FlightRecorder::instance().dump_json("test"));
  std::vector<trace::FileId> flight_evicted;
  for (const util::JsonValue& ring : doc.find("rings")->items()) {
    EXPECT_EQ(ring.find("overwritten")->as_number(), 0.0);
    for (const util::JsonValue& ev : ring.find("events")->items()) {
      if (ev.find("type")->as_string() != "cache_evict") continue;
      const auto victim =
          static_cast<trace::FileId>(ev.find("b")->as_number());
      EXPECT_EQ(ev.find("a")->as_number(), 0.0);
      ASSERT_LT(victim, kFiles);
      EXPECT_EQ(ev.find("c")->as_number(), store.size_bytes(victim));
      EXPECT_NE(std::find(ref_evicted.begin(), ref_evicted.end(), victim),
                ref_evicted.end())
          << "file " << victim << " was never evicted by the reference";
      flight_evicted.push_back(victim);
    }
  }
  std::sort(flight_evicted.begin(), flight_evicted.end());
  std::sort(ref_evicted.begin(), ref_evicted.end());
  EXPECT_EQ(flight_evicted, ref_evicted);
}

}  // namespace
}  // namespace prord::net
