#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace prord::obs {
namespace {

RequestSpan make_span(std::uint64_t req) {
  RequestSpan s;
  s.request = req;
  s.conn = 7;
  s.file = 42;
  s.bytes = 2048;
  s.server = 3;
  s.home = 1;
  s.arrival = 1000;
  s.backend_start = 1100;
  s.completion = 1500;
  s.via = RouteVia::kPrefetch;
  s.contacted_dispatcher = true;
  s.handoff = true;
  s.cache_resident = true;
  return s;
}

TEST(Tracer, RateOneSamplesEveryRequest) {
  Tracer t(1.0);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(t.sampled(i));
}

TEST(Tracer, RateZeroSamplesNothing) {
  Tracer t(0.0);
  EXPECT_FALSE(t.enabled());
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_FALSE(t.sampled(i));
  t.record(make_span(5));  // record() re-checks sampling
  EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, SamplingIsDeterministicAndRateProportional) {
  Tracer a(0.25), b(0.25);
  std::size_t hits = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    EXPECT_EQ(a.sampled(i), b.sampled(i));  // pure function of the index
    if (a.sampled(i)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.25, 0.01);
}

TEST(Tracer, LowerRateSamplesSubset) {
  // The hash threshold is monotone in the rate, so every request traced at
  // 10% is also traced at 50% — sample sets nest across rates.
  Tracer lo(0.1), hi(0.5);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    if (lo.sampled(i)) {
      EXPECT_TRUE(hi.sampled(i));
    }
  }
}

TEST(Tracer, RateIsClamped) {
  EXPECT_DOUBLE_EQ(Tracer(7.0).sample_rate(), 1.0);
  EXPECT_DOUBLE_EQ(Tracer(-2.0).sample_rate(), 0.0);
}

TEST(Tracer, RecordKeepsSampledSpansInOrder) {
  Tracer t(1.0);
  t.record(make_span(1));
  t.record(make_span(2));
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].request, 1u);
  EXPECT_EQ(t.spans()[1].request, 2u);
  const auto taken = Tracer(t).take_spans();
  EXPECT_EQ(taken.size(), 2u);
}

TEST(Tracer, SpanJsonIsWellFormedAndStable) {
  std::ostringstream os;
  write_span_json(os, make_span(9));
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Single-line object, fixed field order, no raw control characters.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  // Sim spans carry the clock discriminator first (live wall spans say
  // "wall"; both flavors share one JSONL schema).
  EXPECT_NE(json.find("\"clock\":\"sim\""), std::string::npos);
  EXPECT_LT(json.find("\"clock\""), json.find("\"req\""));
  EXPECT_NE(json.find("\"req\":9"), std::string::npos);
  EXPECT_NE(json.find("\"via\":\"prefetch\""), std::string::npos);
  EXPECT_NE(json.find("\"resp_us\":500"), std::string::npos);
  EXPECT_NE(json.find("\"handoff\":true"), std::string::npos);
  EXPECT_NE(json.find("\"forwarded\":false"), std::string::npos);
  EXPECT_LT(json.find("\"req\""), json.find("\"conn\""));
  EXPECT_LT(json.find("\"t_arrival_us\""), json.find("\"t_done_us\""));

  // Same span renders to the same bytes.
  std::ostringstream again;
  write_span_json(again, make_span(9));
  EXPECT_EQ(json, again.str());
}

TEST(Tracer, SpanFieldsAreJsonBodyOfSpanJson) {
  std::ostringstream fields, json;
  write_span_fields(fields, make_span(4));
  write_span_json(json, make_span(4));
  EXPECT_EQ("{" + fields.str() + "}", json.str());
}

TEST(Tracer, UnroutedServerRendersAsMinusOne) {
  RequestSpan s;  // server/home left at the kNoServer sentinel
  std::ostringstream os;
  write_span_json(os, s);
  EXPECT_NE(os.str().find("\"server\":-1"), std::string::npos);
  EXPECT_NE(os.str().find("\"home\":-1"), std::string::npos);
}

TEST(RouteViaNames, AreDistinctAndStable) {
  EXPECT_STREQ(route_via_name(RouteVia::kDispatcher), "dispatcher");
  EXPECT_STREQ(route_via_name(RouteVia::kSticky), "sticky");
  EXPECT_STREQ(route_via_name(RouteVia::kBundle), "bundle");
  EXPECT_STREQ(route_via_name(RouteVia::kPrefetch), "prefetch");
  EXPECT_STREQ(route_via_name(RouteVia::kReplica), "replica");
  EXPECT_STREQ(route_via_name(RouteVia::kBalance), "balance");
}

}  // namespace
}  // namespace prord::obs
