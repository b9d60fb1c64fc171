// Randomized robustness tests for the Common Log Format parser: arbitrary
// byte salads must never crash, and every accepted line must have sane
// fields.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/clf.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace prord::trace {
namespace {

std::string random_garbage(util::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(static_cast<char>(32 + rng.below(95)));  // printable ASCII
  return s;
}

TEST(ClfFuzz, GarbageNeverCrashesAndRarelyParses) {
  util::Rng rng(2026);
  ClfParser parser;
  std::size_t parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto line = random_garbage(rng, 120);
    const auto rec = parser.parse_line(line);
    if (rec) {
      ++parsed;
      EXPECT_LE(rec->status, 999);
      EXPECT_FALSE(rec->url.empty());
    }
  }
  // Random printable strings essentially never look like CLF.
  EXPECT_LT(parsed, 5u);
}

TEST(ClfFuzz, MutatedValidLinesParseOrRejectCleanly) {
  const std::string valid =
      R"(host7 - - [18/Jun/1998:00:10:12 +0000] "GET /a/b.html HTTP/1.1" 200 5120)";
  util::Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    std::string line = valid;
    // Flip 1-3 random characters.
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f)
      line[rng.below(line.size())] = static_cast<char>(32 + rng.below(95));
    ClfParser parser;
    const auto rec = parser.parse_line(line);  // must not crash
    if (rec) {
      EXPECT_LE(rec->status, 999);
      EXPECT_GE(rec->time, 0);
    }
  }
}

TEST(ClfFuzz, TruncationsRejectCleanly) {
  const std::string valid =
      R"(host7 - - [18/Jun/1998:00:10:12 +0000] "GET /a/b.html HTTP/1.1" 200 5120)";
  for (std::size_t len = 0; len < valid.size(); ++len) {
    ClfParser parser;
    const auto rec = parser.parse_line(valid.substr(0, len));
    // Only near-complete prefixes could possibly parse (missing bytes is
    // missing fields).
    if (rec) {
      EXPECT_GE(len, valid.size() - 6);
    }
  }
}

TEST(ClfFuzz, RandomRecordsRoundTripLosslessly) {
  util::Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    std::vector<LogRecord> recs;
    sim::SimTime t = 0;
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) {
      LogRecord r;
      t += static_cast<sim::SimTime>(rng.below(10'000'000));
      r.time = t;
      r.client = static_cast<std::uint32_t>(rng.below(20));
      r.url = "/d" + std::to_string(rng.below(9)) + "/f" +
              std::to_string(rng.below(200)) +
              (rng.bernoulli(0.5) ? ".html" : ".gif");
      r.bytes = static_cast<std::uint32_t>(rng.below(1 << 20));
      r.status = rng.bernoulli(0.9) ? 200 : 404;
      recs.push_back(std::move(r));
    }
    std::stringstream ss;
    write_clf(ss, recs);
    ClfParser parser;
    const auto parsed = parser.parse_stream(ss);
    ASSERT_EQ(parsed.size(), recs.size());
    EXPECT_EQ(parser.malformed_lines(), 0u);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(parsed[i].time, recs[i].time);
      EXPECT_EQ(parsed[i].url, recs[i].url);
      EXPECT_EQ(parsed[i].bytes, recs[i].bytes);
      EXPECT_EQ(parsed[i].status, recs[i].status);
    }
  }
}

TEST(ClfFuzz, SkipCountersCategorizeRejections) {
  const struct {
    const char* line;
    const char* category;
  } cases[] = {
      // Garbage / lowercase / oversized methods.
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "get /a HTTP/1.1" 200 10)",
       "bad_request"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "G3T /a HTTP/1.1" 200 10)",
       "bad_request"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GETGETGETGETGETGET /a HTTP/1.1" 200 10)",
       "bad_request"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "/a" 200 10)", "bad_request"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a FTP/1.1" 200 10)",
       "bad_request"},
      // Quote problems.
      {R"(h - - [18/Jun/1998:00:10:12 +0000] GET /a HTTP/1.1 200 10)",
       "missing_quotes"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a HTTP/1.1 200 10)",
       "missing_quotes"},
      // Timestamp problems. (A missing timezone is tolerated as UTC, so it
      // is no longer in this list.)
      {R"(h - - [99/Xxx/1998:00:10:12 +0000] "GET /a HTTP/1.1" 200 10)",
       "bad_timestamp"},
      {R"(h - - [18/Jun/1998:99:10:12 +0000] "GET /a HTTP/1.1" 200 10)",
       "bad_timestamp"},
      // Structural truncation.
      {"h", "truncated"},
      {"h -", "truncated"},
      {R"(h - - "GET /a HTTP/1.1" 200 10)", "truncated"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a HTTP/1.1" 200)",
       "truncated"},
      // Status / bytes fields.
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a HTTP/1.1" 999 10)",
       "bad_status"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a HTTP/1.1" 42 10)",
       "bad_status"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a HTTP/1.1" 200 ten)",
       "bad_bytes"},
      // URL problems: malformed percent-escapes and non-path targets.
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /a%zz.html HTTP/1.1" 200 10)",
       "bad_escape"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "GET /trunc%4 HTTP/1.1" 200 10)",
       "bad_escape"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "CONNECT db:443 HTTP/1.1" 200 10)",
       "bad_url"},
      {R"(h - - [18/Jun/1998:00:10:12 +0000] "OPTIONS * HTTP/1.0" 200 0)",
       "bad_url"},
  };
  for (const auto& c : cases) {
    ClfParser p;
    EXPECT_FALSE(p.parse_line(c.line).has_value()) << c.line;
    EXPECT_EQ(p.malformed_lines(), 1u) << c.line;
    const auto& s = p.skips();
    const std::string_view want = c.category;
    EXPECT_EQ(s.bad_request, want == "bad_request" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.missing_quotes, want == "missing_quotes" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.bad_timestamp, want == "bad_timestamp" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.truncated, want == "truncated" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.bad_status, want == "bad_status" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.bad_bytes, want == "bad_bytes" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.bad_escape, want == "bad_escape" ? 1u : 0u) << c.line;
    EXPECT_EQ(s.bad_url, want == "bad_url" ? 1u : 0u) << c.line;
  }
}

TEST(ClfFuzz, MutatedStreamConservesLineAccounting) {
  // Every non-empty line of a mutated stream must end up either parsed or
  // in exactly one skip bucket: parsed + skips().total() == lines fed.
  const std::string valid =
      R"(host7 - - [18/Jun/1998:00:10:12 +0000] "GET /a/b.html HTTP/1.1" 200 5120)";
  util::Rng rng(2027);
  for (int round = 0; round < 200; ++round) {
    std::stringstream ss;
    std::size_t fed = 0;
    const std::size_t n = 1 + rng.below(50);
    for (std::size_t i = 0; i < n; ++i) {
      std::string line = valid;
      const int flips = static_cast<int>(rng.below(6));  // 0 = keep valid
      for (int f = 0; f < flips; ++f)
        line[rng.below(line.size())] = static_cast<char>(32 + rng.below(95));
      if (!util::trim(line).empty()) ++fed;
      ss << line << '\n';
    }
    ClfParser p;
    const auto recs = p.parse_stream(ss);
    EXPECT_EQ(recs.size() + p.malformed_lines(), fed);
    EXPECT_EQ(p.skips().total(), p.malformed_lines());
  }
}

TEST(ClfFuzz, TruncatedStreamCountsEveryPrefix) {
  const std::string valid =
      R"(host7 - - [18/Jun/1998:00:10:12 +0000] "GET /a/b.html HTTP/1.1" 200 5120)";
  std::stringstream ss;
  std::size_t fed = 0;
  for (std::size_t len = 1; len < valid.size(); ++len) {
    ss << valid.substr(0, len) << '\n';
    ++fed;
  }
  ClfParser p;
  const auto recs = p.parse_stream(ss);
  EXPECT_EQ(recs.size() + p.malformed_lines(), fed);
  // Nearly all prefixes are invalid; the parser must say why.
  EXPECT_GT(p.skips().truncated, 0u);
  EXPECT_GT(p.skips().total(), fed - 5);
}

TEST(ClfFuzz, TimestampRoundTripOverWideRange) {
  util::Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    // 1990..2100, whole seconds (CLF granularity).
    const std::int64_t secs =
        631'152'000LL + static_cast<std::int64_t>(rng.below(3'470'000'000ULL));
    const std::int64_t us = secs * 1'000'000;
    const auto text = format_clf_timestamp(us);
    const auto back = parse_clf_timestamp(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, us) << text;
  }
}

}  // namespace
}  // namespace prord::trace
