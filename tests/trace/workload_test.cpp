#include "trace/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "trace/generator.h"
#include "trace/models.h"

namespace prord::trace {
namespace {

LogRecord rec(sim::SimTime t, std::uint32_t client, std::string url,
              std::uint32_t bytes = 1000, std::uint16_t status = 200) {
  LogRecord r;
  r.time = t;
  r.client = client;
  r.url = std::move(url);
  r.bytes = bytes;
  r.status = status;
  return r;
}

TEST(FileTable, InternAssignsDenseIds) {
  FileTable t;
  EXPECT_EQ(t.intern("/a.html", 100), 0u);
  EXPECT_EQ(t.intern("/b.html", 200), 1u);
  EXPECT_EQ(t.intern("/a.html", 100), 0u);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.url(1), "/b.html");
  EXPECT_EQ(t.lookup("/a.html"), 0u);
  EXPECT_EQ(t.lookup("/zzz"), kInvalidFile);
}

TEST(FileTable, SizeIsMaxObserved) {
  FileTable t;
  const auto id = t.intern("/a.html", 100);
  t.intern("/a.html", 50);   // truncated transfer
  t.intern("/a.html", 300);  // full transfer
  EXPECT_EQ(t.size_bytes(id), 300u);
  EXPECT_EQ(t.total_bytes(), 300u);
}

TEST(FileTable, ProbesWithViewsCutFromLargerBuffers) {
  // A request target is a view into the parser's buffer: not
  // NUL-terminated, followed by more bytes. Lookup and intern must key on
  // exactly the view's bytes.
  const std::string wire = "GET /a/b.html HTTP/1.1\r\n/a/b.htmlX";
  const std::string_view target = std::string_view(wire).substr(4, 9);
  const std::string_view overlong = std::string_view(wire).substr(24, 10);
  ASSERT_EQ(target, "/a/b.html");
  FileTable t;
  EXPECT_EQ(t.lookup(target), kInvalidFile);
  const FileId id = t.intern(target, 100);
  EXPECT_EQ(t.url(id), "/a/b.html");
  EXPECT_EQ(t.lookup(target), id);
  EXPECT_EQ(t.lookup(std::string_view(wire).substr(24, 9)), id);
  EXPECT_EQ(t.lookup(overlong), kInvalidFile);  // "/a/b.htmlX"
  EXPECT_EQ(t.lookup(target.substr(0, 8)), kInvalidFile);
  EXPECT_EQ(t.intern(std::string_view(wire).substr(24, 9), 300), id);
  EXPECT_EQ(t.size_bytes(id), 300u);
  // Growing the table (and reallocating its url vector) keeps old keys.
  for (int i = 0; i < 100; ++i) t.intern("/grow/" + std::to_string(i), 1);
  EXPECT_EQ(t.lookup(target), id);
  EXPECT_EQ(t.count(), 101u);
}

TEST(IsEmbeddedUrl, ClassifiesByExtension) {
  EXPECT_TRUE(is_embedded_url("/img/logo.gif"));
  EXPECT_TRUE(is_embedded_url("/style.CSS"));
  EXPECT_TRUE(is_embedded_url("/x/app.js?v=2"));
  EXPECT_FALSE(is_embedded_url("/index.html"));
  EXPECT_FALSE(is_embedded_url("/cgi-bin/form"));
}

TEST(FileTable, ClassifiesEachUrlOnceAtIntern) {
  FileTable t;
  const char* urls[] = {"/img/logo.gif", "/style.CSS",   "/x/app.js?v=2",
                        "/index.html",   "/cgi-bin/form", "/s1/p3.cgi?q=x",
                        "/cgi-bin/x.gif", "/noext",       "/trailingdot."};
  for (const char* url : urls) {
    const FileId id = t.intern(url, 10);
    EXPECT_EQ(t.is_embedded(id), is_embedded_url(url)) << url;
    EXPECT_EQ(t.is_dynamic(id), is_dynamic_url(url)) << url;
    // A second sighting keeps the flags.
    EXPECT_EQ(t.intern(url, 20), id);
    EXPECT_EQ(t.is_embedded(id), is_embedded_url(url)) << url;
  }
  // Both at once: an image under /cgi-bin/.
  const FileId both = t.lookup("/cgi-bin/x.gif");
  EXPECT_TRUE(t.is_embedded(both));
  EXPECT_TRUE(t.is_dynamic(both));
}

TEST(BuildWorkload, RequestKindsFollowTheFileTable) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"), rec(1, 0, "/a.gif"),
                              rec(2, 0, "/q.php"), rec(3, 0, "/cgi-bin/x.gif"),
                              rec(4, 0, "/a.gif")};
  const auto w = build_workload(recs);
  ASSERT_EQ(w.requests.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Request& r = w.requests[i];
    EXPECT_EQ(r.is_embedded, is_embedded_url(recs[i].url)) << recs[i].url;
    // Embedded wins: an image under /cgi-bin/ is not dynamic.
    EXPECT_EQ(r.is_dynamic,
              !is_embedded_url(recs[i].url) && is_dynamic_url(recs[i].url))
        << recs[i].url;
  }
  EXPECT_TRUE(w.requests[2].is_dynamic);
  EXPECT_FALSE(w.requests[3].is_dynamic);
}

TEST(BuildWorkload, InternsAndPreservesOrder) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"), rec(10, 0, "/a.gif"),
                              rec(20, 1, "/b.html")};
  const auto w = build_workload(recs);
  ASSERT_EQ(w.requests.size(), 3u);
  EXPECT_EQ(w.files.count(), 3u);
  EXPECT_EQ(w.requests[0].at, 0);
  EXPECT_EQ(w.requests[2].at, 20);
  EXPECT_EQ(w.num_clients, 2u);
  EXPECT_EQ(w.num_main_pages, 2u);
}

TEST(BuildWorkload, EmbeddedAttributedToRecentPage) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"), rec(10, 0, "/x.gif"),
                              rec(20, 0, "/y.gif"), rec(30, 0, "/b.html"),
                              rec(40, 0, "/z.gif")};
  const auto w = build_workload(recs);
  const FileId a = w.files.lookup("/a.html");
  const FileId b = w.files.lookup("/b.html");
  EXPECT_FALSE(w.requests[0].is_embedded);
  EXPECT_TRUE(w.requests[1].is_embedded);
  EXPECT_EQ(w.requests[1].parent_page, a);
  EXPECT_EQ(w.requests[2].parent_page, a);
  EXPECT_EQ(w.requests[4].parent_page, b);
}

TEST(BuildWorkload, EmbeddedOutsideWindowUnattributed) {
  WorkloadOptions opt;
  opt.bundle_window = sim::sec(1.0);
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"),
                              rec(sim::sec(5.0), 0, "/x.gif")};
  const auto w = build_workload(recs, opt);
  EXPECT_EQ(w.requests[1].parent_page, kInvalidFile);
}

TEST(BuildWorkload, OrphanEmbeddedHasNoParent) {
  std::vector<LogRecord> recs{rec(0, 0, "/x.gif")};
  const auto w = build_workload(recs);
  EXPECT_TRUE(w.requests[0].is_embedded);
  EXPECT_EQ(w.requests[0].parent_page, kInvalidFile);
}

TEST(BuildWorkload, KeepaliveSplitsConnections) {
  WorkloadOptions opt;
  opt.keepalive_timeout = sim::sec(15.0);
  std::vector<LogRecord> recs{
      rec(0, 0, "/a.html"), rec(sim::sec(5.0), 0, "/b.html"),
      rec(sim::sec(30.0), 0, "/c.html"),  // 25s gap: new connection
      rec(sim::sec(31.0), 1, "/d.html")};
  const auto w = build_workload(recs, opt);
  EXPECT_EQ(w.requests[0].conn, w.requests[1].conn);
  EXPECT_NE(w.requests[1].conn, w.requests[2].conn);
  EXPECT_NE(w.requests[2].conn, w.requests[3].conn);
  EXPECT_EQ(w.num_connections, 3u);
  EXPECT_TRUE(w.requests[0].starts_connection);
  EXPECT_FALSE(w.requests[1].starts_connection);
  EXPECT_TRUE(w.requests[2].starts_connection);
}

TEST(BuildWorkload, ErrorsDroppedByDefault) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"),
                              rec(10, 0, "/missing.html", 0, 404)};
  EXPECT_EQ(build_workload(recs).requests.size(), 1u);
  WorkloadOptions opt;
  opt.keep_errors = true;
  EXPECT_EQ(build_workload(recs, opt).requests.size(), 2u);
}

TEST(BuildWorkload, RejectsUnsortedInput) {
  std::vector<LogRecord> recs{rec(100, 0, "/a.html"), rec(0, 0, "/b.html")};
  EXPECT_THROW(build_workload(recs), std::invalid_argument);
}

TEST(BuildWorkload, RedirectWithDashBytesDropped) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html", 0, 304)};
  const auto w = build_workload(recs);
  EXPECT_TRUE(w.requests.empty());
}

TEST(BuildWorkload, GeneratedTraceEndToEnd) {
  SiteBuildParams sp;
  sp.sections = 3;
  sp.pages_per_section = 12;
  sp.seed = 3;
  const auto site = build_site(sp);
  TraceGenParams gp;
  gp.target_requests = 4000;
  gp.duration_sec = 400;
  gp.seed = 8;
  const auto t = generate_trace(site, gp);
  const auto w = build_workload(t.records);

  EXPECT_EQ(w.requests.size(), t.records.size());
  EXPECT_GT(w.num_connections, 0u);
  EXPECT_GT(w.num_main_pages, 0u);
  // Every embedded request generated by the site model should classify as
  // embedded via its URL extension.
  std::size_t embedded = 0;
  for (const auto& r : w.requests) embedded += r.is_embedded;
  EXPECT_GT(embedded, w.requests.size() / 3);
  // Conservation: main + embedded = all.
  EXPECT_EQ(w.num_main_pages + embedded, w.requests.size());
  // Connections are contiguous per client and ids dense.
  std::set<std::uint32_t> conns;
  for (const auto& r : w.requests) conns.insert(r.conn);
  EXPECT_EQ(conns.size(), w.num_connections);
}

}  // namespace
}  // namespace prord::trace
