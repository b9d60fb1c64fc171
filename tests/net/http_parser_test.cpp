// HTTP/1.1 incremental parser unit tests: framing, keep-alive semantics,
// byte-at-a-time feeding, pipelining, and malformed-input rejection.
#include "net/http.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace prord::net {
namespace {

TEST(RequestParser, ParsesSimpleGet) {
  RequestParser p;
  ASSERT_TRUE(p.consume("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"));
  const auto req = p.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/index.html");
  EXPECT_TRUE(req->keep_alive);
  ASSERT_TRUE(req->header("host").has_value());
  EXPECT_EQ(*req->header("host"), "x");
  EXPECT_FALSE(p.pop().has_value());
}

TEST(RequestParser, ByteAtATime) {
  const std::string raw =
      "GET /a/b.gif HTTP/1.1\r\nHost: prord\r\nX-Test: 1\r\n\r\n";
  RequestParser p;
  for (char c : raw) ASSERT_TRUE(p.consume(std::string_view(&c, 1)));
  const auto req = p.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/a/b.gif");
  ASSERT_TRUE(req->header("x-test").has_value());
  EXPECT_EQ(*req->header("x-test"), "1");
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser p;
  ASSERT_TRUE(
      p.consume("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"));
  auto a = p.pop();
  auto b = p.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->target, "/1");
  EXPECT_EQ(b->target, "/2");
}

TEST(RequestParser, ConnectionCloseHonored) {
  RequestParser p;
  ASSERT_TRUE(p.consume("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  const auto req = p.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive);
}

TEST(RequestParser, Http10DefaultsToClose) {
  RequestParser p;
  ASSERT_TRUE(p.consume("GET / HTTP/1.0\r\n\r\n"));
  const auto req = p.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive);
}

TEST(RequestParser, RejectsGarbageMethod) {
  RequestParser p;
  EXPECT_FALSE(p.consume("get / HTTP/1.1\r\n\r\n"));
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsMissingVersion) {
  RequestParser p;
  EXPECT_FALSE(p.consume("GET /\r\n\r\n"));
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsOversizedHeader) {
  RequestParser p;
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
  raw.append(kMaxHeaderBytes, 'a');
  EXPECT_FALSE(p.consume(raw));
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, SkipsContentLengthBody) {
  RequestParser p;
  ASSERT_TRUE(p.consume(
      "POST /f HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next "
      "HTTP/1.1\r\n\r\n"));
  auto a = p.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->method, "POST");
  auto b = p.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->target, "/next");
}

TEST(ResponseParser, FramesByContentLength) {
  ResponseParser p;
  ASSERT_TRUE(p.consume(
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody"));
  const auto resp = p.pop();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "body");
}

TEST(ResponseParser, SplitAcrossReads) {
  ResponseParser p;
  ASSERT_TRUE(p.consume("HTTP/1.1 404 Not Fo"));
  EXPECT_FALSE(p.pop().has_value());
  ASSERT_TRUE(p.consume("und\r\nContent-Length: 2\r\n\r\nn"));
  EXPECT_FALSE(p.pop().has_value());
  ASSERT_TRUE(p.consume("o"));
  const auto resp = p.pop();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->body, "no");
}

TEST(ResponseParser, PipelinedResponses) {
  ResponseParser p;
  ASSERT_TRUE(p.consume(
      "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1 200 "
      "OK\r\nContent-Length: 1\r\n\r\nb"));
  auto a = p.pop();
  auto b = p.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->body, "a");
  EXPECT_EQ(b->body, "b");
}

TEST(ResponseParser, RejectsBadStatus) {
  ResponseParser p;
  EXPECT_FALSE(p.consume("HTTP/1.1 999 Huh\r\n\r\n"));
  EXPECT_TRUE(p.failed());
}

TEST(Formatters, RoundTrip) {
  ResponseParser rp;
  ASSERT_TRUE(rp.consume(
      format_response(200, "OK", "payload", "X-Backend: 3\r\n")));
  const auto resp = rp.pop();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "payload");
  ASSERT_TRUE(resp->header("x-backend").has_value());
  EXPECT_EQ(*resp->header("x-backend"), "3");

  RequestParser qp;
  ASSERT_TRUE(qp.consume(format_request("/x.html")));
  const auto req = qp.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/x.html");
}

TEST(RequestParser, ViewsSurvivePopsUntilNextConsume) {
  RequestParser p;
  ASSERT_TRUE(p.consume(
      "GET /first HTTP/1.1\r\nX-A: 1\r\n\r\nGET /second HTTP/1.1\r\n\r\n"));
  const auto a = p.pop();
  const auto b = p.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(p.pop().has_value());
  // Both borrowed messages are intact after later pops.
  EXPECT_EQ(a->target, "/first");
  EXPECT_EQ(a->header("x-a").value_or(""), "1");
  EXPECT_EQ(b->target, "/second");
  EXPECT_EQ(b->method, "GET");
  EXPECT_EQ(b->version, "HTTP/1.1");
}

TEST(RequestParser, UnpoppedRequestsSurviveConsume) {
  RequestParser p;
  ASSERT_TRUE(p.consume("GET /kept HTTP/1.1\r\n\r\nGET /par"));
  ASSERT_TRUE(p.consume("tial HTTP/1.1\r\n\r\n"));
  const auto a = p.pop();
  const auto b = p.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->target, "/kept");
  EXPECT_EQ(b->target, "/partial");
}

TEST(RequestParser, BurstOfSixtyFourParsesInOneConsume) {
  std::string burst;
  for (int i = 0; i < 64; ++i)
    append_request(burst, "/r/" + std::to_string(i) + ".html");
  RequestParser p;
  ASSERT_TRUE(p.consume(burst));
  std::vector<HttpRequest> reqs;
  while (auto r = p.pop()) reqs.push_back(*r);
  ASSERT_EQ(reqs.size(), 64u);
  // Every view is still valid with all 64 popped.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(reqs[static_cast<std::size_t>(i)].target,
              "/r/" + std::to_string(i) + ".html");
    EXPECT_EQ(reqs[static_cast<std::size_t>(i)].header("HOST").value_or(""),
              "prord");
  }
}

TEST(RequestParser, HeaderLookupIsCaseInsensitiveAndTrimmed) {
  RequestParser p;
  ASSERT_TRUE(p.consume(
      "GET / HTTP/1.1\r\nX-Prord-Trace:   abc  \r\nCONNECTION: Keep-Alive"
      "\r\n\r\n"));
  const auto req = p.pop();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->header("x-prord-trace").value_or(""), "abc");
  EXPECT_EQ(req->header("X-PRORD-TRACE").value_or(""), "abc");
  EXPECT_EQ(req->header("connection").value_or(""), "Keep-Alive");
  EXPECT_FALSE(req->header("X-Prord").has_value());
  EXPECT_TRUE(req->keep_alive);
}

TEST(RequestParser, BodySkipSplitAcrossConsumes) {
  RequestParser p;
  ASSERT_TRUE(p.consume("POST /f HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel"));
  const auto a = p.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->method, "POST");
  ASSERT_TRUE(p.consume("lo wo"));
  EXPECT_FALSE(p.pop().has_value());
  ASSERT_TRUE(p.consume("rlGET /next HTTP/1.1\r\n\r\n"));
  const auto b = p.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->method, "GET");
  EXPECT_EQ(b->target, "/next");
}

TEST(RequestParser, KeepsRequestsParsedBeforeAnError) {
  RequestParser p;
  EXPECT_FALSE(p.consume("GET /a HTTP/1.1\r\n\r\ngarbage\r\n\r\n"));
  EXPECT_TRUE(p.failed());
  const auto a = p.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->target, "/a");
  EXPECT_FALSE(p.consume("GET /b HTTP/1.1\r\n\r\n"));  // latched
  EXPECT_FALSE(p.pop().has_value());
}

TEST(ResponseParser, RawIsTheWholeMessage) {
  const std::string a = format_response(200, "OK", "abc", "X-Backend: 1\r\n");
  const std::string b = format_response(404, "Not Found", "", "");
  ResponseParser p;
  // Split mid-body and mid-head of the second message.
  ASSERT_TRUE(p.consume(a.substr(0, a.size() - 1)));
  EXPECT_FALSE(p.pop().has_value());
  ASSERT_TRUE(p.consume(a.substr(a.size() - 1) + b.substr(0, 5)));
  const auto first = p.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->raw, a);
  EXPECT_EQ(first->body, "abc");
  EXPECT_EQ(first->reason, "OK");
  EXPECT_EQ(first->header("X-BACKEND").value_or(""), "1");
  ASSERT_TRUE(p.consume(b.substr(5)));
  const auto second = p.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->raw, b);
  EXPECT_EQ(second->status, 404);
  EXPECT_EQ(second->reason, "Not Found");
  EXPECT_TRUE(second->body.empty());
}

TEST(Formatters, InPlaceRenderersMatchOwningForms) {
  std::string out = "prefix";
  append_response(out, 200, "OK", "body", "X-Cache: HIT\r\n");
  EXPECT_EQ(out, "prefix" + format_response(200, "OK", "body",
                                            "X-Cache: HIT\r\n"));
  std::string head;
  append_response_head(head, 503, "Service Unavailable", 12);
  EXPECT_EQ(head, "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 12\r\n");
  std::string req;
  append_request(req, "/x", "backend2", "X-Prord-Prefetch: 1\r\n");
  EXPECT_EQ(req, format_request("/x", "backend2", "X-Prord-Prefetch: 1\r\n"));
  EXPECT_EQ(req, "GET /x HTTP/1.1\r\nHost: backend2\r\nX-Prord-Prefetch: 1\r\n\r\n");
}

}  // namespace
}  // namespace prord::net
