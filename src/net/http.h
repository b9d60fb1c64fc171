// Minimal incremental HTTP/1.1 message parsing for the live loopback
// cluster (docs/LIVE_CLUSTER.md).
//
// Scope: exactly what the distributor, the backend workers, and the load
// generator exchange — GET-style requests without bodies (a Content-Length
// body is tolerated and skipped) and responses framed by Content-Length.
// No chunked transfer coding, no HTTP/1.0 keep-alive negotiation beyond
// the Connection header, no continuation lines. Parsers are push-style:
// feed whatever bytes the socket produced with consume(), pop complete
// messages until empty, repeat. A protocol error latches: consume()
// returns false and the connection should be dropped.
//
// Parsing is in place: consume() appends to the parser's own buffer and
// parses every complete message in one pass; pop() hands out views into
// that buffer. A popped message's views stay valid across further pop()s
// and die at the next consume() (which compacts and may reallocate the
// buffer) or when the parser is destroyed. A caller that keeps a message
// longer copies what it needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prord::net {

/// Header block cap: a peer that streams an unbounded header section is
/// broken or hostile; drop it instead of buffering forever.
inline constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
/// Response body cap (64 MiB — far above any synthetic site file).
inline constexpr std::size_t kMaxBodyBytes = 64ull * 1024 * 1024;

/// A parsed request: views into the RequestParser's buffer.
struct HttpRequest {
  std::string_view method;
  std::string_view target;   ///< origin-form path, e.g. "/d/17.html"
  std::string_view version;  ///< "HTTP/1.1"
  /// Raw header lines between the request line and the blank line.
  std::string_view headers;
  bool keep_alive = true;

  /// Case-insensitive header lookup over the raw lines (value trimmed);
  /// nullopt when absent.
  std::optional<std::string_view> header(std::string_view name) const;
};

/// A parsed response: views into the ResponseParser's buffer.
struct HttpResponse {
  int status = 0;
  std::string_view reason;
  /// Raw header lines between the status line and the blank line.
  std::string_view headers;
  std::string_view body;
  /// The whole message as received, status line through body.
  std::string_view raw;
  bool keep_alive = true;

  std::optional<std::string_view> header(std::string_view name) const;
};

namespace detail {

/// Byte range of a parsed message, relative to the message's first byte
/// (an offset survives compaction and reallocation; a view does not).
struct Slice {
  std::size_t off = 0;
  std::size_t len = 0;
};

/// Shared buffer discipline of both parsers: bytes before the read
/// offset are parsed; each consume() first drops what no unpopped
/// message needs.
class ParseBuffer {
 public:
  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

 protected:
  /// Drops bytes before `keep` (shifting the read offset) and appends
  /// `data`. Returns the shift every stored offset must undergo.
  std::size_t compact_and_append(std::size_t keep, std::string_view data);
  void fail(std::string what);

  std::string buf_;
  std::size_t off_ = 0;  ///< first byte not yet parsed
  bool failed_ = false;
  std::string error_;
};

}  // namespace detail

class RequestParser : public detail::ParseBuffer {
 public:
  /// Appends raw socket bytes and parses every complete request. Returns
  /// false once the stream is irrecoverably malformed (error() explains);
  /// complete requests parsed before the error are still poppable.
  bool consume(std::string_view data);

  /// Next complete request, in arrival order; views valid until the next
  /// consume().
  std::optional<HttpRequest> pop();

 private:
  struct Parsed {
    std::size_t start = 0;
    detail::Slice method, target, version, headers;
    bool keep_alive = true;
  };
  bool parse_one();

  std::size_t body_skip_ = 0;  ///< request-body bytes still to discard
  std::vector<Parsed> ready_;  ///< keeps its capacity across consume()s
  std::size_t next_ = 0;       ///< first unpopped entry of ready_
};

class ResponseParser : public detail::ParseBuffer {
 public:
  bool consume(std::string_view data);
  std::optional<HttpResponse> pop();

 private:
  struct Parsed {
    std::size_t start = 0;
    std::size_t len = 0;  ///< whole message, status line through body
    int status = 0;
    detail::Slice reason, headers;
    bool keep_alive = true;
  };
  bool parse_one();

  std::optional<Parsed> partial_;  ///< head parsed, body incomplete
  std::vector<Parsed> ready_;
  std::size_t next_ = 0;
};

/// Renders a GET request (the only method the cluster exchanges) onto
/// the end of `out`. `extra_headers` must be complete "Name: value\r\n"
/// lines when non-empty.
void append_request(std::string& out, std::string_view target,
                    std::string_view host = "prord",
                    std::string_view extra_headers = {});

/// Renders "HTTP/1.1 <status> <reason>" and the Content-Length line onto
/// the end of `out`. The caller appends its own header lines, the blank
/// line and exactly `content_length` body bytes.
void append_response_head(std::string& out, int status,
                          std::string_view reason,
                          std::size_t content_length);

/// A whole Content-Length-framed response onto the end of `out`.
void append_response(std::string& out, int status, std::string_view reason,
                     std::string_view body,
                     std::string_view extra_headers = {});

/// Owning forms of the renderers above.
std::string format_request(std::string_view target,
                           std::string_view host = "prord",
                           std::string_view extra_headers = {});
std::string format_response(int status, std::string_view reason,
                            std::string_view body,
                            std::string_view extra_headers = {});

}  // namespace prord::net
