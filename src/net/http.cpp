#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace prord::net {
namespace {

/// A drained parser buffer above this capacity gives its storage back
/// (one huge response must not pin its size for the connection's life).
constexpr std::size_t kRetainBytes = 256 * 1024;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

enum class Line { kEnd, kHeader, kMalformed };

/// Cuts the next "Name: value" line off the front of `block`.
Line next_header(std::string_view& block, std::string_view& name,
                 std::string_view& value) {
  if (block.empty()) return Line::kEnd;
  const std::size_t eol = block.find("\r\n");
  const std::string_view line = block.substr(0, eol);
  block = eol == std::string_view::npos ? std::string_view{}
                                        : block.substr(eol + 2);
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return Line::kMalformed;
  name = trim(line.substr(0, colon));
  value = trim(line.substr(colon + 1));
  return Line::kHeader;
}

std::optional<std::string_view> find_header(std::string_view block,
                                            std::string_view name) {
  std::string_view k, v;
  for (Line l = next_header(block, k, v); l != Line::kEnd;
       l = next_header(block, k, v))
    if (l == Line::kHeader && iequals(k, name)) return v;
  return std::nullopt;
}

/// The two headers framing depends on, picked out while validating.
struct Framing {
  std::optional<std::string_view> content_length;
  std::optional<std::string_view> connection;
};

/// Validates every header line of `block`; false on a malformed one.
bool scan_headers(std::string_view block, Framing& out) {
  std::string_view k, v;
  for (Line l = next_header(block, k, v); l != Line::kEnd;
       l = next_header(block, k, v)) {
    if (l == Line::kMalformed) return false;
    if (!out.content_length && iequals(k, "Content-Length"))
      out.content_length = v;
    else if (!out.connection && iequals(k, "Connection"))
      out.connection = v;
  }
  return true;
}

/// HTTP/1.1 defaults to persistent; "Connection: close" opts out.
bool wants_keep_alive(const Framing& framing, std::string_view version) {
  if (framing.connection) {
    if (iequals(*framing.connection, "close")) return false;
    if (iequals(*framing.connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";
}

bool parse_size(std::string_view s, std::size_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool valid_method(std::string_view m) {
  if (m.empty() || m.size() > 16) return false;
  return std::all_of(m.begin(), m.end(),
                     [](char c) { return c >= 'A' && c <= 'Z'; });
}

/// `part` as a Slice relative to `base` (part must lie inside base's
/// buffer, at or after base.data()).
detail::Slice slice_of(std::string_view base, std::string_view part) {
  return {static_cast<std::size_t>(part.data() - base.data()), part.size()};
}

std::string_view at(const std::string& buf, std::size_t start,
                    detail::Slice s) {
  return std::string_view(buf).substr(start + s.off, s.len);
}

void append_number(std::string& out, std::uint64_t v) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  out.append(digits, static_cast<std::size_t>(end - digits));
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(
    std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string_view> HttpResponse::header(
    std::string_view name) const {
  return find_header(headers, name);
}

namespace detail {

std::size_t ParseBuffer::compact_and_append(std::size_t keep,
                                            std::string_view data) {
  if (keep == buf_.size() && buf_.capacity() > kRetainBytes)
    std::string().swap(buf_);
  else
    buf_.erase(0, keep);  // keep == size() is a plain clear()
  off_ -= keep;
  buf_.append(data);
  return keep;
}

void ParseBuffer::fail(std::string what) {
  failed_ = true;
  error_ = std::move(what);
}

}  // namespace detail

bool RequestParser::consume(std::string_view data) {
  if (failed_) return false;
  const std::size_t keep =
      next_ < ready_.size() ? ready_[next_].start : off_;
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(next_));
  next_ = 0;
  const std::size_t shift = compact_and_append(keep, data);
  for (Parsed& p : ready_) p.start -= shift;
  while (parse_one()) {
  }
  return !failed_;
}

/// One step: discard pending body bytes or parse one complete head past
/// the read offset. Returns true when progress was made and more may
/// follow.
bool RequestParser::parse_one() {
  if (failed_) return false;
  if (body_skip_ > 0) {
    const std::size_t n = std::min(body_skip_, buf_.size() - off_);
    off_ += n;
    body_skip_ -= n;
    if (body_skip_ > 0) return false;
  }
  const std::string_view msg = std::string_view(buf_).substr(off_);
  const std::size_t head_end = msg.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (msg.size() > kMaxHeaderBytes) fail("header block too large");
    return false;
  }
  const std::string_view head = msg.substr(0, head_end);

  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    fail("malformed request line");
    return false;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = trim(request_line.substr(sp2 + 1));
  if (!valid_method(method) || target.empty() ||
      !version.starts_with("HTTP/")) {
    fail("malformed request line");
    return false;
  }
  const std::string_view headers = line_end == std::string_view::npos
                                       ? head.substr(head.size())
                                       : head.substr(line_end + 2);
  Framing framing;
  if (!scan_headers(headers, framing)) {
    fail("malformed header line");
    return false;
  }
  if (framing.content_length) {
    std::size_t n = 0;
    if (!parse_size(*framing.content_length, n) || n > kMaxBodyBytes) {
      fail("bad Content-Length");
      return false;
    }
    body_skip_ = n;  // tolerated but discarded: the cluster serves GETs
  }
  ready_.push_back({off_, slice_of(msg, method), slice_of(msg, target),
                    slice_of(msg, version), slice_of(msg, headers),
                    wants_keep_alive(framing, version)});
  off_ += head_end + 4;
  return true;
}

std::optional<HttpRequest> RequestParser::pop() {
  if (next_ == ready_.size()) return std::nullopt;
  const Parsed& p = ready_[next_++];
  HttpRequest req;
  req.method = at(buf_, p.start, p.method);
  req.target = at(buf_, p.start, p.target);
  req.version = at(buf_, p.start, p.version);
  req.headers = at(buf_, p.start, p.headers);
  req.keep_alive = p.keep_alive;
  return req;
}

bool ResponseParser::consume(std::string_view data) {
  if (failed_) return false;
  // A partial message starts at the read offset, so off_ covers it.
  const std::size_t keep =
      next_ < ready_.size() ? ready_[next_].start : off_;
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(next_));
  next_ = 0;
  const std::size_t shift = compact_and_append(keep, data);
  for (Parsed& p : ready_) p.start -= shift;
  if (partial_) partial_->start -= shift;
  while (parse_one()) {
  }
  return !failed_;
}

bool ResponseParser::parse_one() {
  if (failed_) return false;
  if (partial_) {
    if (buf_.size() - partial_->start < partial_->len) return false;
    off_ = partial_->start + partial_->len;
    ready_.push_back(*partial_);
    partial_.reset();
    return true;
  }
  const std::string_view msg = std::string_view(buf_).substr(off_);
  const std::size_t head_end = msg.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (msg.size() > kMaxHeaderBytes) fail("header block too large");
    return false;
  }
  const std::string_view head = msg.substr(0, head_end);

  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  if (!status_line.starts_with("HTTP/")) {
    fail("malformed status line");
    return false;
  }
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 + 4 > status_line.size()) {
    fail("malformed status line");
    return false;
  }
  const std::string_view code = status_line.substr(sp1 + 1, 3);
  int status = 0;
  const auto [p, ec] =
      std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc{} || p != code.data() + code.size() || status < 100 ||
      status > 599) {
    fail("malformed status code");
    return false;
  }
  const std::string_view reason =
      sp1 + 4 < status_line.size() ? trim(status_line.substr(sp1 + 5))
                                   : status_line.substr(status_line.size());
  const std::string_view headers = line_end == std::string_view::npos
                                       ? head.substr(head.size())
                                       : head.substr(line_end + 2);
  Framing framing;
  if (!scan_headers(headers, framing)) {
    fail("malformed header line");
    return false;
  }
  std::size_t body = 0;
  if (framing.content_length &&
      (!parse_size(*framing.content_length, body) || body > kMaxBodyBytes)) {
    fail("bad Content-Length");
    return false;
  }
  partial_ = Parsed{off_,
                    head_end + 4 + body,
                    status,
                    slice_of(msg, reason),
                    slice_of(msg, headers),
                    wants_keep_alive(framing, status_line.substr(0, sp1))};
  return true;  // the body may already be buffered
}

std::optional<HttpResponse> ResponseParser::pop() {
  if (next_ == ready_.size()) return std::nullopt;
  const Parsed& p = ready_[next_++];
  HttpResponse resp;
  resp.status = p.status;
  resp.reason = at(buf_, p.start, p.reason);
  resp.headers = at(buf_, p.start, p.headers);
  resp.raw = std::string_view(buf_).substr(p.start, p.len);
  const std::size_t body_off = p.headers.off + p.headers.len + 4;
  resp.body = resp.raw.substr(body_off);
  resp.keep_alive = p.keep_alive;
  return resp;
}

void append_request(std::string& out, std::string_view target,
                    std::string_view host, std::string_view extra_headers) {
  out.append("GET ").append(target).append(" HTTP/1.1\r\nHost: ");
  out.append(host).append("\r\n");
  out.append(extra_headers);
  out.append("\r\n");
}

void append_response_head(std::string& out, int status,
                          std::string_view reason,
                          std::size_t content_length) {
  out.append("HTTP/1.1 ");
  append_number(out, static_cast<std::uint64_t>(status));
  out.append(" ").append(reason).append("\r\nContent-Length: ");
  append_number(out, content_length);
  out.append("\r\n");
}

void append_response(std::string& out, int status, std::string_view reason,
                     std::string_view body, std::string_view extra_headers) {
  append_response_head(out, status, reason, body.size());
  out.append(extra_headers);
  out.append("\r\n");
  out.append(body);
}

std::string format_request(std::string_view target, std::string_view host,
                           std::string_view extra_headers) {
  std::string out;
  out.reserve(64 + target.size() + extra_headers.size());
  append_request(out, target, host, extra_headers);
  return out;
}

std::string format_response(int status, std::string_view reason,
                            std::string_view body,
                            std::string_view extra_headers) {
  std::string out;
  out.reserve(96 + extra_headers.size() + body.size());
  append_response(out, status, reason, body, extra_headers);
  return out;
}

}  // namespace prord::net
