// Core trace data model.
//
// A trace is a time-ordered sequence of `LogRecord`s — one HTTP request
// each — exactly the information a Common Log Format server log carries.
// Both parsed real logs and the synthetic generators produce this type, so
// every policy and mining component downstream is trace-source agnostic.
#pragma once

#include <cstdint>
#include <string>

#include "simcore/sim_time.h"

namespace prord::trace {

/// Dense file identifier assigned by FileTable::intern.
using FileId = std::uint32_t;
inline constexpr FileId kInvalidFile = 0xFFFFFFFFu;
/// Largest id a FileId-indexed table (cache index, popularity tracker)
/// grows to hold. FileTable ids are dense from 0, so real traces sit far
/// below it; larger ids (kInvalidFile among them) are never stored, which
/// bounds what a stray or corrupt id can make such a table allocate.
inline constexpr FileId kMaxDenseFileId = (1u << 24) - 1;

/// One request line from a web-server access log.
struct LogRecord {
  sim::SimTime time = 0;     ///< microseconds since trace start
  std::uint32_t client = 0;  ///< dense client (host) id
  std::string url;           ///< request path, e.g. "/grad/admissions.html"
  std::uint32_t bytes = 0;   ///< response body size
  std::uint16_t status = 200;

  /// 2xx only: redirects/not-modified carry no body and are not served
  /// from the file set, so the simulator drops them by default.
  bool ok() const noexcept { return status >= 200 && status < 300; }
};

}  // namespace prord::trace
