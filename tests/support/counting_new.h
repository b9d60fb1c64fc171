// Counting global allocation functions for the allocation-budget tests.
//
// Linking counting_new.cpp into a test binary replaces that binary's global
// operator new/delete: every heap allocation is counted (process-wide and
// per thread, with its size) and then served by malloc. Keep such tests in
// binaries of their own, so no other test's allocations are charged.
#pragma once

#include <cstdint>

namespace prord::test_support {

/// Allocations made so far by every thread of the process.
std::uint64_t process_allocs() noexcept;
/// Bytes requested by those allocations.
std::uint64_t process_alloc_bytes() noexcept;
/// Allocations made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;

}  // namespace prord::test_support
