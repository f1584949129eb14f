// Probes on the test binary's global operator new (alloc_probe.cpp
// replaces it): how many allocations ran, and the largest single request
// since a reset. Replacing operator new is binary-wide, so the
// bookkeeping is two relaxed atomics.
#pragma once

#include <cstddef>

namespace gc::test {

/// Allocations made through operator new / new[] so far.
long allocation_count();

/// Largest single operator new / new[] request since the last reset.
std::size_t largest_allocation();
void reset_largest_allocation();

}  // namespace gc::test
