// Heap-allocation counting for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new of this binary only
// (the library is untouched). Counting is off by default, so the timed
// runs pay one relaxed load of a flag that is never written while they
// measure. The traced run switches it on and reads the counter at span
// boundaries: with one request in flight, every allocation between two
// reads belongs to the layer call between them, on whichever thread it
// happened.

#ifndef SODA_E2EBENCH_ALLOC_COUNTER_H_
#define SODA_E2EBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace e2ebench {

/// Starts or stops counting allocations.
void SetAllocCounting(bool on);

/// Allocations counted so far (all threads).
uint64_t AllocCount();

}  // namespace e2ebench

#endif  // SODA_E2EBENCH_ALLOC_COUNTER_H_
