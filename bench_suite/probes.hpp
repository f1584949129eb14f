// Machine facts the suite reports next to its numbers: core count,
// last-level cache size, peak resident memory, and the STREAM-style triad
// bandwidth every kernel row is stated against.
#pragma once

#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gc::bench {

/// Online CPUs.
int nproc();

/// Size of the highest-level CPU cache of cpu0 from sysfs, in bytes; 0
/// when sysfs does not say.
i64 llc_bytes();

/// Peak resident set of this process so far (getrusage ru_maxrss), in MB.
double peak_rss_mb();

struct TriadResult {
  double gbps = 0;          ///< best of the timed repeats
  i64 array_bytes = 0;      ///< bytes per array (three arrays)
  i64 wanted_bytes = 0;     ///< 4x the LLC, before the memory cap
};

/// a[i] = b[i] + s*c[i] over three double arrays on `pool`, each array
/// at least 4x the LLC unless that exceeds a cap that keeps the probe's
/// footprint bounded on shared hosts (both sizes are returned). Counts 3
/// x 8 bytes per element (no write-allocate traffic).
TriadResult triad_probe(ThreadPool& pool);

}  // namespace gc::bench
