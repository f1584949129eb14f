// CRC32 (the zlib/IEEE 802.3 polynomial) for integrity checking of
// checkpoint files and message envelopes. Slicing-by-16: sixteen 256-entry
// tables (16 KiB, built once on first use) let one step fold 16 input
// bytes with 16 independent lookups, where byte-at-a-time folding is one
// serial chain of lookups per byte. On an 11.35 MB buffer (one
// scenario-service flow checkpoint) that is 4.3-5.1 ms, 2.2-2.7 GB/s,
// against 37-39 ms, 0.29-0.31 GB/s, byte-at-a-time (shared 4-vCPU Xeon,
// GCC 12 -O2). The value is the byte-at-a-time one for every input and
// seed, so files and envelopes written before stay valid; test_util pins
// it against a bit-serial reference and against recorded values.
#pragma once

#include <cstddef>

#include "util/common.hpp"

namespace gc {

/// CRC32 of `n` bytes starting at `data`. Pass a previous result as
/// `seed` to checksum a stream in chunks: crc32(b, nb, crc32(a, na)).
u32 crc32(const void* data, std::size_t n, u32 seed = 0);

}  // namespace gc
