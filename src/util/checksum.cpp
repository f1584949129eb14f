#include "util/checksum.hpp"

#include <array>

namespace gc {

namespace {
/// tables[0] is the classic byte-at-a-time table of the reflected
/// polynomial; tables[k][b] is the CRC of byte b followed by k zero
/// bytes, so sixteen lookups advance the CRC over sixteen input bytes.
using Tables = std::array<std::array<u32, 256>, 16>;

Tables build_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

u32 crc32(const void* data, std::size_t n, u32 seed) {
  static const Tables t = build_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  // Sixteen bytes per step, each indexing its own table. The tables are
  // indexed by input bytes, never by words loaded from memory, so the
  // result does not depend on the host byte order.
  for (; n >= 16; n -= 16, p += 16) {
    c = t[15][(c ^ p[0]) & 0xFFu] ^ t[14][((c >> 8) ^ p[1]) & 0xFFu] ^
        t[13][((c >> 16) ^ p[2]) & 0xFFu] ^ t[12][(c >> 24) ^ p[3]] ^
        t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
        t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
        t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace gc
