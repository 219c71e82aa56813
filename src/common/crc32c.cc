#include "common/crc32c.h"

#include <cstring>

namespace shareddb {

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial, built at
// compile time. t[0] is the classic byte-at-a-time table; t[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so one step folds
// eight input bytes with eight independent lookups.
struct Crc32cTables {
  uint32_t t[8][256] = {};
  constexpr Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Crc32cTables kTables;

/// Eight input bytes as a little-endian integer. memcpy keeps unaligned
/// input defined; compilers lower it to one load.
inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const auto& t = kTables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t v = LoadLE64(p) ^ c;
    const auto lo = static_cast<uint32_t>(v);
    const auto hi = static_cast<uint32_t>(v >> 32);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace shareddb
