// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the checksum guarding every
// WAL record and every wire frame (paid on both ends of each frame). Chosen
// over CRC32 for its strictly better burst-error detection. Portable
// software slicing-by-8: eight table lookups per eight input bytes, no
// hardware dispatch.

#ifndef SHAREDDB_COMMON_CRC32C_H_
#define SHAREDDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace shareddb {

/// Extends `crc` (state from a previous call, 0 to start) over `data[0, n)`.
/// Returns the running state; finalize with Crc32c() or by XOR below.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// One-shot CRC32C of a buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace shareddb

#endif  // SHAREDDB_COMMON_CRC32C_H_
