// CRC32C: the published check value, the empty buffer, split-point
// invariance of Crc32cExtend, and a cross-check of the slicing-by-8 code
// against a bytewise reference over random lengths and start offsets (WAL
// files and wire frames written by either must verify with the other).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"

namespace shareddb {
namespace {

/// Bit-at-a-time CRC32C straight from the polynomial: shares no table or
/// code path with the implementation under test.
uint32_t ReferenceCrc32c(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Uniform(0, 255));
  return out;
}

TEST(Crc32c, CheckValue) {
  // RFC 3720 (iSCSI) B.4 check value for CRC32C.
  const char* kInput = "123456789";
  EXPECT_EQ(Crc32c(kInput, std::strlen(kInput)), 0xE3069283u);
}

TEST(Crc32c, EmptyBuffer) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0xE3069283u, nullptr, 0), 0xE3069283u);
}

TEST(Crc32c, ExtendIsSplitInvariant) {
  Rng rng(0xC3C32C);
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<uint8_t> data =
        RandomBytes(&rng, static_cast<size_t>(rng.Uniform(0, 2048)));
    const uint32_t whole = Crc32c(data.data(), data.size());
    const size_t split = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(data.size())));
    const uint32_t head = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32cExtend(head, data.data() + split, data.size() - split),
              whole)
        << "length " << data.size() << ", split " << split;
  }
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryAlignment) {
  Rng rng(0x5111CE8);
  const std::vector<uint8_t> buf = RandomBytes(&rng, 4096 + 8);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t offset = static_cast<size_t>(rng.Uniform(0, 7));
    const size_t len = static_cast<size_t>(rng.Uniform(0, 4096));
    const uint8_t* p = buf.data() + offset;
    const uint32_t seed = rng.Bernoulli(0.5)
                              ? 0u
                              : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32cExtend(seed, p, len), ReferenceCrc32c(seed, p, len))
        << "offset " << offset << ", length " << len << ", seed " << seed;
  }
}

}  // namespace
}  // namespace shareddb
