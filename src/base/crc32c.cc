#include "base/crc32c.h"

#include <array>

namespace dominodb::crc32c {

namespace {

// CRC-32C polynomial (reflected).
constexpr uint32_t kPoly = 0x82f63b78u;

// Slicing-by-8: t[k][b] is the CRC of byte b followed by k zero bytes, so
// eight input bytes fold in with eight independent lookups. Log recovery
// checksums every record, so this sets its scan speed.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, std::string_view data) {
  const Tables& t = GetTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~init_crc;
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= p[0] | (p[1] << 8) | (p[2] << 16) | (uint32_t{p[3]} << 24);
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][crc >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

uint32_t Mask(uint32_t crc) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t Unmask(uint32_t masked) {
  constexpr uint32_t kMaskDelta = 0xa282ead8u;
  uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace dominodb::crc32c
