#include "common/codec.h"

#include <array>

namespace rcommit {

namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so one step can fold
/// eight input bytes with eight independent lookups.
constexpr Crc32cTables make_crc32c_tables() {
  constexpr uint32_t kPoly = 0x82f63b78;  // reflected Castagnoli polynomial
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

/// Little-endian load that compilers fold into one 32-bit read.
uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

void throw_truncated(uint64_t need, size_t have) {
  throw CodecError("truncated buffer: need " + std::to_string(need) + " bytes, have " +
                   std::to_string(have));
}

void throw_codec_error(const char* what) { throw CodecError(what); }

uint32_t crc32c(std::span<const uint8_t> data) {
  const auto& t = kCrc32cTables;
  uint32_t crc = 0xffffffff;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = load_le32(p) ^ crc;
    const uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffff;
}

}  // namespace rcommit
