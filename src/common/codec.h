// Binary wire codec used by the transport substrate.
//
// A tiny, dependency-free, explicitly little-endian format:
//   - fixed-width integers (u8/u16/u32/u64, signed via zigzag varint)
//   - LEB128 varints for lengths
//   - length-prefixed byte strings
// Every protocol payload serializes through this codec before crossing the
// in-memory network, so the threaded runtime exercises real
// serialize/deserialize paths rather than passing pointers around.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace rcommit {

/// Error thrown by BufReader on truncated or malformed input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to a growing byte buffer.
class BufWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }

  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v));
    u8(static_cast<uint8_t>(v >> 8));
  }

  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v));
    u16(static_cast<uint16_t>(v >> 16));
  }

  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  }

  /// Unsigned LEB128 varint.
  void varint(uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<uint8_t>(v));
  }

  /// Signed integer via zigzag + varint.
  void svarint(int64_t v) {
    varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed raw bytes.
  void bytes(std::span<const uint8_t> data) {
    varint(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Overwrites the 4 bytes at `offset` (already written) with `v`, little-
  /// endian — for a length or checksum known only after what follows it.
  void patch_u32(size_t offset, uint32_t v) {
    RCOMMIT_CHECK(offset + 4 <= buf_.size());
    for (size_t i = 0; i < 4; ++i) {
      buf_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  /// Empties the buffer but keeps its capacity, so a writer reused across
  /// messages stops allocating once it has grown to the largest one.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reads primitive values back out of a byte buffer. Throws CodecError on
/// truncation — callers must treat network bytes as untrusted.
class BufReader {
 public:
  explicit BufReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  uint16_t u16() {
    uint16_t lo = u8();
    uint16_t hi = u8();
    return static_cast<uint16_t>(lo | (hi << 8));
  }

  uint32_t u32() {
    uint32_t lo = u16();
    uint32_t hi = u16();
    return lo | (hi << 16);
  }

  uint64_t u64() {
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
  }

  uint64_t varint() {
    uint64_t result = 0;
    int shift = 0;
    for (;;) {
      uint8_t byte = u8();
      if (shift >= 64) throw CodecError("varint too long");
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return result;
  }

  int64_t svarint() {
    uint64_t z = varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  bool boolean() { return u8() != 0; }

  std::vector<uint8_t> bytes() {
    uint64_t len = varint();
    require(len);
    std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                             data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  std::string str() {
    uint64_t len = varint();
    require(len);
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, len);
    pos_ += len;
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(uint64_t count) const {
    if (pos_ + count > data_.size()) {
      throw CodecError("truncated buffer: need " + std::to_string(count) +
                       " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// CRC-32C (Castagnoli), table-driven slicing-by-8: eight bytes per step
/// through eight 256-entry tables, portable C++ with no ISA intrinsics. Used
/// by the write-ahead log to detect torn or corrupted records during
/// recovery.
uint32_t crc32c(std::span<const uint8_t> data);

}  // namespace rcommit
