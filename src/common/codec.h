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

/// Throws the CodecError for a read of `need` bytes with only `have` left.
/// Out of line and cold, so the bounds check in every BufReader read inlines
/// to a compare and a never-taken branch: building the message is the only
/// costly part of a failed read.
[[gnu::cold, noreturn]] void throw_truncated(uint64_t need, size_t have);
/// Throws CodecError(what); cold and out of line for the same reason.
[[gnu::cold, noreturn]] void throw_codec_error(const char* what);

/// Reads primitive values back out of a byte buffer. Throws CodecError on
/// truncation — callers must treat network bytes as untrusted.
class BufReader {
 public:
  explicit BufReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  uint16_t u16() { return static_cast<uint16_t>(fixed(2)); }
  uint32_t u32() { return static_cast<uint32_t>(fixed(4)); }
  uint64_t u64() { return fixed(8); }

  uint64_t varint() {
    uint64_t result = 0;
    for (int shift = 0;; shift += 7) {
      const uint8_t byte = u8();
      if (shift >= 64) throw_codec_error("varint too long");
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
    }
  }

  int64_t svarint() {
    uint64_t z = varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  bool boolean() { return u8() != 0; }

  std::vector<uint8_t> bytes() {
    const auto view = take(varint());
    return {view.begin(), view.end()};
  }

  std::string str() { return std::string(str_view()); }

  /// A length-prefixed string as a view into the buffer: no copy, valid as
  /// long as the buffer is.
  std::string_view str_view() {
    const auto view = take(varint());
    return {reinterpret_cast<const char*>(view.data()), view.size()};
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

 private:
  void require(uint64_t count) const {
    if (count > data_.size() - pos_) throw_truncated(count, data_.size() - pos_);
  }

  /// The next `count` bytes, consumed.
  std::span<const uint8_t> take(uint64_t count) {
    require(count);
    const auto view = data_.subspan(pos_, static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count);
    return view;
  }

  /// A `width`-byte little-endian integer, after one bounds check.
  uint64_t fixed(size_t width) {
    require(width);
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
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
