// Unit tests for the common toolkit: codec, CRC, RNG, stats, checks.
#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace rcommit {
namespace {

// --- check macros ------------------------------------------------------------

TEST(Check, PassesWhenTrue) { EXPECT_NO_THROW(RCOMMIT_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsCheckFailure) {
  EXPECT_THROW(RCOMMIT_CHECK(false), CheckFailure);
}

TEST(Check, MessageIncludesExpressionAndDetail) {
  try {
    RCOMMIT_CHECK_MSG(2 < 1, "detail " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("detail 42"), std::string::npos);
  }
}

// --- types -------------------------------------------------------------------

TEST(Types, DecisionBitRoundTrip) {
  EXPECT_EQ(decision_from_bit(0), Decision::kAbort);
  EXPECT_EQ(decision_from_bit(1), Decision::kCommit);
  EXPECT_EQ(bit_from_decision(Decision::kAbort), 0);
  EXPECT_EQ(bit_from_decision(Decision::kCommit), 1);
}

TEST(Types, DecisionToString) {
  EXPECT_STREQ(to_string(Decision::kCommit), "COMMIT");
  EXPECT_STREQ(to_string(Decision::kAbort), "ABORT");
}

TEST(Types, MajorityCorrectBoundary) {
  SystemParams params{.n = 5, .t = 2, .k = 1};
  EXPECT_TRUE(params.majority_correct());
  EXPECT_EQ(params.quorum(), 3);
  params.t = 3;  // n <= 2t: Theorem 14 territory
  EXPECT_FALSE(params.majority_correct());
  SystemParams even{.n = 4, .t = 2, .k = 1};
  EXPECT_FALSE(even.majority_correct());
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  RandomTape a(42);
  RandomTape b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.next_real(), b.next_real());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  RandomTape a(1);
  RandomTape b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_real() != b.next_real()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, RealsInUnitInterval) {
  RandomTape tape(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = tape.next_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, FlipIsBinaryAndRoughlyFair) {
  RandomTape tape(11);
  int ones = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    const int b = tape.flip();
    ASSERT_TRUE(b == 0 || b == 1);
    ones += b;
  }
  EXPECT_GT(ones, kTrials * 45 / 100);
  EXPECT_LT(ones, kTrials * 55 / 100);
}

TEST(Rng, FlipBitsLengthAndValues) {
  RandomTape tape(3);
  const auto bits = tape.flip_bits(64);
  ASSERT_EQ(bits.size(), 64u);
  for (auto b : bits) EXPECT_TRUE(b == 0 || b == 1);
}

TEST(Rng, FlipBitsZeroAndNegative) {
  RandomTape tape(3);
  EXPECT_TRUE(tape.flip_bits(0).empty());
  EXPECT_THROW(tape.flip_bits(-1), CheckFailure);
}

TEST(Rng, NextBelowRespectsBound) {
  RandomTape tape(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(tape.next_below(17), 17u);
  }
  EXPECT_EQ(tape.next_below(1), 0u);
  EXPECT_THROW(tape.next_below(0), CheckFailure);
}

TEST(Rng, DrawCountTracksConsumption) {
  RandomTape tape(9);
  EXPECT_EQ(tape.draws(), 0);
  tape.next_real();
  tape.flip();
  tape.next_below(10);
  EXPECT_EQ(tape.draws(), 3);
}

TEST(Rng, DeriveSeedsDeterministicAndDistinct) {
  const auto a = derive_seeds(99, 8);
  const auto b = derive_seeds(99, 8);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
}

// --- codec -------------------------------------------------------------------

TEST(Codec, FixedWidthRoundTrip) {
  BufWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VarintRoundTripEdgeValues) {
  const uint64_t values[] = {0,       1,          127,        128,
                             16383,   16384,      (1ULL << 32),
                             std::numeric_limits<uint64_t>::max()};
  BufWriter w;
  for (auto v : values) w.varint(v);
  BufReader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
}

TEST(Codec, SignedVarintRoundTrip) {
  const int64_t values[] = {0, -1, 1, -64, 63, -65, 64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  BufWriter w;
  for (auto v : values) w.svarint(v);
  BufReader r(w.data());
  for (auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(Codec, StringAndBytesRoundTrip) {
  BufWriter w;
  w.str("hello, commit");
  w.str("");
  const std::vector<uint8_t> blob = {0, 1, 2, 255, 128};
  w.bytes(blob);
  w.boolean(true);
  w.boolean(false);
  BufReader r(w.data());
  EXPECT_EQ(r.str(), "hello, commit");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
}

TEST(Codec, TruncatedBufferThrows) {
  BufWriter w;
  w.u32(12345);
  auto data = w.data();
  data.pop_back();
  BufReader r(data);
  EXPECT_THROW(r.u32(), CodecError);
}

TEST(Codec, TruncatedStringThrows) {
  BufWriter w;
  w.varint(100);  // claims 100 bytes follow
  w.u8('x');
  BufReader r(w.data());
  EXPECT_THROW(r.str(), CodecError);
}

/// The message of the CodecError `read` throws on `data`.
template <typename Read>
std::string codec_error_of(const std::vector<uint8_t>& data, Read read) {
  BufReader r(data);
  try {
    read(r);
  } catch (const CodecError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Codec, TruncatedFixedWidthReadsNameWhatWasMissing) {
  // One bounds check per read, taken before anything is consumed: the
  // message names the whole width and what was left.
  EXPECT_EQ(codec_error_of({}, [](BufReader& r) { r.u8(); }),
            "truncated buffer: need 1 bytes, have 0");
  EXPECT_EQ(codec_error_of({0x01}, [](BufReader& r) { r.u16(); }),
            "truncated buffer: need 2 bytes, have 1");
  EXPECT_EQ(codec_error_of({1, 2, 3}, [](BufReader& r) { r.u32(); }),
            "truncated buffer: need 4 bytes, have 3");
  EXPECT_EQ(codec_error_of({1, 2, 3, 4, 5, 6, 7}, [](BufReader& r) { r.u64(); }),
            "truncated buffer: need 8 bytes, have 7");
  // A failed read leaves the position alone: the bytes are still there.
  const std::vector<uint8_t> three = {0xaa, 0xbb, 0xcc};
  BufReader r(three);
  EXPECT_THROW(r.u32(), CodecError);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.u16(), 0xbbaa);
}

TEST(Codec, TruncatedBytesAndStringsNameTheirLength) {
  BufWriter w;
  w.varint(5);  // claims 5 bytes follow
  w.u8('a');
  w.u8('b');
  EXPECT_EQ(codec_error_of(w.data(), [](BufReader& r) { r.bytes(); }),
            "truncated buffer: need 5 bytes, have 2");
  EXPECT_EQ(codec_error_of(w.data(), [](BufReader& r) { r.str(); }),
            "truncated buffer: need 5 bytes, have 2");
  EXPECT_EQ(codec_error_of(w.data(), [](BufReader& r) { r.str_view(); }),
            "truncated buffer: need 5 bytes, have 2");
  // A length near 2^64 must not wrap the bounds check around.
  BufWriter huge;
  huge.varint(~uint64_t{0});
  EXPECT_EQ(codec_error_of(huge.data(), [](BufReader& r) { r.bytes(); }),
            "truncated buffer: need 18446744073709551615 bytes, have 0");
  // A varint cut short is a truncated u8.
  EXPECT_EQ(codec_error_of({0x80, 0x80}, [](BufReader& r) { r.varint(); }),
            "truncated buffer: need 1 bytes, have 0");
}

TEST(Codec, StrViewPointsIntoTheBuffer) {
  BufWriter w;
  w.str("key:42");
  w.str("");
  BufReader r(w.data());
  const std::string_view view = r.str_view();
  EXPECT_EQ(view, "key:42");
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view.data()), w.data().data() + 1);
  EXPECT_EQ(r.str_view(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, PatchU32OverwritesInPlaceAndClearKeepsCapacity) {
  BufWriter w;
  w.u8(0xaa);
  w.u32(0);
  w.str("body");
  w.patch_u32(1, 0x04030201u);
  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 0xaa);
  EXPECT_EQ(r.u32(), 0x04030201u);
  EXPECT_EQ(r.str(), "body");
  EXPECT_THROW(w.patch_u32(w.size() - 3, 0), CheckFailure);

  const size_t capacity = w.data().capacity();
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.data().capacity(), capacity);
}

TEST(Codec, MalformedVarintThrows) {
  // 11 continuation bytes exceed the 64-bit budget.
  std::vector<uint8_t> bad(11, 0x80);
  BufReader r(bad);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Codec, Crc32cKnownVector) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  // And "123456789".
  const std::string digits = "123456789";
  std::vector<uint8_t> d(digits.begin(), digits.end());
  EXPECT_EQ(crc32c(d), 0xe3069283u);
}

/// The definition of CRC-32C, one bit at a time: the reference the
/// table-driven implementation must agree with.
uint32_t crc32c_bitwise(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffff;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78 : crc >> 1;
    }
  }
  return crc ^ 0xffffffff;
}

TEST(Codec, Crc32cMatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-257 cover the empty input, tails of every size below the
  // eight-byte step, and many whole steps; offsets 0-7 start the input at
  // every alignment relative to those steps.
  RandomTape rng(42);
  std::vector<uint8_t> buf(257 + 7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.next_below(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const std::span<const uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32c(data), crc32c_bitwise(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Codec, CrcDetectsSingleBitFlip) {
  std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  const uint32_t before = crc32c(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32c(data), before);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.variance(), 20.0 / 3.0, 1e-12);
}

TEST(Stats, RunningStatEmpty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, PercentileValidatesRange) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(1.5), CheckFailure);
}

TEST(Stats, HistogramBucketsAndOverflow) {
  Histogram h(5);
  h.add(0);
  h.add(1.4);
  h.add(1.9);
  h.add(4);
  h.add(17);  // overflow -> top bucket
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 0);
  EXPECT_EQ(h.bucket(4), 2);
}

TEST(Stats, HistogramPrintSkipsEmptyBuckets) {
  Histogram h(4);
  h.add(0);
  h.add(3);
  std::ostringstream os;
  h.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("   0 "), std::string::npos);
  EXPECT_NE(text.find("   3+"), std::string::npos);
  EXPECT_EQ(text.find("   1 "), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
}

TEST(Stats, HistogramValidates) {
  EXPECT_THROW(Histogram h(0), CheckFailure);
  Histogram h(3);
  EXPECT_THROW(h.add(-1.0), CheckFailure);
  EXPECT_THROW((void)h.bucket(3), CheckFailure);
}

TEST(Stats, TableRejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), CheckFailure);
}

TEST(Stats, TablePrintsAllCells) {
  Table t({"col1", "col2"});
  t.row({"x", "y"}).row({"long-value", "z"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("long-value"), std::string::npos);
  EXPECT_NE(out.find("z"), std::string::npos);
}

}  // namespace
}  // namespace rcommit
