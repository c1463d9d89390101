// Tests for the database substrate: WAL framing and recovery, lock manager,
// KV two-phase lifecycle, crash recovery with in-doubt transactions, and
// end-to-end distributed transactions over the threaded commit protocol.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string_view>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/kv.h"
#include "db/locks.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "db/wal.h"

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("rcommit_db_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- WAL -------------------------------------------------------------------------

/// The bytes of one well-framed record, as WriteAheadLog::append must write
/// it, built independently of the log: body first, then its header.
std::vector<uint8_t> frame_bytes(uint8_t type, TxnId txn, std::string_view key = "",
                                 std::string_view value = "") {
  BufWriter body;
  body.u8(type);
  body.svarint(txn);
  body.str(key);
  body.str(value);
  BufWriter frame;
  frame.u32(static_cast<uint32_t>(body.size()));
  frame.u32(crc32c(std::span<const uint8_t>(body.data())));
  std::vector<uint8_t> bytes = frame.take();
  bytes.insert(bytes.end(), body.data().begin(), body.data().end());
  return bytes;
}

/// The concatenated frames of `records`, in order.
std::vector<uint8_t> frames_of(const std::vector<WalRecord>& records) {
  std::vector<uint8_t> bytes;
  for (const auto& r : records) {
    const auto frame = frame_bytes(static_cast<uint8_t>(r.type), r.txn_id, r.key, r.value);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

std::vector<uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}


TEST(Wal, AppendReplayRoundTrip) {
  TempDir dir;
  const auto wal_path = dir.path() / "test.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "alpha", "1"});
    wal.append({WalRecordType::kPrepared, 1, "", ""});
    wal.append({WalRecordType::kCommit, 1, "", ""});
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[1].key, "alpha");
  EXPECT_EQ(records[1].value, "1");
  EXPECT_EQ(records[3].type, WalRecordType::kCommit);
}

TEST(Wal, ImageCountsFramesByTypeAndDecodesInPlace) {
  // The header walk counts every framed record by its type byte, a
  // CRC-corrupt one included (the counts only size indexes); decode stops
  // at the corrupt frame and hands out views into the image.
  TempDir dir;
  const auto wal_path = dir.path() / "wal.log";
  std::vector<uint8_t> bytes = frames_of({{WalRecordType::kBegin, 1, "", ""},
                                          {WalRecordType::kWrite, 1, "k", "v"},
                                          {WalRecordType::kWrite, 1, "k2", "v2"},
                                          {WalRecordType::kPrepared, 1, "", "0"}});
  const size_t intact = bytes.size();
  std::vector<uint8_t> corrupt =
      frame_bytes(static_cast<uint8_t>(WalRecordType::kCommit), 1);
  corrupt.back() ^= 0x01;
  bytes.insert(bytes.end(), corrupt.begin(), corrupt.end());
  {
    std::ofstream out(wal_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const WalImage image(wal_path);
  EXPECT_EQ(image.frames(WalRecordType::kBegin), 1);
  EXPECT_EQ(image.frames(WalRecordType::kWrite), 2);
  EXPECT_EQ(image.frames(WalRecordType::kPrepared), 1);
  EXPECT_EQ(image.frames(WalRecordType::kCommit), 1);
  EXPECT_EQ(image.frames(WalRecordType::kSnapshot), 0);
  std::vector<std::pair<std::string, std::string>> writes;
  EXPECT_EQ(image.decode([&](const WalRecordView& record) {
              if (record.type == WalRecordType::kWrite) {
                writes.emplace_back(record.key, record.value);
              }
            }),
            intact);
  EXPECT_EQ(writes, (std::vector<std::pair<std::string, std::string>>{{"k", "v"}, {"k2", "v2"}}));
  EXPECT_EQ(WalImage(dir.path() / "missing.log").decode([](const WalRecordView&) {}), 0u);
}

TEST(Wal, ReplayEmptyLog) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "empty.wal");
  EXPECT_TRUE(wal.replay().empty());
}

TEST(Wal, TornFinalRecordIsDropped) {
  TempDir dir;
  const auto wal_path = dir.path() / "torn.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "k", "v"});
  }
  // Tear off the last 3 bytes, as a crash mid-append would.
  const auto size = fs::file_size(wal_path);
  fs::resize_file(wal_path, size - 3);
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
}

TEST(Wal, CorruptRecordStopsReplay) {
  TempDir dir;
  const auto wal_path = dir.path() / "corrupt.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "key", "value"});
    wal.append({WalRecordType::kCommit, 1, "", ""});
  }
  // Flip one byte inside the second record's body.
  std::fstream file(wal_path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(20);
  char byte;
  file.seekg(20);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(20);
  file.write(&byte, 1);
  file.close();

  WriteAheadLog wal(wal_path);
  // Replay keeps everything before the corruption; the exact count depends
  // on which frame byte 20 lands in, but it must be less than 3 and the
  // surviving prefix must be intact.
  const auto records = wal.replay();
  EXPECT_LT(records.size(), 3u);
  if (!records.empty()) {
    EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  }
}

// --- WAL group commit ------------------------------------------------------------

/// Records every on_append consult and executes a scripted disposition for
/// the Nth physical write (kClean for all others).
class CountingHook : public WalFaultHook {
 public:
  WalAppendFault on_append(const std::filesystem::path&,
                           std::span<const uint8_t> frame) override {
    frame_sizes.push_back(frame.size());
    WalAppendFault fault;
    if (static_cast<int64_t>(frame_sizes.size()) - 1 == fault_at) {
      fault = scripted;
      fault.site = fault_at;
    }
    return fault;
  }

  std::vector<size_t> frame_sizes;
  int64_t fault_at = -1;  ///< 0-based physical-write index to fire at
  WalAppendFault scripted;
};

TEST(WalGroup, CoalescesAppendsIntoOneFlush) {
  TempDir dir;
  const auto wal_path = dir.path() / "group.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "k", "v"});
    wal.append({WalRecordType::kPrepared, 1, "", ""});
    EXPECT_EQ(wal.stats().flushes, 0);  // still buffered
    wal.commit_group();
    EXPECT_EQ(wal.stats().records_appended, 3);
    EXPECT_EQ(wal.stats().flushes, 1);
    EXPECT_DOUBLE_EQ(wal.stats().records_per_flush(), 3.0);
    wal.end_group();
    EXPECT_EQ(wal.stats().flushes, 1);  // empty pending: end_group is a no-op
  }
  WriteAheadLog wal(wal_path);
  ASSERT_EQ(wal.replay().size(), 3u);
}

TEST(WalGroup, AutoFlushBoundaryIsDeterministic) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "auto.wal");
  WalGroupLimits limits;
  limits.max_records = 2;
  wal.begin_group(limits);
  for (int i = 0; i < 5; ++i) {
    wal.append({WalRecordType::kWrite, 1, "k" + std::to_string(i), "v"});
  }
  EXPECT_EQ(wal.stats().flushes, 2);  // auto-flushed after records 2 and 4
  wal.end_group();
  EXPECT_EQ(wal.stats().flushes, 3);  // the trailing single record
  ASSERT_EQ(wal.replay().size(), 5u);
}

TEST(WalGroup, HookConsultedOncePerGroupWithWholeGroupFrame) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "hook.wal");
  CountingHook hook;
  wal.set_fault_hook(&hook);
  wal.append({WalRecordType::kBegin, 1, "", ""});  // ungrouped: one consult
  ASSERT_EQ(hook.frame_sizes.size(), 1u);
  const size_t single = hook.frame_sizes[0];

  wal.begin_group();
  wal.append({WalRecordType::kBegin, 2, "", ""});
  wal.append({WalRecordType::kBegin, 3, "", ""});
  ASSERT_EQ(hook.frame_sizes.size(), 1u);  // nothing consulted while buffered
  wal.commit_group();
  ASSERT_EQ(hook.frame_sizes.size(), 2u);
  // The hook saw the concatenation of both frames, not two separate frames.
  EXPECT_EQ(hook.frame_sizes[1], 2 * single);
}

TEST(WalGroup, CrashBeforeLosesWholeBufferedGroup) {
  TempDir dir;
  const auto wal_path = dir.path() / "crash.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.commit_group();  // group 1 reaches the file

    CountingHook hook;
    hook.fault_at = 0;  // first physical write this hook sees
    hook.scripted.kind = WalAppendFault::Kind::kCrashBefore;
    wal.set_fault_hook(&hook);
    wal.append({WalRecordType::kWrite, 2, "k", "v"});
    wal.append({WalRecordType::kPrepared, 2, "", ""});
    EXPECT_THROW(wal.commit_group(), CrashInjected);
    // The crashed group's bytes are gone: a later flush must not resurrect
    // them (that would model a dead process writing).
    wal.set_fault_hook(nullptr);
    wal.commit_group();
    EXPECT_EQ(wal.stats().flushes, 1);  // only group 1 ever hit the file
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn_id, 1);
}

TEST(WalGroup, TornGroupTailIsTruncatedOnReopen) {
  TempDir dir;
  const auto wal_path = dir.path() / "torn_group.wal";
  size_t single_frame = 0;
  {
    WriteAheadLog wal(wal_path);
    CountingHook probe;
    wal.set_fault_hook(&probe);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    single_frame = probe.frame_sizes[0];

    CountingHook hook;
    hook.fault_at = 0;
    hook.scripted.kind = WalAppendFault::Kind::kTorn;
    // Keep the first frame of the group plus half of the second: replay must
    // recover exactly one record and the ctor must truncate the ragged tail.
    hook.scripted.keep_bytes = single_frame + single_frame / 2;
    wal.set_fault_hook(&hook);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 2, "", ""});
    wal.append({WalRecordType::kBegin, 3, "", ""});
    EXPECT_THROW(wal.commit_group(), CrashInjected);
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 2u);  // txn 1, then the intact prefix of the group
  EXPECT_EQ(records[1].txn_id, 2);
  // The ctor truncated the torn half-frame, so appends land on a clean tail.
  wal.append({WalRecordType::kBegin, 4, "", ""});
  ASSERT_EQ(wal.replay().size(), 3u);
  EXPECT_EQ(wal.replay()[2].txn_id, 4);
}

TEST(WalGroup, DestructionDropsPendingGroupUnflushed) {
  TempDir dir;
  const auto wal_path = dir.path() / "drop.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    // No commit_group: the owner "crashed" with the group buffered.
  }
  WriteAheadLog wal(wal_path);
  EXPECT_TRUE(wal.replay().empty());
}

// --- WAL bytes: the in-place encoder and its reused buffer ------------------------

/// Every record type, negative and 2^40-sized ids, the int64 extremes, empty
/// keys and values, and a 130-byte key whose length varint takes 2 bytes.
std::vector<WalRecord> byte_identity_records() {
  return {
      {WalRecordType::kBegin, 1, "", ""},
      {WalRecordType::kWrite, -1, "", ""},
      {WalRecordType::kWrite, int64_t{1} << 40, std::string(130, 'k'), "v"},
      {WalRecordType::kWrite, -(int64_t{1} << 40), "k", std::string(300, 'x')},
      {WalRecordType::kPrepared, 7, "", encode_participant_list({0, 2, 5})},
      {WalRecordType::kCommit, std::numeric_limits<int64_t>::max(), "", ""},
      {WalRecordType::kAbort, std::numeric_limits<int64_t>::min(), "", ""},
      {WalRecordType::kSnapshot, 0, "key", ""},
      {WalRecordType::kBatchSeal, 42, "", encode_txn_list({42, 43})},
  };
}

TEST(WalBytes, InPlaceEncoderWritesIndependentlyBuiltFrames) {
  // The list twice: the second pass runs on the buffer the first one grew.
  const auto once = byte_identity_records();
  std::vector<WalRecord> records = once;
  records.insert(records.end(), once.begin(), once.end());
  const auto expected = frames_of(records);
  // Header 8, type 1, zigzag varint of 2^40 6: the key length 130 is the
  // 2-byte varint 0x82 0x01 at offset 15.
  const auto long_key = frames_of({once[2]});
  ASSERT_EQ(long_key[15], 0x82);
  ASSERT_EQ(long_key[16], 0x01);

  enum class Mode { kUngrouped, kOneGroup, kAutoFlush };
  for (const Mode mode : {Mode::kUngrouped, Mode::kOneGroup, Mode::kAutoFlush}) {
    SCOPED_TRACE(static_cast<int>(mode));
    TempDir dir;
    const auto wal_path = dir.path() / "bytes.wal";
    {
      WriteAheadLog wal(wal_path);
      if (mode == Mode::kOneGroup) wal.begin_group(kSingleFlushGroup);
      // 4 records per group: flushes land after records 4, 8, 12 and 16
      // of 18, so groups straddle the two passes.
      if (mode == Mode::kAutoFlush) wal.begin_group({.max_records = 4});
      for (const auto& record : records) wal.append(record);
      if (wal.group_open()) wal.end_group();
      const int64_t expected_flushes =
          mode == Mode::kUngrouped ? 18 : (mode == Mode::kOneGroup ? 1 : 5);
      EXPECT_EQ(wal.stats().flushes, expected_flushes);
      EXPECT_EQ(wal.stats().records_appended, 18);
      EXPECT_EQ(wal.stats().bytes_written, static_cast<int64_t>(expected.size()));
    }
    EXPECT_EQ(read_file(wal_path), expected);
    EXPECT_EQ(WriteAheadLog(wal_path).replay(), records);
  }
}

TEST(WalBytes, DuplicatedGroupThenCleanGroupWritesG1G1G2) {
  TempDir dir;
  const auto wal_path = dir.path() / "dup.wal";
  const std::vector<WalRecord> g1 = {{WalRecordType::kBegin, 1, "", ""},
                                     {WalRecordType::kWrite, 1, "a", "1"}};
  const std::vector<WalRecord> g2 = {{WalRecordType::kPrepared, 1, "", ""},
                                     {WalRecordType::kCommit, 1, "", ""},
                                     {WalRecordType::kBegin, 2, "", ""}};
  {
    WriteAheadLog wal(wal_path);
    CountingHook hook;
    hook.fault_at = 0;
    hook.scripted.kind = WalAppendFault::Kind::kDuplicate;
    wal.set_fault_hook(&hook);
    wal.begin_group();
    for (const auto& r : g1) wal.append(r);
    wal.commit_group();
    for (const auto& r : g2) wal.append(r);
    wal.end_group();
  }
  std::vector<WalRecord> g1_g1_g2 = g1;
  g1_g1_g2.insert(g1_g1_g2.end(), g1.begin(), g1.end());
  g1_g1_g2.insert(g1_g1_g2.end(), g2.begin(), g2.end());
  EXPECT_EQ(read_file(wal_path), frames_of(g1_g1_g2));
}

TEST(WalBytes, CrashedGroupNeverReachesTheFile) {
  // The log keeps running on its reused buffer after the crash verdict, so a
  // buffer not emptied on the crash path would write the crashed group again
  // with the next one. Grouped and ungrouped (a group of one) alike.
  const std::vector<WalRecord> g1 = {{WalRecordType::kBegin, 1, "", ""},
                                     {WalRecordType::kWrite, 1, "a", "1"}};
  const std::vector<WalRecord> g2 = {{WalRecordType::kWrite, 2, "b", "2"},
                                     {WalRecordType::kPrepared, 2, "", ""}};
  const std::vector<WalRecord> g3 = {{WalRecordType::kBegin, 3, "", ""},
                                     {WalRecordType::kCommit, 3, "", ""}};
  for (const auto kind : {WalAppendFault::Kind::kCrashBefore, WalAppendFault::Kind::kTorn}) {
    for (const bool grouped : {true, false}) {
      SCOPED_TRACE(std::string(kind == WalAppendFault::Kind::kTorn ? "torn" : "crash-before") +
                   (grouped ? " grouped" : " ungrouped"));
      TempDir dir;
      const auto wal_path = dir.path() / "crash.wal";
      // Torn: 5 bytes land, fewer than one frame header.
      const size_t keep = kind == WalAppendFault::Kind::kTorn ? 5 : 0;
      const auto write_group = [grouped](WriteAheadLog& wal, const std::vector<WalRecord>& g) {
        if (grouped) wal.begin_group();
        for (const auto& r : g) wal.append(r);
        if (grouped) wal.end_group();
      };
      {
        WriteAheadLog wal(wal_path);
        CountingHook hook;
        hook.fault_at = grouped ? 1 : static_cast<int64_t>(g1.size());  // g2's first write
        hook.scripted.kind = kind;
        hook.scripted.keep_bytes = keep;
        wal.set_fault_hook(&hook);
        write_group(wal, g1);
        EXPECT_THROW(write_group(wal, g2), CrashInjected);
        if (wal.group_open()) wal.end_group();  // empty: writes nothing
        write_group(wal, g3);
      }
      const auto g1_bytes = frames_of(g1);
      const auto g2_bytes = frames_of(g2);
      const auto g3_bytes = frames_of(g3);
      std::vector<uint8_t> expected = g1_bytes;
      expected.insert(expected.end(), g2_bytes.begin(),
                      g2_bytes.begin() + static_cast<std::ptrdiff_t>(keep));
      expected.insert(expected.end(), g3_bytes.begin(), g3_bytes.end());
      EXPECT_EQ(read_file(wal_path), expected);

      // Reopening truncates a torn tail (taking g3, written behind it, along):
      // of g2, not one byte survives.
      std::vector<WalRecord> survivors = g1;
      if (keep == 0) survivors.insert(survivors.end(), g3.begin(), g3.end());
      EXPECT_EQ(WriteAheadLog(wal_path).replay(), survivors);
      EXPECT_EQ(read_file(wal_path), frames_of(survivors));
    }
  }
}

TEST(WalGroup, TxnListRoundTrip) {
  const std::vector<int64_t> ids = {7, 40000000001, 3, 0, std::numeric_limits<int64_t>::max()};
  EXPECT_EQ(encode_txn_list(ids), "7,40000000001,3,0,9223372036854775807");
  EXPECT_EQ(decode_txn_list(encode_txn_list(ids)), ids);
  EXPECT_TRUE(decode_txn_list("").empty());
  EXPECT_EQ(encode_txn_list({}), "");
}

TEST(Wal, ParticipantListRoundTripsUpToInt32Max) {
  const std::vector<int32_t> participants = {0, 7, 2, std::numeric_limits<int32_t>::max()};
  EXPECT_EQ(encode_participant_list(participants), "0,7,2,2147483647");
  EXPECT_EQ(decode_participant_list(encode_participant_list(participants)), participants);
  EXPECT_TRUE(decode_participant_list("").empty());
}

TEST(Wal, IdListsRejectMalformedText) {
  // Empty parts, signs, non-digits and values past the target type all fail
  // the check; none may be truncated or escape as another exception type.
  for (const char* text : {"1,,2", "1,", ",1", ",", "-1", "+1", "a", "1a", " 1", "1 ",
                           "2147483648", "99999999999999999999"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)decode_participant_list(text), CheckFailure);
  }
  for (const char* text : {"1,,2", "1,", ",1", "-1", "a", "9223372036854775808",
                           "99999999999999999999"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)decode_txn_list(text), CheckFailure);
  }
  // A participant list's bound is INT32_MAX; a txn list takes the same text.
  EXPECT_EQ(decode_txn_list("2147483648"), std::vector<int64_t>{2147483648});
}

TEST(WalGroup, BatchSealRecordRoundTrips) {
  TempDir dir;
  const auto wal_path = dir.path() / "seal.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBatchSeal, 42, "", encode_txn_list({42, 43})});
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kBatchSeal);
  EXPECT_EQ(records[0].txn_id, 42);
  EXPECT_EQ(decode_txn_list(records[0].value), (std::vector<int64_t>{42, 43}));
}

// --- locks -----------------------------------------------------------------------

TEST(Locks, ExclusiveAcquisition) {
  LockManager locks;
  EXPECT_TRUE(locks.try_lock("a", 1));
  EXPECT_FALSE(locks.try_lock("a", 2));
  EXPECT_EQ(locks.holder("a"), 1);
}

TEST(Locks, ReentrantForSameTxn) {
  LockManager locks;
  EXPECT_TRUE(locks.try_lock("a", 1));
  EXPECT_TRUE(locks.try_lock("a", 1));
  EXPECT_TRUE(locks.try_lock_all({"b", "a", "b"}, 1));
  EXPECT_EQ(locks.locked_count(), 2u);
  EXPECT_EQ(locks.conflicts(), 0);
  locks.unlock_all(1);
  EXPECT_EQ(locks.locked_count(), 0u);
}

TEST(Locks, UnlockAllReleasesEverything) {
  LockManager locks;
  EXPECT_TRUE(locks.try_lock("a", 1));
  EXPECT_TRUE(locks.try_lock("b", 1));
  EXPECT_TRUE(locks.try_lock("c", 2));
  locks.unlock_all(1);
  EXPECT_EQ(locks.holder("a"), std::nullopt);
  EXPECT_EQ(locks.holder("b"), std::nullopt);
  EXPECT_EQ(locks.holder("c"), 2);
  EXPECT_TRUE(locks.try_lock("a", 3));
}

TEST(Locks, UnlockAllUnknownTxnIsNoop) {
  LockManager locks;
  locks.unlock_all(99);
  EXPECT_EQ(locks.locked_count(), 0u);
}

// --- KV store ---------------------------------------------------------------------

TEST(Kv, PrepareCommitInstallsWrites) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "10"}, {"y", "20"}}));
  EXPECT_EQ(store.get("x"), std::nullopt);  // staged, not visible
  store.commit(1);
  EXPECT_EQ(store.get("x"), "10");
  EXPECT_EQ(store.get("y"), "20");
}

TEST(Kv, AbortDiscardsWrites) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "10"}}));
  store.abort(1);
  EXPECT_EQ(store.get("x"), std::nullopt);
  // Locks released: another transaction can take the key.
  ASSERT_TRUE(store.prepare(2, {{"x", "11"}}));
  store.commit(2);
  EXPECT_EQ(store.get("x"), "11");
}

TEST(Kv, ConflictingPrepareVotesAbort) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  EXPECT_FALSE(store.prepare(2, {{"x", "2"}}));  // lock conflict -> vote abort
  // The failed prepare must not retain partial locks.
  EXPECT_FALSE(store.prepare(3, {{"y", "3"}, {"x", "3"}}));
  ASSERT_TRUE(store.prepare(4, {{"y", "4"}}));
  store.commit(1);
  store.commit(4);
  EXPECT_EQ(store.get("x"), "1");
  EXPECT_EQ(store.get("y"), "4");
}

TEST(Kv, CommitOfUnpreparedThrows) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  EXPECT_THROW(store.commit(42), CheckFailure);
}

TEST(Kv, RecoveryReappliesCommitted) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
    store.abort(2);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), std::nullopt);
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, RecoverySurfacesInDoubtTransactions) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(7, {{"k", "v"}}));
    // Crash here: prepared, no outcome.
  }
  KvStore recovered(wal_path);
  const auto doubts = recovered.in_doubt();
  ASSERT_EQ(doubts.size(), 1u);
  EXPECT_EQ(doubts[0], 7);
  EXPECT_EQ(recovered.get("k"), std::nullopt);
  // The in-doubt transaction still holds its locks.
  EXPECT_FALSE(recovered.prepare(8, {{"k", "other"}}));
  // Resolving it releases them.
  recovered.commit(7);
  EXPECT_EQ(recovered.get("k"), "v");
  EXPECT_TRUE(recovered.prepare(9, {{"k", "post"}}));
}

TEST(Kv, UnpreparedLeftoversDroppedOnRecovery) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    // Simulate a crash between Begin/Write and Prepared by writing the WAL
    // records directly.
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 5, "", ""});
    wal.append({WalRecordType::kWrite, 5, "z", "99"});
  }
  KvStore recovered(wal_path);
  EXPECT_TRUE(recovered.in_doubt().empty());
  EXPECT_EQ(recovered.get("z"), std::nullopt);
  EXPECT_TRUE(recovered.prepare(6, {{"z", "1"}}));  // keys unlocked
}

TEST(Kv, GroupModeCoalescesTxnAppendsAndRecovers) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    store.wal_begin_group();
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
    store.commit(2);
    EXPECT_EQ(store.wal_stats().flushes, 0);  // all buffered
    store.wal_commit_group();
    EXPECT_EQ(store.wal_stats().flushes, 1);
    EXPECT_GT(store.wal_stats().records_per_flush(), 5.0);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), "2");
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, BatchSealIsInvisibleToRecovery) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.seal_batch(1, {1, 2});
    store.commit(1);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, CheckpointFlushesAndReopensGroup) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  store.wal_begin_group();
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
  store.commit(1);
  store.checkpoint();  // must flush the pending group, not drop it
  EXPECT_TRUE(store.wal_group_open());  // and group mode survives
  ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
  store.commit(2);
  store.wal_commit_group();
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), "2");
}

/// Records the path of every on_append consult.
class PathHook : public WalFaultHook {
 public:
  WalAppendFault on_append(const std::filesystem::path& wal_path,
                           std::span<const uint8_t>) override {
    paths.push_back(wal_path);
    return {};
  }

  std::vector<fs::path> paths;
};

TEST(Kv, CheckpointKeepsAppendingThroughTheHandleThatWroteTheCompactedLog) {
  // The compacted log is not re-read: the handle that wrote it appends on
  // under the live name, so the fault hook sees the live path, the stats
  // restart at zero, and a reopen round-trips state and survey.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  PathHook hook;
  KvStore store(wal_path);
  store.set_fault_hook(&hook);
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}}, {0}));
  store.commit(1);
  ASSERT_TRUE(store.prepare(2, {{"b", "2"}}, {0, 1}));  // pending across it
  store.checkpoint();
  EXPECT_EQ(store.wal().path(), wal_path);
  EXPECT_FALSE(fs::exists(wal_path.string() + ".compact"));
  EXPECT_EQ(store.wal_stats().records_appended, 0);
  EXPECT_EQ(store.wal_stats().flushes, 0);

  hook.paths.clear();
  ASSERT_TRUE(store.prepare(3, {{"c", "3"}}, {0}));
  store.commit(3);
  store.seal_batch(3, {3});
  EXPECT_EQ(hook.paths, std::vector<fs::path>(5, wal_path));
  EXPECT_EQ(store.wal_stats().records_appended, 5);

  KvStore reopened(wal_path);
  EXPECT_EQ(reopened.snapshot(), store.snapshot());
  EXPECT_EQ(reopened.snapshot(),
            (std::map<std::string, std::string>{{"a", "1"}, {"c", "3"}}));
  EXPECT_EQ(reopened.in_doubt(), std::vector<TxnId>{2});
  EXPECT_EQ(reopened.survey(), store.survey());
  RecoveryManager manager({&store}, {});
  EXPECT_EQ(manager.survey_live(), manager.survey_all());
}

// --- opening a damaged log ---------------------------------------------------------

void append_bytes(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Kv, OpeningADamagedLogDecodesOnceAndTruncatesAtTheDamage) {
  // The open's single scan must both rebuild the store and cut the log at
  // the first untrusted frame: a torn final frame, a frame whose CRC fails,
  // or a frame with a valid CRC but an unknown type byte. An intact COMMIT
  // of the in-doubt transaction behind the damage must not count.
  const uint8_t commit = static_cast<uint8_t>(WalRecordType::kCommit);
  std::vector<uint8_t> torn = frame_bytes(commit, 2);
  torn.resize(torn.size() - 3);
  std::vector<uint8_t> corrupt = frame_bytes(commit, 2);
  corrupt.back() ^= 0x40;
  struct Damage {
    const char* name;
    std::vector<uint8_t> bytes;
    bool followed_by_commit;  ///< a torn frame can only be the last one
  };
  const std::vector<Damage> damages = {
      {"torn tail", torn, false},
      {"crc mismatch", corrupt, true},
      {"unknown type byte", frame_bytes(9, 2), true},
  };
  for (const auto& [name, damage, followed_by_commit] : damages) {
    SCOPED_TRACE(name);
    TempDir dir;
    const auto wal_path = dir.path() / "kv.wal";
    {
      KvStore store(wal_path);
      ASSERT_TRUE(store.prepare(1, {{"a", "1"}}, {0}));
      store.commit(1);
      ASSERT_TRUE(store.prepare(2, {{"b", "2"}, {"c", "2"}}, {0, 1}));
    }
    const auto valid_end = fs::file_size(wal_path);
    append_bytes(wal_path, damage);
    if (followed_by_commit) append_bytes(wal_path, frame_bytes(commit, 2));

    KvStore store(wal_path);
    EXPECT_EQ(fs::file_size(wal_path), valid_end);
    EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{2});
    EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{{"a", "1"}}));
    EXPECT_EQ(store.locks().locked_count(), 2u);
    EXPECT_EQ(store.locks().holder("b"), std::optional<TxnId>(2));
    EXPECT_EQ(store.locks().holder("c"), std::optional<TxnId>(2));
    EXPECT_EQ(store.survey().txns.at(2).status, ShardTxnStatus::kPrepared);
    EXPECT_EQ(store.survey().txns.at(1).status, ShardTxnStatus::kCommitted);

    // Appends land right after the cut, where a fresh replay finds them.
    store.commit(2);
    const auto records = WriteAheadLog(wal_path).replay();
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back(), (WalRecord{WalRecordType::kCommit, 2, "", ""}));
    KvStore reopened(wal_path);
    EXPECT_TRUE(reopened.in_doubt().empty());
    EXPECT_EQ(reopened.get("b"), "2");
    EXPECT_EQ(reopened.survey(), store.survey());
  }
}

// --- checkpoint / compaction -------------------------------------------------------

TEST(Kv, CheckpointShrinksLogAndPreservesState) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  // Churn: many transactions against few keys.
  for (TxnId txn = 1; txn <= 50; ++txn) {
    ASSERT_TRUE(store.prepare(txn, {{"a", std::to_string(txn)},
                                    {"b", std::to_string(txn * 2)}}));
    store.commit(txn);
  }
  const auto before = fs::file_size(wal_path);
  store.checkpoint();
  const auto after = fs::file_size(wal_path);
  EXPECT_LT(after, before / 4) << "snapshot should collapse 50 txns to 2 keys";
  EXPECT_EQ(store.get("a"), "50");
  EXPECT_EQ(store.get("b"), "100");
  // The store keeps working post-checkpoint.
  ASSERT_TRUE(store.prepare(51, {{"c", "new"}}));
  store.commit(51);
  EXPECT_EQ(store.get("c"), "new");
}

TEST(Kv, RecoveryAfterCheckpointRestoresEverything) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    for (TxnId txn = 1; txn <= 10; ++txn) {
      ASSERT_TRUE(store.prepare(txn, {{"k" + std::to_string(txn), "v"}}));
      store.commit(txn);
    }
    ASSERT_TRUE(store.prepare(99, {{"pending", "?"}}));  // stays in doubt
    store.checkpoint();
  }
  KvStore recovered(wal_path);
  for (TxnId txn = 1; txn <= 10; ++txn) {
    EXPECT_EQ(recovered.get("k" + std::to_string(txn)), "v");
  }
  // The in-doubt transaction survived the compaction, locks included.
  ASSERT_EQ(recovered.in_doubt(), std::vector<TxnId>{99});
  EXPECT_FALSE(recovered.prepare(100, {{"pending", "other"}}));
  recovered.commit(99);
  EXPECT_EQ(recovered.get("pending"), "?");
}

TEST(Kv, CheckpointOnEmptyStoreIsHarmless) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  store.checkpoint();
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  store.commit(1);
  EXPECT_EQ(store.get("x"), "1");
}

TEST(Kv, RepeatedCheckpointsAreIdempotent) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  store.commit(1);
  store.checkpoint();
  const auto size_once = fs::file_size(wal_path);
  store.checkpoint();
  EXPECT_EQ(fs::file_size(wal_path), size_once);
  EXPECT_EQ(store.get("x"), "1");
}

TEST(WalBytes, CheckpointWritesTheSortedSnapshotThenPendingTxns) {
  // Keys committed out of order, overwritten, written twice in one
  // transaction and added after an earlier checkpoint: the compacted log must
  // still be one SNAPSHOT frame per key in key order, then each pending
  // transaction, exactly as frames built from a sorted reference.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  std::map<std::string, std::string> reference;
  KvStore store(wal_path);
  TxnId txn = 1;
  const auto commit = [&](const std::vector<KvWrite>& writes) {
    ASSERT_TRUE(store.prepare(txn, writes, {0, 1}));
    store.commit(txn++);
    for (const auto& write : writes) reference[write.key] = write.value;
  };
  commit({{"m", "1"}, {"c", "2"}});
  commit({{"x", std::string(130, 'v')}, {"a", ""}, {"x", "twice"}});
  commit({{"c", "3"}});
  store.checkpoint();
  commit({{"b", "4"}, {"zz", "5"}, {"a", "6"}});
  commit({{"k10", "7"}, {"k2", "8"}, {std::string(130, 'k'), "9"}});
  const TxnId pending = txn;
  ASSERT_TRUE(store.prepare(pending, {{"p", "10"}, {"d", "11"}}, {0, 2}));
  store.checkpoint();

  std::vector<WalRecord> expected;
  for (const auto& [key, value] : reference) {
    expected.push_back({WalRecordType::kSnapshot, 0, key, value});
  }
  expected.push_back({WalRecordType::kBegin, pending, "", ""});
  expected.push_back({WalRecordType::kWrite, pending, "p", "10"});
  expected.push_back({WalRecordType::kWrite, pending, "d", "11"});
  expected.push_back({WalRecordType::kPrepared, pending, "", "0,2"});
  const auto expected_bytes = frames_of(expected);
  EXPECT_EQ(read_file(wal_path), expected_bytes);
  EXPECT_EQ(store.snapshot(), reference);

  // A store opened from the compacted log compacts to the same bytes.
  KvStore reopened(wal_path);
  reopened.checkpoint();
  EXPECT_EQ(read_file(wal_path), expected_bytes);
}

// --- the replay fold --------------------------------------------------------------
//
// Opening a store folds each transaction's contiguous run of records through
// one cursor and parks a run that other transactions' records interrupt.
// These logs are built by hand, frame by frame, so every shape the fold must
// treat record for record is pinned: interleaved runs, a duplicated group,
// an abort followed by a re-BEGIN of the same id, staged-only leftovers,
// snapshots, seals and a torn tail.

/// Writes `records` as a log at `path`, optionally followed by `tail` bytes.
void write_log(const fs::path& path, const std::vector<WalRecord>& records,
               const std::vector<uint8_t>& tail = {}) {
  std::vector<uint8_t> bytes = frames_of(records);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

WalRecord begin_of(TxnId txn) { return {WalRecordType::kBegin, txn, "", ""}; }
WalRecord write_of(TxnId txn, std::string key, std::string value) {
  return {WalRecordType::kWrite, txn, std::move(key), std::move(value)};
}
WalRecord prepared_of(TxnId txn, std::string participants) {
  return {WalRecordType::kPrepared, txn, "", std::move(participants)};
}
WalRecord commit_of(TxnId txn) { return {WalRecordType::kCommit, txn, "", ""}; }
WalRecord abort_of(TxnId txn) { return {WalRecordType::kAbort, txn, "", ""}; }
WalRecord snapshot_of(std::string key, std::string value) {
  return {WalRecordType::kSnapshot, 0, std::move(key), std::move(value)};
}
WalRecord seal_of(int64_t batch, std::string members) {
  return {WalRecordType::kBatchSeal, batch, "", std::move(members)};
}

/// The store's survey() equals the from-disk survey_all() view of its log.
void expect_survey_matches_disk(KvStore& store) {
  RecoveryManager manager({&store}, {});
  EXPECT_EQ(manager.survey_live(), manager.survey_all());
}

ShardSurvey::Txn survey_txn(ShardTxnStatus status, std::vector<int32_t> participants = {}) {
  return {status, std::move(participants)};
}

TEST(KvReplay, InterleavedPipelinedRunsFoldRecordForRecord) {
  // A pipelined batch: every member's prepare run, then the outcomes, with
  // one member's writes split around another's and a snapshot in between.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  write_log(wal_path, {snapshot_of("a", "0"), snapshot_of("z", "0"),
                       begin_of(1), write_of(1, "a", "1"), write_of(1, "b", "1"),
                       prepared_of(1, "0,1"),
                       begin_of(2), write_of(2, "c", "2"),
                       begin_of(3), write_of(3, "d", "3"),
                       write_of(2, "e", "2"), prepared_of(2, "2,0"),
                       prepared_of(3, "0"),
                       commit_of(1), abort_of(2),
                       begin_of(4), write_of(4, "a", "4"), prepared_of(4, "0"),
                       commit_of(4), snapshot_of("z", "snap"),
                       begin_of(5), write_of(5, "f", "5"), prepared_of(5, "0,3")});
  KvStore store(wal_path);
  EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{
                                  {"a", "4"}, {"b", "1"}, {"z", "snap"}}));
  EXPECT_EQ(store.in_doubt(), (std::vector<TxnId>{3, 5}));
  EXPECT_EQ(store.locks().holder("d"), std::optional<TxnId>(3));
  EXPECT_EQ(store.locks().holder("f"), std::optional<TxnId>(5));
  EXPECT_EQ(store.locks().locked_count(), 2u);
  EXPECT_EQ(store.survey().txns,
            (std::unordered_map<TxnId, ShardSurvey::Txn>{
                {1, survey_txn(ShardTxnStatus::kCommitted, {0, 1})},
                {2, survey_txn(ShardTxnStatus::kAborted, {0, 2})},
                {3, survey_txn(ShardTxnStatus::kPrepared, {0})},
                {4, survey_txn(ShardTxnStatus::kCommitted, {0})},
                {5, survey_txn(ShardTxnStatus::kPrepared, {0, 3})}}));
  expect_survey_matches_disk(store);
  // The in-doubt writes were parked intact: committing installs them.
  store.commit(3);
  store.commit(5);
  EXPECT_EQ(store.get("d"), "3");
  EXPECT_EQ(store.get("f"), "5");
}

TEST(KvReplay, DuplicatedGroupStagesItsWritesTwiceAndInstallsOnce) {
  // A kDuplicate fault writes a whole group twice: the BEGIN of the copy
  // finds the transaction staged, its WRITEs stage again, and the commit
  // installs the same values twice over.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  const std::vector<WalRecord> group = {begin_of(7), write_of(7, "h", "7"),
                                        write_of(7, "i", "7"), prepared_of(7, "0,1")};
  std::vector<WalRecord> records = group;
  records.insert(records.end(), group.begin(), group.end());
  records.push_back(begin_of(8));
  records.push_back(write_of(8, "j", "8"));
  records.push_back(prepared_of(8, "0"));
  records.push_back(commit_of(7));
  records.push_back(commit_of(7));
  write_log(wal_path, records);
  KvStore store(wal_path);
  EXPECT_EQ(store.snapshot(),
            (std::map<std::string, std::string>{{"h", "7"}, {"i", "7"}}));
  EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{8});
  EXPECT_EQ(store.survey().txns.at(7), survey_txn(ShardTxnStatus::kCommitted, {0, 1}));
  EXPECT_EQ(store.survey().txns.at(8), survey_txn(ShardTxnStatus::kPrepared, {0}));
  expect_survey_matches_disk(store);

  // A duplicated prepare left in doubt holds each key once in the lock table.
  write_log(wal_path, {group[0], group[1], group[2], group[3], group[0], group[1],
                       group[2], group[3]});
  KvStore doubled(wal_path);
  EXPECT_EQ(doubled.in_doubt(), std::vector<TxnId>{7});
  EXPECT_EQ(doubled.locks().locked_count(), 2u);
  doubled.commit(7);
  EXPECT_EQ(doubled.snapshot(),
            (std::map<std::string, std::string>{{"h", "7"}, {"i", "7"}}));
}

TEST(KvReplay, AbortThenReBeginOfTheSameIdStartsAfresh) {
  // An aborted id that BEGINs again stages from empty: the aborted write is
  // gone, and the survey keeps folding the same entry (status from the
  // latest record, participant lists merged).
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  write_log(wal_path, {begin_of(9), write_of(9, "old", "9"), prepared_of(9, "0,2"),
                       abort_of(9),
                       begin_of(9), write_of(9, "new", "9"), prepared_of(9, "0,1"),
                       begin_of(10), write_of(10, "x", "10"), prepared_of(10, "0"),
                       abort_of(10), begin_of(10), write_of(10, "y", "10")});
  KvStore store(wal_path);
  EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{}));
  EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{9});
  EXPECT_EQ(store.locks().holder("new"), std::optional<TxnId>(9));
  EXPECT_EQ(store.locks().holder("old"), std::nullopt);
  EXPECT_EQ(store.survey().txns.at(9), survey_txn(ShardTxnStatus::kPrepared, {0, 1, 2}));
  // The re-BEGIN of an aborted id does not reset its status to staged-only.
  EXPECT_EQ(store.survey().txns.at(10), survey_txn(ShardTxnStatus::kAborted, {0}));
  expect_survey_matches_disk(store);
  store.commit(9);
  EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{{"new", "9"}}));
}

TEST(KvReplay, StagedOnlyLeftoversMergeIntoALaterRunOfTheirIdOrDrop) {
  // A transaction that never prepared is dropped at the end of the open. A
  // later run of the same id, after other transactions' records, merges into
  // what it staged, exactly as the per-record fold did.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  write_log(wal_path, {begin_of(11), write_of(11, "l", "11"),
                       begin_of(12), write_of(12, "m", "12"), prepared_of(12, "0"),
                       commit_of(12),
                       begin_of(11), write_of(11, "n", "11"), prepared_of(11, "0"),
                       commit_of(11),
                       begin_of(13), write_of(13, "o", "13"),
                       begin_of(14)});
  KvStore store(wal_path);
  EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{
                                  {"l", "11"}, {"m", "12"}, {"n", "11"}}));
  EXPECT_TRUE(store.in_doubt().empty());
  EXPECT_EQ(store.locks().locked_count(), 0u);
  EXPECT_EQ(store.survey().txns.at(11), survey_txn(ShardTxnStatus::kCommitted, {0}));
  EXPECT_EQ(store.survey().txns.at(13), survey_txn(ShardTxnStatus::kStagedOnly));
  EXPECT_EQ(store.survey().txns.at(14), survey_txn(ShardTxnStatus::kStagedOnly));
  expect_survey_matches_disk(store);
  // A leftover id can prepare afresh: nothing of it stayed staged.
  EXPECT_TRUE(store.prepare(13, {{"p", "13"}}, {0}));
}

TEST(KvReplay, SealsAndATornTailFoldIntoTheSurveyOnly) {
  // Seals reach only the survey, merged per batch; a torn final frame is
  // cut, and everything before it stands.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  const std::vector<WalRecord> intact = {
      snapshot_of("s", "0"),
      begin_of(20), write_of(20, "s", "20"), prepared_of(20, "0,1"),
      seal_of(20, "20,21"),
      begin_of(21), write_of(21, "t", "21"), prepared_of(21, "0"),
      seal_of(20, "21,22"), commit_of(20)};
  std::vector<uint8_t> torn = frame_bytes(static_cast<uint8_t>(WalRecordType::kCommit), 21);
  torn.resize(torn.size() - 1);
  write_log(wal_path, intact, torn);
  const auto intact_size = frames_of(intact).size();
  KvStore store(wal_path);
  EXPECT_EQ(fs::file_size(wal_path), intact_size);
  EXPECT_EQ(store.snapshot(), (std::map<std::string, std::string>{{"s", "20"}}));
  EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{21});
  EXPECT_EQ(store.survey().seals,
            (std::map<int64_t, std::vector<TxnId>>{{20, {20, 21, 22}}}));
  EXPECT_EQ(store.survey().txns.at(21), survey_txn(ShardTxnStatus::kPrepared, {0}));
  expect_survey_matches_disk(store);
}

/// The fold the cursor replaced, one record at a time: the reference the
/// randomized equivalence test below checks opens against.
struct ReferenceReplay {
  struct Staged {
    std::vector<KvWrite> writes;
    bool prepared = false;
  };
  std::map<std::string, std::string> data;
  std::map<TxnId, Staged> staged;

  void fold(const WalRecord& record) {
    switch (record.type) {
      case WalRecordType::kBegin: staged[record.txn_id]; break;
      case WalRecordType::kWrite:
        staged[record.txn_id].writes.push_back({record.key, record.value});
        break;
      case WalRecordType::kPrepared: staged[record.txn_id].prepared = true; break;
      case WalRecordType::kCommit: {
        const auto it = staged.find(record.txn_id);
        if (it == staged.end()) break;
        for (const auto& write : it->second.writes) data[write.key] = write.value;
        staged.erase(it);
        break;
      }
      case WalRecordType::kAbort: staged.erase(record.txn_id); break;
      case WalRecordType::kSnapshot: data[record.key] = record.value; break;
      case WalRecordType::kBatchSeal: break;
    }
  }
};

TEST(KvReplay, RandomInterleavedLogsMatchTheRecordByRecordFold) {
  // Random logs of runs that interleave, repeat, abort and reuse ids, over a
  // small key space: every open must reach the reference fold's state and
  // in-doubt set, and a survey equal to the log's from-disk view.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  RandomTape rng(23);
  int checked = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<WalRecord> records;
    const auto txn_count = static_cast<TxnId>(2 + rng.next_below(6));
    for (int i = 0, n = 4 + static_cast<int>(rng.next_below(40)); i < n; ++i) {
      const TxnId txn = 1 + static_cast<TxnId>(rng.next_below(static_cast<uint64_t>(txn_count)));
      const std::string key = "k" + std::to_string(rng.next_below(6));
      const std::string value = std::to_string(i);
      switch (rng.next_below(9)) {
        case 0: records.push_back(begin_of(txn)); break;
        case 1: case 2: case 3: records.push_back(write_of(txn, key, value)); break;
        case 4:
          records.push_back(prepared_of(txn, rng.next_below(2) == 0 ? "" : "0," + std::to_string(txn)));
          break;
        case 5: case 6: records.push_back(commit_of(txn)); break;
        case 7: records.push_back(rng.next_below(2) == 0 ? abort_of(txn) : snapshot_of(key, value)); break;
        default: records.push_back(seal_of(txn, std::to_string(txn))); break;
      }
      // A run: the same transaction's next record, now and then.
      if (rng.next_below(2) == 0 && !records.empty() && records.back().type == WalRecordType::kWrite) {
        records.push_back(write_of(txn, key + "x", value));
      }
    }
    ReferenceReplay reference;
    for (const auto& record : records) reference.fold(record);
    std::erase_if(reference.staged, [](const auto& entry) { return !entry.second.prepared; });
    // In-doubt transactions sharing a key cannot be reopened (the lock
    // re-acquisition refuses them); the open must say so rather than guess.
    std::map<std::string, TxnId> holders;
    bool conflict = false;
    for (const auto& [txn, staged] : reference.staged) {
      for (const auto& write : staged.writes) {
        const auto [it, inserted] = holders.emplace(write.key, txn);
        conflict = conflict || (!inserted && it->second != txn);
      }
    }
    write_log(wal_path, records);
    SCOPED_TRACE("round " + std::to_string(round));
    if (conflict) {
      EXPECT_THROW(KvStore{wal_path}, CheckFailure);
      continue;
    }
    KvStore store(wal_path);
    ASSERT_EQ(store.snapshot(), reference.data);
    std::vector<TxnId> in_doubt;
    for (const auto& [txn, staged] : reference.staged) in_doubt.push_back(txn);
    ASSERT_EQ(store.in_doubt(), in_doubt);
    expect_survey_matches_disk(store);
    // The staged writes survived the open intact: committing every in-doubt
    // transaction lands where the reference lands.
    for (const TxnId txn : in_doubt) {
      store.commit(txn);
      reference.fold(commit_of(txn));
    }
    ASSERT_EQ(store.snapshot(), reference.data);
    ++checked;
  }
  EXPECT_GT(checked, 150);
}

TEST(Kv, RandomHistoryMatchesReferenceModel) {
  // Seeded random prepares, commits, aborts, checkpoints and reopens over a
  // small key space that grows as the history runs, so keys repeat within
  // and across transactions and new keys arrive after every sort. After each
  // step, get(), size(), snapshot() and in_doubt() must match a reference
  // std::map plus the set of prepared, undecided transactions, and each
  // compacted log must list the reference's entries in order.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    TempDir dir;
    const auto wal_path = dir.path() / "kv.wal";
    auto store = std::make_unique<KvStore>(wal_path);
    RandomTape rng(seed);
    std::map<std::string, std::string> committed;
    std::map<TxnId, std::vector<KvWrite>> pending;  // prepared, undecided
    TxnId next_txn = 1;
    constexpr int kSteps = 300;
    constexpr uint64_t kMaxKeys = 40;
    const auto key_name = [](uint64_t k) {
      std::string name = "k";  // appended, not "k" + ...: GCC 12 -Wrestrict misfires there
      name += std::to_string(k);
      return name;
    };
    const auto pick_pending = [&] {
      auto it = pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(pending.size())));
      return it;
    };
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t op = rng.next_below(10);
      if (op < 4) {
        const uint64_t key_space = std::min<uint64_t>(4 + static_cast<uint64_t>(step) / 8,
                                                      kMaxKeys);
        std::vector<KvWrite> writes;
        bool conflict = false;
        for (uint64_t i = 0, n = 1 + rng.next_below(3); i < n; ++i) {
          std::string key = key_name(rng.next_below(key_space));
          for (const auto& [txn, held] : pending) {
            for (const auto& write : held) conflict = conflict || write.key == key;
          }
          writes.push_back({std::move(key), std::to_string(step) + "." + std::to_string(i)});
        }
        const TxnId txn = next_txn++;
        EXPECT_EQ(store->prepare(txn, writes, {0}), !conflict);
        if (!conflict) pending.emplace(txn, std::move(writes));
      } else if (op < 6 && !pending.empty()) {
        const auto it = pick_pending();
        store->commit(it->first);
        for (const auto& write : it->second) committed[write.key] = write.value;
        pending.erase(it);
      } else if (op < 8 && !pending.empty()) {
        const auto it = pick_pending();
        store->abort(it->first);
        pending.erase(it);
      } else if (op == 8) {
        store->checkpoint();
        // The compacted log holds one SNAPSHOT per key, in key order.
        std::vector<std::pair<std::string, std::string>> compacted;
        scan_wal(wal_path, [&](WalRecord&& record) {
          if (record.type == WalRecordType::kSnapshot) {
            compacted.emplace_back(std::move(record.key), std::move(record.value));
          }
        });
        ASSERT_EQ(compacted, (std::vector<std::pair<std::string, std::string>>(
                                 committed.begin(), committed.end())))
            << "step " << step;
      } else {
        store.reset();
        store = std::make_unique<KvStore>(wal_path);
      }

      ASSERT_EQ(store->size(), committed.size()) << "step " << step;
      ASSERT_EQ(store->snapshot(), committed) << "step " << step;
      for (uint64_t k = 0; k <= kMaxKeys; ++k) {
        const std::string key = key_name(k);
        const auto it = committed.find(key);
        ASSERT_EQ(store->get(key),
                  it == committed.end() ? std::nullopt : std::optional(it->second))
            << "step " << step << " key " << key;
      }
      std::vector<TxnId> in_doubt;
      for (const auto& [txn, writes] : pending) in_doubt.push_back(txn);
      ASSERT_EQ(store->in_doubt(), in_doubt) << "step " << step;
    }
  }
}

// --- distributed transactions -----------------------------------------------------
//
// One client, one transaction at a time: MultiShotDb with decision_batch = 1,
// each cross-shard round over the threaded network. The suite keeps the
// name it had when these cases ran on the single-shot engine.

MultiShotDb::Options one_client_options(const fs::path& dir, int32_t shards,
                                        uint64_t seed = 1) {
  MultiShotDb::Options options;
  options.shard_count = shards;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = DecisionTransport::kThreadedNetwork;
  options.decision_batch = 1;
  return options;
}

TEST(DistributedDb, MultiShardCommit) {
  TempDir dir;
  MultiShotDb::Options options = one_client_options(dir.path(), 3, 21);
  options.network = {.min_delay = std::chrono::microseconds(20),
                     .max_delay = std::chrono::microseconds(200)};
  MultiShotDb database(options);

  const auto outcome = database.execute(0, {
      {0, {{"acct:alice", "50"}}},
      {1, {{"acct:bob", "150"}}},
      {2, {{"ledger:tx1", "alice->bob:50"}}},
  });
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "acct:alice"), "50");
  EXPECT_EQ(database.get(1, "acct:bob"), "150");
  EXPECT_EQ(database.get(2, "ledger:tx1"), "alice->bob:50");
}

TEST(DistributedDb, LockConflictAbortsEverywhere) {
  TempDir dir;
  MultiShotDb database(one_client_options(dir.path(), 2, 22));

  // A stuck transaction holds a lock on shard 1 (prepare without outcome).
  ASSERT_TRUE(database.shard(1).prepare(make_txn_id(2, 1), {{"hot", "held"}}));

  const auto outcome = database.execute(0, {
      {0, {{"cold", "1"}}},
      {1, {{"hot", "2"}}},  // conflicts -> shard 1 votes abort
  });
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kAbort);
  EXPECT_EQ(database.get(0, "cold"), std::nullopt);
  EXPECT_EQ(database.get(1, "hot"), std::nullopt);
}

TEST(DistributedDb, SingleShardFastPath) {
  TempDir dir;
  MultiShotDb database(one_client_options(dir.path(), 2));
  const auto outcome = database.execute(0, {{0, {{"solo", "1"}}}});
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "solo"), "1");
}

TEST(DistributedDb, SameShardMultiAccountTransaction) {
  // Two writes on one shard travel as a single participant entry (the
  // single-shard fast path); regression for the silently-dropped duplicate
  // map key that once broke conservation in the bank example.
  TempDir dir;
  MultiShotDb database(one_client_options(dir.path(), 2));
  GeneratedTxn writes;
  writes[0].push_back({"alice", "900"});
  writes[0].push_back({"bob", "1100"});
  const auto outcome = database.execute(0, writes);
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "alice"), "900");
  EXPECT_EQ(database.get(0, "bob"), "1100");
}

TEST(DistributedDb, MixedSameAndCrossShardWrites) {
  TempDir dir;
  MultiShotDb database(one_client_options(dir.path(), 2, 77));
  GeneratedTxn writes;
  writes[0].push_back({"a", "1"});
  writes[0].push_back({"b", "2"});
  writes[1].push_back({"c", "3"});
  const auto outcome = database.execute(0, writes);
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "a"), "1");
  EXPECT_EQ(database.get(0, "b"), "2");
  EXPECT_EQ(database.get(1, "c"), "3");
}

TEST(DistributedDb, SequentialTransactionsReuseKeys) {
  TempDir dir;
  MultiShotDb database(one_client_options(dir.path(), 2, 23));
  for (int round = 0; round < 3; ++round) {
    const auto outcome = database.execute(0, {
        {0, {{"counter", std::to_string(round)}}},
        {1, {{"mirror", std::to_string(round)}}},
    });
    ASSERT_TRUE(outcome.decided) << "round " << round;
    ASSERT_EQ(outcome.decision, Decision::kCommit) << "round " << round;
  }
  EXPECT_EQ(database.get(0, "counter"), "2");
  EXPECT_EQ(database.get(1, "mirror"), "2");
}

TEST(DistributedDb, SurvivesRestartAcrossTransactions) {
  TempDir dir;
  {
    MultiShotDb database(one_client_options(dir.path(), 2));
    ASSERT_EQ(database
                  .execute(0, {{0, {{"persist", "yes"}}}, {1, {{"persist", "also"}}}})
                  .decision,
              Decision::kCommit);
  }
  // "Restart": a new engine over the same directory recovers state.
  MultiShotDb database(one_client_options(dir.path(), 2));
  EXPECT_EQ(database.get(0, "persist"), "yes");
  EXPECT_EQ(database.get(1, "persist"), "also");
}

}  // namespace
}  // namespace rcommit::db
