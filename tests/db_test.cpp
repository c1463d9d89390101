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
