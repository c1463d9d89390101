// Replays every committed crash-schedule artifact under tests/corpus_fault/
// (the one-transaction-at-a-time shape, batch_size = 1) and requires the
// freshly computed CrashPointResult to match the stored report field for
// field — the executable proof that a sweep failure is reproducible from its
// artifact alone (and that shrunk schedules replay to the same
// RecoveryReport across code changes). tests/corpus_multishot/ replays the
// same way in torture_test
// (MultiShotTortureFixture.CorpusEntriesReplayIdentically). The artifact
// files are input from outside the program, so the rest of this file checks
// that malformed or foreign text is rejected, never misread.
//
// Regenerate an entry with:
//   faultkit --replay --batch-size=1 --batches=4 --site=N --kind=K --arg=A
//            --save=tests/corpus_fault/<name>
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/check.h"
#include "faultinject/torture.h"

namespace rcommit::faultinject {
namespace {

namespace fs = std::filesystem;

TEST(FaultkitReplayTest, CorpusArtifactsReplayIdentically) {
  const fs::path corpus(RCOMMIT_FAULT_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_directory()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    const FaultArtifact artifact = load_fault_artifact(entry.path());
    const fs::path scratch = fs::temp_directory_path() /
                             ("rcommit_faultkit_replay_" +
                              std::to_string(::getpid()) + "_" +
                              entry.path().filename().string());
    const CrashPointResult result = replay_fault_artifact(artifact, scratch);
    EXPECT_EQ(result, artifact.expected)
        << "expected:\n"
        << artifact.expected.serialize() << "got:\n"
        << result.serialize();
    EXPECT_EQ(result.report, artifact.expected.report);
    std::error_code ec;
    fs::remove_all(scratch, ec);
    ++replayed;
  }
  EXPECT_GT(replayed, 0) << "empty corpus at " << corpus;
}

TEST(FaultkitReplayTest, ArtifactRoundTripsThroughDisk) {
  const fs::path dir = fs::temp_directory_path() /
                       ("rcommit_fault_artifact_" + std::to_string(::getpid()));
  MultiTortureOptions options;
  options.seed = 21;
  options.batch_size = 1;
  FaultPlan plan = FaultPlan::wal_fault_at(4, FaultKind::kPartialFlush);
  plan.add({9, FaultKind::kDuplicate, 0});
  CrashPointResult expected;
  expected.crashed = true;
  expected.crash_site = 4;
  expected.sites_seen = 5;
  expected.digest = 0xdeadbeef;
  expected.errors = {"sample error"};
  write_fault_artifact(dir, {options, plan, expected});
  const FaultArtifact back = load_fault_artifact(dir);
  EXPECT_EQ(back.options.serialize(), options.serialize());
  EXPECT_EQ(back.plan, plan);
  EXPECT_EQ(back.expected, expected);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(FaultkitReplayTest, ExtremeValuesRoundTrip) {
  // Every field's type limits survive the text form: the parser rejects
  // only what does not fit, never what the writer can write.
  constexpr auto kMaxU64 = std::numeric_limits<uint64_t>::max();
  constexpr auto kMaxI32 = std::numeric_limits<int32_t>::max();
  MultiTortureOptions options;
  options.seed = kMaxU64;
  options.batches = kMaxI32;
  options.batch_size = kMaxI32;
  options.decision_batch = std::numeric_limits<int32_t>::min();
  options.group_commit = true;
  EXPECT_EQ(MultiTortureOptions::deserialize(options.serialize()).serialize(),
            options.serialize());
  CrashPointResult result;
  result.crash_site = -1;
  result.sites_seen = std::numeric_limits<int64_t>::max();
  result.digest = kMaxU64;
  result.errors = {"a=b", ""};
  EXPECT_EQ(CrashPointResult::deserialize(result.serialize()), result);
  FaultPlan plan = FaultPlan::wal_fault_at(std::numeric_limits<int64_t>::max(),
                                           FaultKind::kTornWrite, kMaxU64);
  EXPECT_EQ(FaultPlan::deserialize(plan.serialize()), plan);
}

// --- malformed input -----------------------------------------------------------

TEST(FaultkitReplayTest, NonDigitValueIsRejected) {
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batches=abc\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batches=4x\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batches=\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batches= 3\n"), CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("digest=12.5\n"), CheckFailure);
  EXPECT_THROW((void)FaultPlan::deserialize("fault=x torn 1\n"), CheckFailure);
  EXPECT_THROW((void)FaultPlan::deserialize("fault=1 torn 0x10\n"), CheckFailure);

  // Through the loader too: a whole artifact with one bad config value.
  const fs::path dir = fs::temp_directory_path() /
                       ("rcommit_fault_malformed_" + std::to_string(::getpid()));
  write_fault_artifact(dir,
                       {MultiTortureOptions{}, FaultPlan::none(), CrashPointResult{}});
  std::ofstream(dir / "config.txt", std::ios::trunc) << "shard_count=3\nbatches=abc\n";
  EXPECT_THROW((void)load_fault_artifact(dir), CheckFailure);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(FaultkitReplayTest, SignOnUnsignedFieldIsRejected) {
  EXPECT_THROW((void)FaultPlan::deserialize("seed=-1\n"), CheckFailure);
  EXPECT_THROW((void)FaultPlan::deserialize("fault=1 torn -1\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("seed=-1\n"), CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("digest=-5\n"), CheckFailure);
  // A '+' is no sign the writer emits, on any field.
  EXPECT_THROW((void)MultiTortureOptions::deserialize("seed=+1\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("fanout=+2\n"), CheckFailure);
  // A signed field takes its '-'.
  EXPECT_EQ(CrashPointResult::deserialize("crash_site=-1\n").crash_site, -1);
}

TEST(FaultkitReplayTest, OverflowOfTheFieldTypeIsRejected) {
  // 4294967304 = 2^32 + 8: it must not wrap to batch_size=8.
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batch_size=4294967304\n"),
               CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("batches=2147483648\n"),
               CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("crash_site=9223372036854775808\n"),
               CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("digest=18446744073709551616\n"),
               CheckFailure);
  EXPECT_THROW((void)FaultPlan::deserialize("seed=18446744073709551616\n"),
               CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("sites_seen=9223372036854775808\n"),
               CheckFailure);
}

TEST(FaultkitReplayTest, BoolOtherThanZeroOrOneIsRejected) {
  EXPECT_THROW((void)CrashPointResult::deserialize("crashed=yes\n"), CheckFailure);
  EXPECT_THROW((void)CrashPointResult::deserialize("crashed=2\n"), CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("group_commit=true\n"),
               CheckFailure);
  EXPECT_THROW((void)MultiTortureOptions::deserialize("group_commit=\n"), CheckFailure);
  EXPECT_TRUE(CrashPointResult::deserialize("crashed=1\n").crashed);
  EXPECT_FALSE(MultiTortureOptions::deserialize("group_commit=0\n").group_commit);
}

// --- foreign input ---------------------------------------------------------------

TEST(FaultkitReplayTest, SerialWorkloadConfigIsRejected) {
  // The config.txt of the retired serial workload, byte for byte as older
  // builds wrote it (no batches= line). It shares keys with the workload's
  // schema, but it must never load as a default pipelined workload: the
  // loader throws, and faultkit --artifact exits 2.
  const fs::path dir = fs::temp_directory_path() /
                       ("rcommit_fault_serial_" + std::to_string(::getpid()));
  write_fault_artifact(dir,
                       {MultiTortureOptions{}, FaultPlan::none(), CrashPointResult{}});
  std::ofstream(dir / "config.txt", std::ios::trunc)
      << "shard_count=3\ntxns=4\nfanout=2\nkeys_per_shard=4\nseed=1\n"
         "min_delay_us=10\nmax_delay_us=80\ntxn_timeout_ms=5000\n";
  EXPECT_THROW((void)load_fault_artifact(dir), CheckFailure);

  const std::string command = std::string(RCOMMIT_FAULTKIT_BIN) + " --artifact=" +
                              dir.string() + " --dir=" + (dir / "scratch").string() +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 2) << command;
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace rcommit::faultinject
