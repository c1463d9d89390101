// Crash-point torture over the workload of faultinject/torture.h: every
// reachable WAL injection site is hit with every WAL fault kind, and
// recovery must restore a state equivalent to the committed-prefix reference
// — cross-shard atomicity included ("at all processors or at no processor")
// (SQLite crash-test style).
//
//   WalTortureFixture        one transaction at a time (batch_size = 1);
//   MultiShotTortureFixture  3 shards × 8 instances in flight per batch, in
//                            per-append and group-commit modes.
//
// Recovery itself is crashed too: at every outcome-group flush of
// resolve_all, after a crash at every workload site, then resolved again.
//
// The tier-1 run sweeps one seed; configuring with -DRCOMMIT_LONG_TESTS=ON
// adds seed-matrix variants over larger workloads (CI's swarm-smoke job).
// The corpus under tests/corpus_multishot replays here; tests/corpus_fault in
// faultkit_replay_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "db/multishot.h"
#include "db/recovery.h"
#include "faultinject/injector.h"
#include "faultinject/torture.h"

namespace rcommit::faultinject {
namespace {

namespace fs = std::filesystem;

class TortureFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_torture_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

class WalTortureFixture : public TortureFixture {
 protected:
  /// The one-transaction-at-a-time shape: four batches of one instance, each
  /// prepared, decided and applied before the next begins.
  [[nodiscard]] static MultiTortureOptions one_at_a_time(uint64_t seed,
                                                         const fs::path& dir) {
    return {.batches = 4, .batch_size = 1, .seed = seed, .scratch_dir = dir};
  }
};
class MultiShotTortureFixture : public TortureFixture {};

void expect_clean_sweep(const SweepResult& result) {
  EXPECT_GT(result.sites, 0);
  EXPECT_EQ(result.crash_points, result.sites * 5);  // five WAL fault kinds
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "recovery not equivalent under plan:\n"
                  << failure.plan.serialize() << "result:\n"
                  << failure.result.serialize();
  }
}

/// Sweeps every outcome-group site of recovery × every fault kind, for each
/// workload crash in `workload_plans`; returns the recovery crash points run.
int64_t sweep_recovery_crashes(const MultiTortureOptions& options,
                               const std::vector<FaultPlan>& workload_plans) {
  int64_t crash_points = 0;
  for (size_t i = 0; i < workload_plans.size(); ++i) {
    MultiTortureOptions point = options;
    point.scratch_dir = options.scratch_dir / ("workload" + std::to_string(i));
    const SweepResult result =
        run_recovery_sweep(point, workload_plans[i], {.threads = 2});
    EXPECT_EQ(result.crash_points, result.sites * 5);
    crash_points += result.crash_points;
    for (const auto& failure : result.failures) {
      ADD_FAILURE() << "re-recovery not equivalent after workload plan:\n"
                    << workload_plans[i].serialize() << "recovery plan:\n"
                    << failure.plan.serialize() << "result:\n"
                    << failure.result.serialize();
    }
  }
  return crash_points;
}

/// A crash-after at every workload site: each leaves a different set of
/// in-doubt transactions for recovery to resolve.
std::vector<FaultPlan> workload_crashes(const MultiTortureOptions& options) {
  MultiTortureOptions probe = options;
  probe.scratch_dir = options.scratch_dir / "enumerate";
  const auto sites = static_cast<int64_t>(enumerate_sites(probe).size());
  std::vector<FaultPlan> plans;
  for (int64_t site = 0; site < sites; ++site) {
    plans.push_back(FaultPlan::wal_fault_at(site, FaultKind::kCrashAfter, 0));
  }
  return plans;
}

// --- one transaction at a time ------------------------------------------------

TEST_F(WalTortureFixture, ExhaustiveSweepRecoversEquivalently) {
  expect_clean_sweep(run_wal_sweep(one_at_a_time(1, dir_), {.threads = 2}));
}

TEST_F(WalTortureFixture, CrashPointIsReproducibleFromSeedAndSite) {
  // The acceptance bar: a crash point is a pure function of (seed, site).
  const MultiTortureOptions first = one_at_a_time(7, dir_ / "a");
  const MultiTortureOptions second = one_at_a_time(7, dir_ / "b");
  const FaultPlan plan = FaultPlan::wal_fault_at(5, FaultKind::kTornWrite, 99);
  EXPECT_EQ(run_crash_point(first, plan), run_crash_point(second, plan));

  const MultiTortureOptions other_seed = one_at_a_time(8, dir_ / "c");
  const auto different = run_crash_point(other_seed, plan);
  const auto baseline = run_crash_point(first, plan);
  // Different seed, different workload — the digest should move (and if the
  // workloads happened to collide, the comparison below still documents that
  // only the seed may move it).
  EXPECT_TRUE(different.ok());
  EXPECT_TRUE(baseline.ok());
}

TEST_F(WalTortureFixture, EnumerationIsStable) {
  const MultiTortureOptions options = one_at_a_time(1, dir_);
  const auto first = enumerate_sites(options);
  const auto second = enumerate_sites(options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].site, second[i].site);
    EXPECT_EQ(first[i].wal_name, second[i].wal_name);
    EXPECT_EQ(first[i].record_type, second[i].record_type);
    EXPECT_EQ(first[i].frame_size, second[i].frame_size);
  }
}

TEST_F(WalTortureFixture, CrashInsideRecoveryReResolvesEquivalently) {
  // One transaction in flight at each crash, plus the held hot transaction:
  // recovery's outcome groups are at most one per shard.
  const MultiTortureOptions options = one_at_a_time(1, dir_);
  EXPECT_GT(sweep_recovery_crashes(options, workload_crashes(options)), 0);
}

// --- many instances in flight per batch ----------------------------------------

TEST_F(MultiShotTortureFixture, CrashAtEveryAppendRecoversEquivalently) {
  MultiTortureOptions options;  // 3 shards x 3 batches x 8 in flight
  options.scratch_dir = dir_;
  expect_clean_sweep(run_wal_sweep(options, {.threads = 2}));
}

TEST_F(MultiShotTortureFixture, CrashPointIsReproducibleFromSeedAndSite) {
  MultiTortureOptions first = {.seed = 7, .scratch_dir = dir_ / "a"};
  MultiTortureOptions second = {.seed = 7, .scratch_dir = dir_ / "b"};
  // Site 30 lands mid-pipeline: several instances of the in-flight batch are
  // prepared but undecided when the crash fires.
  const FaultPlan plan = FaultPlan::wal_fault_at(30, FaultKind::kCrashAfter, 0);
  const auto baseline = run_crash_point(first, plan);
  EXPECT_EQ(baseline, run_crash_point(second, plan));
  EXPECT_TRUE(baseline.crashed);
  EXPECT_TRUE(baseline.ok()) << baseline.serialize();
  // A mid-pipeline crash leaves multiple in-doubt instances; batch recovery
  // resolved them all (in-doubt => resolved commit + abort counts are the
  // leftovers recovery had to decide, hot instance included).
  EXPECT_GT(baseline.report.resolved_commit + baseline.report.resolved_abort, 1);
}

// --- group-commit + decision-batching site space -----------------------------------

TEST_F(MultiShotTortureFixture, GroupCommitSweepRecoversEquivalently) {
  // Group mode moves every injection site to a group-flush boundary: a
  // crash-before verdict drops a whole buffered group (many records at once),
  // torn verdicts tear mid-group. The equivalence oracle is unchanged — the
  // recovered state must still match the committed-prefix reference.
  MultiTortureOptions options;
  options.group_commit = true;
  options.decision_batch = 4;
  options.scratch_dir = dir_;
  expect_clean_sweep(run_wal_sweep(options, {.threads = 2}));
}

TEST_F(MultiShotTortureFixture, GroupCommitShrinksAndMovesSiteSpace) {
  MultiTortureOptions plain;
  plain.scratch_dir = dir_ / "plain";
  MultiTortureOptions grouped = plain;
  grouped.group_commit = true;
  grouped.decision_batch = 4;
  grouped.scratch_dir = dir_ / "grouped";
  const auto plain_sites = enumerate_sites(plain);
  const auto grouped_sites = enumerate_sites(grouped);
  // Coalescing strictly shrinks the per-append site space down to the
  // boundary flushes; each grouped frame is bigger than any single append.
  ASSERT_GT(grouped_sites.size(), 0u);
  EXPECT_LT(grouped_sites.size(), plain_sites.size());
  size_t max_plain = 0;
  size_t max_grouped = 0;
  for (const auto& site : plain_sites) {
    max_plain = std::max(max_plain, static_cast<size_t>(site.frame_size));
  }
  for (const auto& site : grouped_sites) {
    max_grouped = std::max(max_grouped, static_cast<size_t>(site.frame_size));
  }
  EXPECT_GT(max_grouped, max_plain);
}

TEST_F(MultiShotTortureFixture, GroupBoundaryCrashIsReproducible) {
  MultiTortureOptions first = {.seed = 7, .scratch_dir = dir_ / "a"};
  first.group_commit = true;
  first.decision_batch = 4;
  MultiTortureOptions second = first;
  second.scratch_dir = dir_ / "b";
  // Site 3 is a mid-pipeline group flush: crash-before loses the whole
  // buffered group — every staged append since the previous boundary.
  const FaultPlan plan = FaultPlan::wal_fault_at(3, FaultKind::kCrashBefore, 0);
  const auto baseline = run_crash_point(first, plan);
  EXPECT_EQ(baseline, run_crash_point(second, plan));
  EXPECT_TRUE(baseline.crashed);
  EXPECT_TRUE(baseline.ok()) << baseline.serialize();
}

// --- crashes inside resolve_all ---------------------------------------------------

TEST_F(MultiShotTortureFixture, CrashInsideRecoveryReResolvesEquivalently) {
  MultiTortureOptions options;  // 3 shards x 3 batches x 8 in flight
  options.scratch_dir = dir_;
  EXPECT_GT(sweep_recovery_crashes(options, workload_crashes(options)), 0);
}

TEST_F(MultiShotTortureFixture, CrashInsideGroupedRecoveryReResolvesEquivalently) {
  // Sealed batches in the logs: a crash between two shards' outcome groups
  // splits a batch into flushed members (rule 1) and members whose shared
  // rule-3 rerun now spans fewer shards — it must still commit them.
  MultiTortureOptions options;
  options.group_commit = true;
  options.decision_batch = 4;
  options.scratch_dir = dir_;
  EXPECT_GT(sweep_recovery_crashes(options, workload_crashes(options)), 0);
}

TEST_F(MultiShotTortureFixture, FlushedOutcomeGroupBecomesRuleOne) {
  // Four instances prepared on shards 0 and 1, no outcome anywhere: rule 3.
  const auto wal = [&](int shard) { return dir_ / ("shard-" + std::to_string(shard) + ".wal"); };
  {
    db::KvStore shard0(wal(0));
    db::KvStore shard1(wal(1));
    for (db::TxnId txn = 1; txn <= 4; ++txn) {
      const std::string key = "k" + std::to_string(txn);
      ASSERT_TRUE(shard0.prepare(txn, {{key, "0"}}, {0, 1}));
      ASSERT_TRUE(shard1.prepare(txn, {{key, "1"}}, {0, 1}));
    }
  }
  // Recovery crashes right after its first outcome group (shard 0's) is on
  // disk, before shard 1's is written.
  FaultInjector injector(FaultPlan::wal_fault_at(0, FaultKind::kCrashAfter, 0));
  {
    db::KvStore shard0(wal(0));
    db::KvStore shard1(wal(1));
    shard0.set_fault_hook(&injector);
    shard1.set_fault_hook(&injector);
    db::RecoveryManager recovery({&shard0, &shard1}, {.seed = 3});
    EXPECT_THROW((void)recovery.resolve_all(), db::CrashInjected);
  }
  EXPECT_EQ(injector.sites_seen(), 1);  // the crash fired at the first group
  db::KvStore shard0(wal(0));
  db::KvStore shard1(wal(1));
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_EQ(shard1.in_doubt().size(), 4u);
  db::RecoveryManager recovery({&shard0, &shard1}, {.seed = 3});
  const db::RecoveryReport report = recovery.resolve_all();
  // Shard 0's flushed commits decide shard 1 by rule 1: no rerun needed.
  EXPECT_EQ(report, (db::RecoveryReport{.resolved_commit = 4}));
  for (db::TxnId txn = 1; txn <= 4; ++txn) {
    EXPECT_EQ(shard1.get("k" + std::to_string(txn)), "1");
  }
  EXPECT_EQ(recovery.survey_live(), recovery.survey_all());
}

// --- the unbatched execute() path under group commit ------------------------------

/// One 2-shard execute() — group commit on, one transaction per round,
/// simulator rounds — run under `plan` and then recovered from the WALs.
/// Returns every violation of all-or-none and of the driver's observed
/// outcome surviving the crash; `sites` is the number of sites reached.
std::vector<std::string> crash_single_execute(const fs::path& dir,
                                              const FaultPlan& plan,
                                              int64_t& sites) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  FaultInjector injector(plan);
  db::MultiShotDb::Options options;
  options.shard_count = 2;
  options.data_dir = dir;
  options.seed = 5;
  options.decision_transport = db::DecisionTransport::kSimulator;
  options.wal_fault_hook = &injector;
  options.group_commit = true;
  options.decision_batch = 1;
  std::optional<db::TxnOutcome> observed;
  try {
    db::MultiShotDb database(options);
    observed = database.execute(0, {{0, {{"a", "1"}}}, {1, {{"b", "1"}}}});
  } catch (const db::CrashInjected&) {
  }
  sites = injector.sites_seen();

  db::KvStore shard0(dir / "shard-0.wal");
  db::KvStore shard1(dir / "shard-1.wal");
  db::RecoveryManager recovery({&shard0, &shard1}, {.seed = 5});
  (void)recovery.resolve_all();
  std::vector<std::string> errors;
  const bool on0 = shard0.get("a").has_value();
  const bool on1 = shard1.get("b").has_value();
  if (on0 != on1) {
    errors.push_back("installed on shard " + std::string(on0 ? "0" : "1") +
                     " only");
  }
  if (observed.has_value() && observed->decided &&
      (observed->decision == Decision::kCommit) != (on0 && on1)) {
    errors.push_back("the observed outcome did not survive recovery");
  }
  return errors;
}

TEST_F(MultiShotTortureFixture, GroupCommitSingleExecuteIsAllOrNone) {
  // Every PREPARED must be durable before the decision round on the
  // unbatched execute() path too: otherwise a crash between the two shards'
  // outcome flushes leaves a commit record on one shard and nothing at all
  // on the other, and recovery installs the transaction on one shard only.
  int64_t sites = 0;
  ASSERT_TRUE(crash_single_execute(dir_ / "enumerate", FaultPlan::none(), sites)
                  .empty());
  ASSERT_GT(sites, 0);
  int crash_points = 0;
  for (int64_t site = 0; site < sites; ++site) {
    for (const FaultKind kind : SweepOptions{}.kinds) {
      int64_t reached = 0;
      const FaultPlan plan = FaultPlan::wal_fault_at(site, kind, 7);
      for (const auto& error : crash_single_execute(dir_ / "point", plan, reached)) {
        ADD_FAILURE() << "site " << site << " " << to_string(kind) << ": " << error;
      }
      ++crash_points;
    }
  }
  EXPECT_EQ(crash_points, sites * 5);
}

TEST_F(MultiShotTortureFixture, GroupOptionsRoundTripAndDefaultsAreLegacy) {
  MultiTortureOptions options;
  options.group_commit = true;
  options.decision_batch = 8;
  const auto back = MultiTortureOptions::deserialize(options.serialize());
  EXPECT_EQ(back.serialize(), options.serialize());
  EXPECT_TRUE(back.group_commit);
  EXPECT_EQ(back.decision_batch, 8);
  // A config written before the knobs existed deserializes to them off —
  // which is how the committed corpus entries keep replaying identically.
  std::string legacy;
  for (const auto& line : {std::string("shard_count=3"), std::string("batches=3"),
                           std::string("batch_size=8"), std::string("fanout=2"),
                           std::string("keys_per_shard=4"), std::string("seed=1")}) {
    legacy += line + "\n";
  }
  const auto old = MultiTortureOptions::deserialize(legacy);
  EXPECT_FALSE(old.group_commit);
  EXPECT_EQ(old.decision_batch, 1);
}

TEST_F(MultiShotTortureFixture, EnumerationIsStable) {
  MultiTortureOptions options;
  options.scratch_dir = dir_;
  const auto first = enumerate_sites(options);
  const auto second = enumerate_sites(options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].site, second[i].site);
    EXPECT_EQ(first[i].wal_name, second[i].wal_name);
    EXPECT_EQ(first[i].record_type, second[i].record_type);
    EXPECT_EQ(first[i].frame_size, second[i].frame_size);
  }
}

TEST_F(MultiShotTortureFixture, OptionsRoundTripThroughDisk) {
  MultiTortureOptions options;
  options.seed = 99;
  options.batches = 5;
  options.batch_size = 11;
  options.fanout = 3;
  const auto back = MultiTortureOptions::deserialize(options.serialize());
  EXPECT_EQ(back.serialize(), options.serialize());
}

TEST_F(MultiShotTortureFixture, ArtifactRoundTripsAndIsDetected) {
  // Group-commit knobs included: the loaded options are the written ones.
  const fs::path artifact_dir = dir_ / "artifact";
  MultiTortureOptions options;
  options.seed = 21;
  options.group_commit = true;
  options.decision_batch = 4;
  FaultPlan plan = FaultPlan::wal_fault_at(4, FaultKind::kPartialFlush);
  CrashPointResult expected;
  expected.crashed = true;
  expected.crash_site = 4;
  expected.sites_seen = 5;
  expected.digest = 0xdeadbeef;
  write_fault_artifact(artifact_dir, {options, plan, expected});
  const FaultArtifact back = load_fault_artifact(artifact_dir);
  EXPECT_EQ(back.options.serialize(), options.serialize());
  EXPECT_EQ(back.plan, plan);
  EXPECT_EQ(back.expected, expected);
}

TEST_F(MultiShotTortureFixture, CorpusEntriesReplayIdentically) {
  const fs::path corpus(RCOMMIT_MULTISHOT_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_directory()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    const FaultArtifact artifact = load_fault_artifact(entry.path());
    const CrashPointResult result = replay_fault_artifact(
        artifact, dir_ / ("corpus-" + entry.path().filename().string()));
    EXPECT_EQ(result, artifact.expected)
        << "expected:\n"
        << artifact.expected.serialize() << "got:\n"
        << result.serialize();
    ++replayed;
  }
  EXPECT_GE(replayed, 4) << "multishot corpus at " << corpus
                         << " must hold at least four committed entries "
                            "(two per-append, two group-commit)";
}

#ifdef RCOMMIT_LONG_TESTS
TEST_F(WalTortureFixture, SeedMatrixSweep) {
  // The long-test matrix: more seeds, bigger workloads, full fan-out.
  for (const uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    MultiTortureOptions options =
        one_at_a_time(seed, dir_ / ("seed-" + std::to_string(seed)));
    options.batches = 6;
    options.fanout = 3;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_clean_sweep(run_wal_sweep(options, {.threads = 4}));
  }
}
TEST_F(MultiShotTortureFixture, SeedMatrixSweep) {
  // The long-test matrix: more seeds, deeper pipelines, full fan-out.
  for (const uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    MultiTortureOptions options;
    options.seed = seed;
    options.batches = 4;
    options.batch_size = 10;
    options.fanout = 3;
    options.scratch_dir = dir_ / ("seed-" + std::to_string(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_clean_sweep(run_wal_sweep(options, {.threads = 4}));
  }
}
TEST_F(MultiShotTortureFixture, GroupCommitSeedMatrixSweep) {
  // The grouped site space under the same seed matrix: fewer sites per run
  // (boundary flushes only), each crash dropping far more buffered state.
  for (const uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    MultiTortureOptions options;
    options.seed = seed;
    options.batches = 4;
    options.batch_size = 10;
    options.fanout = 3;
    options.group_commit = true;
    options.decision_batch = 5;
    options.scratch_dir = dir_ / ("gseed-" + std::to_string(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_clean_sweep(run_wal_sweep(options, {.threads = 4}));
  }
}
#endif  // RCOMMIT_LONG_TESTS

}  // namespace
}  // namespace rcommit::faultinject
