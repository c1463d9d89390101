// MultiShotDb: the pipelined multi-shot transaction engine.
//
//   * the 64-bit txn-id space composes and decomposes, and engine-allocated
//     ids are unique across shards with no coordination;
//   * execute_pipelined is a pure function of (options, workload) — same
//     seed, same decisions, same state;
//   * the no-wait lock table arbitrates conflicts deterministically (the
//     later arrival aborts; disjoint instances commit);
//   * a concurrency ramp (1 / 8 / 64 client threads) with a per-key
//     serializability read-back oracle: every committed write is readable,
//     every aborted write is not, and contended keys hold a committed value.
//
// RCOMMIT_LINT_ALLOW_FILE(R2): the concurrency ramp exists to hammer the
// engine from real client threads
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/multishot.h"
#include "db/recovery.h"

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

class MultiShotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_multishot_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] MultiShotDb::Options options(const std::string& sub) const {
    MultiShotDb::Options opts;
    opts.shard_count = 3;
    opts.data_dir = dir_ / sub;
    opts.seed = 42;
    return opts;
  }

  fs::path dir_;
};

TEST(MultiShotTxnId, ComposesAndDecomposes) {
  static_assert(make_txn_id(0, 1) == 1);
  static_assert(txn_origin(make_txn_id(7, 123)) == 7);
  static_assert(txn_sequence(make_txn_id(7, 123)) == 123);
  // 32767 is the largest legal origin: the top bit of the 16-bit origin
  // field is the TxnId sign bit, which the engine constructor reserves.
  const TxnId id = make_txn_id(32767, kTxnSequenceMask);
  EXPECT_EQ(txn_origin(id), 32767);
  EXPECT_EQ(txn_sequence(id), kTxnSequenceMask);
  // Distinct origins can never collide, whatever their sequences.
  EXPECT_NE(make_txn_id(1, 5), make_txn_id(2, 5));
  EXPECT_NE(make_txn_id(1, kTxnSequenceMask), make_txn_id(2, 1));
}

TEST_F(MultiShotFixture, EngineAllocatedIdsAreUniqueAcrossShards) {
  MultiShotDb database(options("unique"));
  for (int32_t origin = 0; origin < 3; ++origin) {
    for (int i = 0; i < 4; ++i) {
      const GeneratedTxn writes = {
          {origin, {{"o" + std::to_string(origin) + ":k" + std::to_string(i),
                     "v"}}}};
      EXPECT_TRUE(database.execute(origin, writes).decided);
    }
  }
  // Read the ids back out of the WALs: all distinct, each tagged with the
  // origin shard that allocated it.
  std::vector<KvStore*> shards;
  for (int32_t i = 0; i < 3; ++i) shards.push_back(&database.shard(i));
  RecoveryManager recovery(shards, {});
  const BatchSurvey survey = recovery.survey_all();
  std::set<TxnId> seen;
  for (const auto& shard_statuses : survey.statuses) {
    for (const auto& [txn, status] : shard_statuses) {
      (void)status;
      seen.insert(txn);
      EXPECT_GE(txn_origin(txn), 0);
      EXPECT_LT(txn_origin(txn), 3);
      EXPECT_GE(txn_sequence(txn), 1);  // sequence 0 is reserved
    }
  }
  EXPECT_EQ(seen.size(), 12u);  // 3 origins x 4 txns, no collisions
  std::map<int32_t, int> per_origin;
  for (const TxnId txn : seen) ++per_origin[txn_origin(txn)];
  for (int32_t origin = 0; origin < 3; ++origin) {
    EXPECT_EQ(per_origin[origin], 4) << "origin " << origin;
  }
}

TEST_F(MultiShotFixture, ReopenedEngineNeverReallocatesALoggedId) {
  // An earlier incarnation aborted make_txn_id(0, 1) on both shards; an
  // engine reopened over its logs must allocate past that id, or shard 0's
  // log would hold an ABORT and a COMMIT for one id.
  MultiShotDb::Options opts = options("reopen");
  opts.shard_count = 2;
  fs::create_directories(opts.data_dir);
  const TxnId first = make_txn_id(0, 1);
  const auto wal_path = [&](int32_t shard) {
    return opts.data_dir / ("shard-" + std::to_string(shard) + ".wal");
  };
  for (int32_t shard = 0; shard < 2; ++shard) {
    KvStore store(wal_path(shard));
    ASSERT_TRUE(store.prepare(first, {{"old" + std::to_string(shard), "v"}}, {0, 1}));
    store.abort(first);
  }

  MultiShotDb database(opts);
  ASSERT_EQ(database.execute(0, {{0, {{"a", "1"}}}, {1, {{"b", "1"}}}}).decision,
            Decision::kCommit);
  for (int32_t shard = 0; shard < 2; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    std::map<TxnId, std::set<WalRecordType>> outcomes;
    scan_wal(wal_path(shard), [&outcomes](WalRecord&& record) {
      if (record.type == WalRecordType::kCommit || record.type == WalRecordType::kAbort) {
        outcomes[record.txn_id].insert(record.type);
      }
    });
    EXPECT_EQ(outcomes, (std::map<TxnId, std::set<WalRecordType>>{
                            {first, {WalRecordType::kAbort}},
                            {make_txn_id(0, 2), {WalRecordType::kCommit}}}));
  }
}

TEST_F(MultiShotFixture, LiveSurveysMatchTheLogsOnDisk) {
  // A database that is never reopened: group commit, sealed decision
  // batches, lock-conflict aborts, plus one instance left in doubt. Every
  // store's survey, kept current by its prepares, outcomes and seals, must
  // equal what reading the logs back from disk builds.
  MultiShotDb::Options opts = options("live");
  opts.group_commit = true;
  opts.decision_batch = 4;
  MultiShotDb database(opts);
  std::vector<GeneratedTxn> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back({{i % 3, {{"k" + std::to_string(i % 2), "v" + std::to_string(i)}}},
                     {(i + 1) % 3, {{"j" + std::to_string(i), "v"}}}});
  }
  const auto outcomes = database.execute_pipelined(0, batch);
  int committed = 0;
  for (const auto& outcome : outcomes) {
    committed += outcome.decided && outcome.decision == Decision::kCommit ? 1 : 0;
  }
  EXPECT_GT(committed, 0);
  EXPECT_LT(committed, 12);  // the shared keys force lock-conflict aborts
  ASSERT_TRUE(database.shard(1).prepare(make_txn_id(3, 1), {{"held", "x"}}, {1, 2}));
  database.flush_wals();
  std::vector<KvStore*> shards;
  for (int32_t i = 0; i < 3; ++i) shards.push_back(&database.shard(i));
  RecoveryManager recovery(shards, {});
  const BatchSurvey live = recovery.survey_live();
  EXPECT_EQ(live, recovery.survey_all());
  EXPECT_FALSE(live.batches.empty());
  EXPECT_EQ(live.status(1, make_txn_id(3, 1)), ShardTxnStatus::kPrepared);
  // The engine's groups stay open, so resolve_all's outcome joins them and
  // is on disk after the engine's next flush; the surveys follow it.
  const RecoveryReport report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_abort, 1);  // participant 2 never prepared it
  database.flush_wals();
  EXPECT_EQ(recovery.survey_live(), recovery.survey_all());
  EXPECT_EQ(recovery.survey_live().status(1, make_txn_id(3, 1)), ShardTxnStatus::kAborted);
}

TEST_F(MultiShotFixture, PipelinedBatchIsDeterministic) {
  std::vector<GeneratedTxn> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back({{i % 3, {{"k" + std::to_string(i), "v"}}},
                     {(i + 1) % 3, {{"k" + std::to_string(i), "v"}}}});
  }
  const auto run = [&](const std::string& sub) {
    MultiShotDb database(options(sub));
    const auto outcomes = database.execute_pipelined(0, batch);
    std::vector<std::map<std::string, std::string>> snapshots;
    for (int32_t i = 0; i < 3; ++i) {
      snapshots.push_back(database.shard(i).snapshot());
    }
    return std::make_pair(outcomes, snapshots);
  };
  const auto [first_outcomes, first_state] = run("a");
  const auto [second_outcomes, second_state] = run("b");
  ASSERT_EQ(first_outcomes.size(), second_outcomes.size());
  for (size_t i = 0; i < first_outcomes.size(); ++i) {
    EXPECT_EQ(first_outcomes[i].decided, second_outcomes[i].decided);
    EXPECT_EQ(first_outcomes[i].decision, second_outcomes[i].decision);
  }
  EXPECT_EQ(first_state, second_state);
}

TEST_F(MultiShotFixture, LockConflictAbortMatrix) {
  // One batch; within it the no-wait lock table decides every conflict in
  // arrival order: the earlier instance holds its keys through the whole
  // pipeline, the later arrival votes abort at its first locked key.
  MultiShotDb database(options("conflicts"));
  const std::vector<GeneratedTxn> batch = {
      {{0, {{"a", "t0"}}}, {1, {{"b", "t0"}}}},  // 0: commits
      {{0, {{"a", "t1"}}}},                      // 1: loses "a" on shard 0
      {{1, {{"b", "t2"}}}, {2, {{"c", "t2"}}}},  // 2: loses "b" on shard 1 —
                                                 //    so it never locks "c"
      {{2, {{"d", "t3"}}}},                      // 3: disjoint — commits
      {{0, {{"e", "t4"}}}, {2, {{"c", "t4"}}}},  // 4: "c" is free (2's prepare
                                                 //    short-circuited) — commits
      {{2, {{"c", "t5"}}}},                      // 5: loses "c" to 4
  };
  const auto outcomes = database.execute_pipelined(0, batch);
  ASSERT_EQ(outcomes.size(), 6u);
  const std::vector<Decision> expected = {Decision::kCommit, Decision::kAbort,
                                          Decision::kAbort, Decision::kCommit,
                                          Decision::kCommit, Decision::kAbort};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(outcomes[i].decided) << "txn " << i;
    EXPECT_EQ(outcomes[i].decision, expected[i]) << "txn " << i;
  }
  EXPECT_EQ(database.stats().committed, 3);
  EXPECT_EQ(database.stats().conflict_aborts, 3);
  EXPECT_EQ(database.stats().in_doubt, 0);
  // Committed values only: conflict losers leave no trace anywhere.
  EXPECT_EQ(database.get(0, "a"), "t0");
  EXPECT_EQ(database.get(1, "b"), "t0");
  EXPECT_EQ(database.get(2, "c"), "t4");
  EXPECT_EQ(database.get(2, "d"), "t3");
  EXPECT_EQ(database.get(0, "e"), "t4");
}

TEST_F(MultiShotFixture, ConflictOrderIsDeterministicAcrossRuns) {
  const std::vector<GeneratedTxn> batch = {
      {{0, {{"x", "first"}}}, {1, {{"y", "first"}}}},
      {{1, {{"y", "second"}}}, {2, {{"z", "second"}}}},
  };
  for (const std::string sub : {"order-a", "order-b"}) {
    MultiShotDb database(options(sub));
    const auto outcomes = database.execute_pipelined(1, batch);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].decision, Decision::kCommit);
    EXPECT_EQ(outcomes[1].decision, Decision::kAbort);
  }
}

// The ramp: `clients` threads each run `txns_per_client` transactions
// through execute(). Private keys form an exact read-back oracle; one
// contended key per shard checks that whatever survives was committed.
void run_ramp(const MultiShotDb::Options& opts, int clients,
              int txns_per_client) {
  MultiShotDb database(opts);
  std::mutex mu;
  std::map<std::string, std::string> committed_contended;  // value -> value
  std::vector<std::map<int32_t, std::map<std::string, std::string>>> expected(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < txns_per_client; ++i) {
        const int32_t origin = c % opts.shard_count;
        const int32_t other = (c + 1) % opts.shard_count;
        const std::string value =
            "c" + std::to_string(c) + ":v" + std::to_string(i);
        if (i % 4 == 3) {
          // Contended cross-shard write: may commit or conflict-abort.
          const GeneratedTxn writes = {{origin, {{"contended", value}}},
                                       {other, {{"contended", value}}}};
          const auto outcome = database.execute(origin, writes);
          ASSERT_TRUE(outcome.decided);
          if (outcome.decision == Decision::kCommit) {
            std::lock_guard<std::mutex> hold(mu);
            committed_contended[value] = value;
          }
          continue;
        }
        // Private cross-shard write: no other client touches these keys, so
        // it must commit, and the last write per key must read back.
        const std::string key =
            "c" + std::to_string(c) + ":k" + std::to_string(i % 2);
        const GeneratedTxn writes = {{origin, {{key, value}}},
                                     {other, {{key, value}}}};
        const auto outcome = database.execute(origin, writes);
        ASSERT_TRUE(outcome.decided);
        ASSERT_EQ(outcome.decision, Decision::kCommit);
        expected[static_cast<size_t>(c)][origin][key] = value;
        expected[static_cast<size_t>(c)][other][key] = value;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Quiescent read-back: serializability per key.
  for (int c = 0; c < clients; ++c) {
    for (const auto& [shard, keys] : expected[static_cast<size_t>(c)]) {
      for (const auto& [key, value] : keys) {
        EXPECT_EQ(database.get(shard, key), value)
            << "client " << c << " shard " << shard;
      }
    }
  }
  for (int32_t shard = 0; shard < opts.shard_count; ++shard) {
    const auto contended = database.get(shard, "contended");
    if (contended.has_value()) {
      EXPECT_TRUE(committed_contended.count(*contended) > 0)
          << "shard " << shard << " holds an uncommitted value " << *contended;
    }
  }
  const auto stats = database.stats();
  EXPECT_EQ(stats.in_doubt, 0);
  EXPECT_EQ(stats.committed + stats.aborted,
            static_cast<int64_t>(clients) * txns_per_client);
  EXPECT_EQ(stats.aborted, stats.conflict_aborts);  // only locks abort here
}

// --- group commit + decision batching ----------------------------------------------

TEST_F(MultiShotFixture, GroupedBatchedPipelineMatchesUngroupedSemantics) {
  // Same workload through the PR 9 configuration and through group-commit +
  // decision batching: per-txn outcomes and final shard state must agree.
  // (Batched rounds run under a different instance mix, so this is semantic
  // equivalence via commit-validity, not a byte-identical trace.)
  std::vector<GeneratedTxn> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back({{i % 3, {{"k" + std::to_string(i % 5), "v" + std::to_string(i)}}},
                    {(i + 1) % 3, {{"j" + std::to_string(i % 5), "v" + std::to_string(i)}}}});
  }
  const auto run = [&](const std::string& sub, bool grouped) {
    auto opts = options(sub);
    if (grouped) {
      opts.group_commit = true;
      opts.decision_batch = 4;
    }
    MultiShotDb database(opts);
    const auto outcomes = database.execute_pipelined(0, batch);
    std::vector<std::map<std::string, std::string>> snapshots;
    for (int32_t i = 0; i < 3; ++i) {
      snapshots.push_back(database.shard(i).snapshot());
    }
    return std::make_pair(outcomes, snapshots);
  };
  const auto [plain_outcomes, plain_state] = run("plain", false);
  const auto [group_outcomes, group_state] = run("group", true);
  ASSERT_EQ(plain_outcomes.size(), group_outcomes.size());
  for (size_t i = 0; i < plain_outcomes.size(); ++i) {
    EXPECT_EQ(plain_outcomes[i].decided, group_outcomes[i].decided) << i;
    EXPECT_EQ(plain_outcomes[i].decision, group_outcomes[i].decision) << i;
  }
  EXPECT_EQ(plain_state, group_state);
}

TEST_F(MultiShotFixture, GroupedBatchedPipelineIsDeterministic) {
  std::vector<GeneratedTxn> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back({{i % 3, {{"k" + std::to_string(i), "v"}}},
                     {(i + 2) % 3, {{"k" + std::to_string(i), "v"}}}});
  }
  const auto run = [&](const std::string& sub) {
    auto opts = options(sub);
    opts.group_commit = true;
    opts.decision_batch = 4;
    MultiShotDb database(opts);
    const auto outcomes = database.execute_pipelined(2, batch);
    std::vector<std::map<std::string, std::string>> snapshots;
    for (int32_t i = 0; i < 3; ++i) {
      snapshots.push_back(database.shard(i).snapshot());
    }
    return std::make_pair(outcomes, snapshots);
  };
  const auto [first_outcomes, first_state] = run("det-a");
  const auto [second_outcomes, second_state] = run("det-b");
  ASSERT_EQ(first_outcomes.size(), second_outcomes.size());
  for (size_t i = 0; i < first_outcomes.size(); ++i) {
    EXPECT_EQ(first_outcomes[i].decision, second_outcomes[i].decision) << i;
  }
  EXPECT_EQ(first_state, second_state);
}

TEST_F(MultiShotFixture, GroupCommitAmortizesFlushes) {
  std::vector<GeneratedTxn> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back({{i % 3, {{"p" + std::to_string(i), "v"}}},
                     {(i + 1) % 3, {{"q" + std::to_string(i), "v"}}}});
  }
  auto plain_opts = options("flush-plain");
  MultiShotDb plain(plain_opts);
  (void)plain.execute_pipelined(0, batch);
  const WalStats plain_stats = plain.wal_stats();
  // Ungrouped: every logical append is its own physical flush.
  EXPECT_EQ(plain_stats.flushes, plain_stats.records_appended);

  auto group_opts = options("flush-group");
  group_opts.group_commit = true;
  group_opts.decision_batch = 8;
  MultiShotDb grouped(group_opts);
  (void)grouped.execute_pipelined(0, batch);
  const WalStats group_stats = grouped.wal_stats();
  // Grouped runs append at least the plain record stream (plus kBatchSeal
  // hints for multi-member decision chunks).
  EXPECT_GE(group_stats.records_appended, plain_stats.records_appended);
  // Group mode coalesces the whole pipeline into a handful of boundary
  // flushes: Phase A and Phase C per touched shard, per decision chunk.
  EXPECT_LT(group_stats.flushes * 4, group_stats.records_appended);
  EXPECT_GT(group_stats.records_per_flush(), 4.0);
}

TEST_F(MultiShotFixture, ThreadedBatchedRampKeepsOracle) {
  // The serializability ramp, with batched decision rounds and group commit
  // on: the read-back oracle must hold exactly as in the unbatched ramp.
  auto opts = options("ramp-batched");
  opts.group_commit = true;
  opts.decision_batch = 4;
  run_ramp(opts, 8, 8);
}

TEST_F(MultiShotFixture, ConcurrencyRampOneClient) {
  run_ramp(options("ramp1"), 1, 8);
}

TEST_F(MultiShotFixture, ConcurrencyRampEightClients) {
  run_ramp(options("ramp8"), 8, 8);
}

TEST_F(MultiShotFixture, ConcurrencyRampSixtyFourClients) {
  run_ramp(options("ramp64"), 64, 4);
}

}  // namespace
}  // namespace rcommit::db
