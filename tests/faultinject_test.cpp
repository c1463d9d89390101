// Tests for the deterministic fault-injection layer: plan derivation and
// round-tripping, the WAL injector (every kind fires exactly once under a
// targeted plan; the zero-fault plan is byte-identical to no instrumentation),
// the RPC decorator, and the fault-plan shrinking axis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "db/kv.h"
#include "faultinject/netfault.h"
#include "faultinject/plan.h"
#include "faultinject/torture.h"
#include "swarm/shrink.h"

namespace rcommit::faultinject {
namespace {

namespace fs = std::filesystem;

class FaultInjectFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_faultinject_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FaultPlanTest, SerializeRoundTrips) {
  FaultPlan plan = FaultPlan::none();
  plan.add({3, FaultKind::kTornWrite, 12345});
  plan.add({7, FaultKind::kDuplicate, 0});
  plan.add({2, FaultKind::kRpcDelay, 4});
  const FaultPlan back = FaultPlan::deserialize(plan.serialize());
  EXPECT_EQ(back, plan);
  EXPECT_EQ(back.wal_action_at(3), (FaultAction{3, FaultKind::kTornWrite, 12345}));
  EXPECT_EQ(back.wal_action_at(4).kind, FaultKind::kNone);
  EXPECT_EQ(back.rpc_action_at(2).kind, FaultKind::kRpcDelay);
}

TEST(FaultPlanTest, FromSeedIsDeterministic) {
  const FaultPlanOptions options{.wal_horizon = 64, .rpc_horizon = 64,
                                 .wal_rate = 0.2, .rpc_rate = 0.2};
  EXPECT_EQ(FaultPlan::from_seed(42, options), FaultPlan::from_seed(42, options));
  EXPECT_NE(FaultPlan::from_seed(42, options), FaultPlan::from_seed(43, options));
  // Zero rates draw nothing.
  EXPECT_TRUE(FaultPlan::from_seed(42, {}).empty());
}

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kCrashBefore, FaultKind::kTornWrite, FaultKind::kPartialFlush,
        FaultKind::kDuplicate, FaultKind::kCrashAfter, FaultKind::kRpcDrop,
        FaultKind::kRpcDuplicate, FaultKind::kRpcDelay, FaultKind::kRpcReorder}) {
    EXPECT_EQ(parse_fault_kind(to_string(kind)), kind);
  }
}

TEST_F(FaultInjectFixture, EveryWalKindFiresExactlyOnce) {
  // A targeted plan at site 2 fires its kind exactly once: sites 0 and 1 stay
  // clean, and for crash kinds nothing runs after the throw.
  for (const FaultKind kind :
       {FaultKind::kCrashBefore, FaultKind::kTornWrite, FaultKind::kPartialFlush,
        FaultKind::kDuplicate, FaultKind::kCrashAfter}) {
    const fs::path wal =
        dir_ / (std::string("wal-") + to_string(kind) + ".log");
    FaultInjector injector(FaultPlan::wal_fault_at(2, kind, 77));
    bool crashed = false;
    try {
      db::KvStore store(wal);
      store.set_fault_hook(&injector);
      // Each prepare appends kBegin + kWrite + kPrepared = 3 sites, so site 2
      // is the first transaction's PREPARED record.
      ASSERT_TRUE(store.prepare(1, {{"a", "A"}}));
      ASSERT_TRUE(store.prepare(2, {{"b", "B"}}));
    } catch (const db::CrashInjected& crash) {
      crashed = true;
      EXPECT_EQ(crash.site(), 2) << to_string(kind);
    }
    EXPECT_EQ(crashed, is_crash_kind(kind)) << to_string(kind);
    EXPECT_EQ(injector.fired(kind), 1) << to_string(kind);
    ASSERT_GE(injector.sites().size(), 3u);
    EXPECT_EQ(injector.sites()[2].fired, kind);
    EXPECT_EQ(injector.sites()[0].fired, FaultKind::kNone);
    EXPECT_EQ(injector.sites()[1].fired, FaultKind::kNone);
  }
}

TEST_F(FaultInjectFixture, TornCommitRecordLeavesTxnInDoubt) {
  const fs::path wal = dir_ / "torn-commit.log";
  FaultInjector injector(FaultPlan::wal_fault_at(3, FaultKind::kTornWrite, 5));
  try {
    db::KvStore store(wal);
    store.set_fault_hook(&injector);
    ASSERT_TRUE(store.prepare(1, {{"a", "A"}}));
    store.commit(1);
    FAIL() << "commit should have crashed";
  } catch (const db::CrashInjected&) {
  }
  // Torn final frame: replay trusts the prepare but not the commit.
  db::KvStore recovered(wal);
  EXPECT_EQ(recovered.get("a"), std::nullopt);
  EXPECT_EQ(recovered.in_doubt(), std::vector<db::TxnId>{1});
}

TEST_F(FaultInjectFixture, CrashedPrepareReleasesItsLocks) {
  // Regression: a crash while appending the PREPARED record used to leave
  // the transaction's key locks held, so a caller that survived the
  // exception could never prepare those keys again. The PREPARED record was
  // never durable, so the store must behave as if the prepare never started.
  const fs::path wal = dir_ / "crashed-prepare.log";
  FaultInjector injector(
      FaultPlan::wal_fault_at(2, FaultKind::kCrashBefore, 0));
  db::KvStore store(wal);
  store.set_fault_hook(&injector);
  EXPECT_THROW(store.prepare(1, {{"a", "A"}}), db::CrashInjected);

  // Same key, new transaction: succeeds only if txn 1's locks were released.
  EXPECT_TRUE(store.prepare(2, {{"a", "A2"}}));

  // Recovery agrees: the half-appended txn 1 is an unprepared leftover and
  // is dropped; only txn 2 is in doubt.
  db::KvStore recovered(wal);
  EXPECT_EQ(recovered.get("a"), std::nullopt);
  EXPECT_EQ(recovered.in_doubt(), std::vector<db::TxnId>{2});
}

TEST_F(FaultInjectFixture, CrashedAbortCanBeRetried) {
  // Regression: abort() used to erase the staged entry before appending the
  // ABORT record, so a crash during the append made the retry a silent
  // no-op — memory said "gone" while the log still said prepared, and the
  // transaction came back in-doubt after recovery.
  const fs::path wal = dir_ / "crashed-abort.log";
  // Sites 0-2 are txn 1's BEGIN/WRITE/PREPARED; site 3 is the ABORT record.
  FaultInjector injector(
      FaultPlan::wal_fault_at(3, FaultKind::kCrashBefore, 0));
  db::KvStore store(wal);
  store.set_fault_hook(&injector);
  ASSERT_TRUE(store.prepare(1, {{"a", "A"}}));
  EXPECT_THROW(store.abort(1), db::CrashInjected);

  // The staged entry survived, so the retry appends the ABORT record (site
  // 4, clean) and the transaction resolves.
  store.abort(1);
  EXPECT_EQ(injector.sites_seen(), 5);

  // A third abort is a no-op — the entry is gone now, and no duplicate
  // ABORT record is appended.
  store.abort(1);
  EXPECT_EQ(injector.sites_seen(), 5);

  // After the retried abort the key is free and recovery sees a resolved
  // transaction, not an in-doubt one.
  EXPECT_TRUE(store.prepare(2, {{"a", "A2"}}));
  db::KvStore recovered(wal);
  EXPECT_EQ(recovered.get("a"), std::nullopt);
  EXPECT_EQ(recovered.in_doubt(), std::vector<db::TxnId>{2});
}

TEST_F(FaultInjectFixture, ZeroFaultPlanIsByteIdentical) {
  // Running under the empty plan must leave WALs byte-identical to an
  // uninstrumented run — instrumenting storage cannot perturb it.
  const auto run = [&](const fs::path& sub, db::WalFaultHook* hook) {
    fs::create_directories(dir_ / sub);
    db::KvStore store(dir_ / sub / "shard.wal");
    if (hook != nullptr) store.set_fault_hook(hook);
    EXPECT_TRUE(store.prepare(1, {{"a", "A"}, {"b", "B"}}, {0, 1}));
    store.commit(1);
    EXPECT_TRUE(store.prepare(2, {{"a", "A2"}}));
    store.abort(2);
    store.checkpoint();
    EXPECT_TRUE(store.prepare(3, {{"c", "C"}}));
  };
  FaultInjector injector(FaultPlan::none());
  run("plain", nullptr);
  run("hooked", &injector);
  EXPECT_GT(injector.sites_seen(), 0);
  EXPECT_EQ(file_bytes(dir_ / "plain" / "shard.wal"),
            file_bytes(dir_ / "hooked" / "shard.wal"));
}

/// Records every frame that reaches the wire, in order.
class CaptureNetwork final : public transport::Network {
 public:
  void start() override {}
  void stop() override {}
  void send(const transport::WireFrame& frame) override {
    sent.push_back(frame);
  }
  transport::Channel<std::vector<uint8_t>>& inbox(ProcId) override {
    return inbox_;
  }
  [[nodiscard]] int32_t n() const override { return 2; }

  std::vector<transport::WireFrame> sent;

 private:
  transport::Channel<std::vector<uint8_t>> inbox_;
};

transport::WireFrame make_frame(uint8_t tag) {
  transport::WireFrame frame;
  frame.from = 0;
  frame.to = 1;
  frame.payload = {tag};
  return frame;
}

TEST(FaultyNetworkTest, DropDuplicateDelayReorder) {
  CaptureNetwork capture;
  FaultPlan plan = FaultPlan::none();
  plan.add({1, FaultKind::kRpcDrop, 0});
  plan.add({2, FaultKind::kRpcDuplicate, 0});
  plan.add({4, FaultKind::kRpcReorder, 0});
  plan.add({6, FaultKind::kRpcDelay, 2});
  FaultyNetwork faulty(capture, plan);
  for (uint8_t tag = 0; tag < 9; ++tag) faulty.send(make_frame(tag));

  // site 0 clean; 1 dropped; 2 duplicated; 3 clean; 4 held until after 5;
  // 5 clean (releases 4); 6 held until after 8; 7, 8 clean (8 releases 6).
  std::vector<uint8_t> order;
  for (const auto& frame : capture.sent) order.push_back(frame.payload.at(0));
  EXPECT_EQ(order, (std::vector<uint8_t>{0, 2, 2, 3, 5, 4, 7, 8, 6}));
  EXPECT_EQ(faulty.sites_seen(), 9);
  EXPECT_EQ(faulty.dropped(), 1);
  EXPECT_EQ(faulty.duplicated(), 1);
  EXPECT_EQ(faulty.held(), 2);
  EXPECT_EQ(faulty.lost_on_stop(), 0);
}

TEST(FaultyNetworkTest, FrameHeldAtStopIsLost) {
  CaptureNetwork capture;
  FaultPlan plan = FaultPlan::rpc_fault_at(0, FaultKind::kRpcDelay, 100);
  FaultyNetwork faulty(capture, plan);
  faulty.send(make_frame(1));
  faulty.stop();
  EXPECT_TRUE(capture.sent.empty());
  EXPECT_EQ(faulty.lost_on_stop(), 1);
}

TEST(DdminKeepTest, ShrinksToViolatingPair) {
  // Violation requires indices 3 and 7 together; ddmin must find exactly that
  // pair from a 12-element schedule.
  int evals = 0;
  const auto violates = [](const std::vector<size_t>& keep) {
    bool has3 = false;
    bool has7 = false;
    for (const size_t index : keep) {
      has3 |= index == 3;
      has7 |= index == 7;
    }
    return has3 && has7;
  };
  const auto kept = swarm::ddmin_keep(12, violates, {}, &evals);
  EXPECT_EQ(kept, (std::vector<size_t>{3, 7}));
  EXPECT_GT(evals, 0);
}

TEST(DdminKeepTest, NonViolatingSetReturnsUnchanged) {
  const auto kept =
      swarm::ddmin_keep(5, [](const std::vector<size_t>&) { return false; });
  EXPECT_EQ(kept.size(), 5u);
}

/// Pads a crash with harmless duplicate actions; shrinking against the "did
/// it crash" oracle must strip the padding and keep one crash action.
void expect_shrinks_to_the_crash(const MultiTortureOptions& options,
                                 const fs::path& eval_dir) {
  FaultPlan plan = FaultPlan::none();
  plan.add({1, FaultKind::kDuplicate, 0});
  plan.add({4, FaultKind::kDuplicate, 0});
  plan.add({6, FaultKind::kCrashAfter, 0});
  const auto all = plan.all_actions();
  const auto violates = [&](const std::vector<size_t>& keep) {
    std::vector<FaultAction> subset;
    for (const size_t index : keep) subset.push_back(all[index]);
    MultiTortureOptions point = options;
    point.scratch_dir = eval_dir;
    return run_crash_point(point, plan.with_actions(subset)).crashed;
  };
  const auto kept = swarm::ddmin_keep(all.size(), violates);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(all[kept[0]].kind, FaultKind::kCrashAfter);
}

TEST_F(FaultInjectFixture, ShrinkFaultPlanDropsIrrelevantActions) {
  // One transaction at a time: three batches of one instance.
  MultiTortureOptions options;
  options.batches = 3;
  options.batch_size = 1;
  expect_shrinks_to_the_crash(options, dir_ / "shrink-eval");
}

TEST_F(FaultInjectFixture, ShrinkPipelinedFaultPlanDropsIrrelevantActions) {
  // The same padding with eight instances per batch: site 6 falls inside the
  // first batch, with several instances prepared and undecided.
  expect_shrinks_to_the_crash(MultiTortureOptions{}, dir_ / "shrink-eval");
}

}  // namespace
}  // namespace rcommit::faultinject
