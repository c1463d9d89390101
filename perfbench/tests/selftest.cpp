// Self-tests of the benchmark's own machinery. Run through
//
//   python3 perfbench/run.py --selftest
//
// which builds this binary and runs it with a scratch directory inside the
// checkout as its one argument. Exit code 0 when every check holds.
// Checks stay on in every build type (no assert).
#include <cmath>
#include <iostream>
#include <string>
#include <set>

#include "common.h"
#include "crash_image.h"
#include "db/recovery.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace rcommit;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> samples;
  for (int i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
  return samples;
}

void percentile_rule() {
  // p99 needs ten samples beyond it: 1000 samples have exactly ten above
  // the 990th, 999 have only nine.
  const auto p99 = tail_percentile(ramp(1000), 0.99);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  expect(!tail_percentile(ramp(999), 0.99).has_value(), "p99 refused at 999 samples");
  expect(tail_percentile(ramp(100), 0.9).value_or(0) == 90.0, "p90 of 1..100 is 90");
  expect(!tail_percentile(ramp(99), 0.9).has_value(), "p90 refused at 99 samples");
  expect(!tail_percentile({}, 0.5).has_value(), "no percentile of nothing");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  // A burst in one of three windows leaves the windowed p99 at the clean
  // windows' value.
  std::vector<double> three = ramp(1000);
  std::vector<double> burst = ramp(1000);
  for (int i = 900; i < 1000; ++i) burst[static_cast<size_t>(i)] = 1e6;
  three.insert(three.end(), burst.begin(), burst.end());
  const std::vector<double> clean = ramp(1000);
  three.insert(three.end(), clean.begin(), clean.end());
  expect(windowed_tail(three, 0.99, 1000, "three windows") == 990.0,
         "windowed p99 ignores a burst confined to one window");
  bool threw = false;
  try {
    (void)windowed_tail(ramp(999), 0.99, 1000, "no full window");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "windowed p99 needs one full window");
  threw = false;
  try {
    (void)require_tail(ramp(50), 0.99, "short run");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "require_tail rejects a run too short for its tail");
}

void generator_determinism() {
  PipelineInputs a(42);
  PipelineInputs b(42);
  PipelineInputs c(43);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    const auto batch_a = a.next_batch();
    const auto batch_b = b.next_batch();
    const auto batch_c = c.next_batch();
    expect(batch_a.size() == static_cast<size_t>(PipelineInputs::kBatch), "batch of 64");
    same = same && a.origin() == b.origin();
    for (size_t t = 0; t < batch_a.size(); ++t) {
      expect(batch_a[t].size() == 3, "fanout 3");
      for (const auto& [shard, writes] : batch_a[t]) {
        expect(writes.size() == 2, "2 writes per shard");
        const auto& other = batch_b[t].at(shard);
        for (size_t w = 0; w < writes.size(); ++w) {
          same = same && writes[w].key == other[w].key && writes[w].value == other[w].value;
        }
      }
      differs = differs || batch_a[t].begin()->first != batch_c[t].begin()->first ||
                batch_a[t].begin()->second[0].key != batch_c[t].begin()->second[0].key;
    }
  }
  expect(same, "pipeline inputs repeat for one seed");
  expect(differs, "pipeline inputs change with the seed");

  ThreadedInputs t1(7, 0);
  ThreadedInputs t2(7, 0);
  ThreadedInputs other_client(7, 1);
  std::set<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    const auto x = t1.next();
    const auto y = t2.next();
    const auto z = other_client.next();
    for (const auto* txn : {&x, &z}) {
      for (const auto& [shard, writes] : *txn) {
        (void)shard;
        for (const auto& write : writes) {
          expect(keys.insert(write.key).second, "threaded keys are unique");
        }
      }
    }
    bool equal = x.size() == y.size();
    for (const auto& [shard, writes] : x) {
      equal = equal && y.count(shard) == 1 && y.at(shard)[0].key == writes[0].key;
    }
    expect(equal, "threaded inputs repeat for one seed and client");
  }
}

void crash_image_mix(const fs::path& scratch) {
  // The very image the recovery workload builds (seed aside).
  constexpr uint64_t kSeed = 5;
  const CrashImage image = build_crash_image(kSeed, scratch / "image");
  std::map<DoubtKind, int> built;
  for (const auto& instance : image.in_doubt) ++built[instance.kind];
  for (const auto kind : {DoubtKind::kRecorded, DoubtKind::kMissing, DoubtKind::kSealed,
                          DoubtKind::kUnsealed}) {
    expect(built[kind] == 1024, "1024 instances of each kind listed");
  }
  expect(image.seals == 128, "one seal per 8 sealed instances");

  // Classify from the WALs alone, independently of the image's own list.
  const ShardStores stores = open_shards(image.dir);
  db::RecoveryManager manager(stores.raw, {.seed = kSeed});
  const db::BatchSurvey survey = manager.survey_all();
  std::set<db::TxnId> pending;
  for (const auto* store : stores.raw) {
    for (const db::TxnId txn : store->in_doubt()) pending.insert(txn);
  }
  expect(pending.size() == 4096, "4096 instances in doubt on some shard");
  std::set<db::TxnId> sealed;
  for (const auto& [batch, members] : survey.batches) {
    (void)batch;
    expect(members.size() == 8, "8 members per seal");
    sealed.insert(members.begin(), members.end());
  }
  int recorded = 0;
  int missing = 0;
  int sealed_count = 0;
  int unsealed = 0;
  for (const db::TxnId txn : pending) {
    bool any_commit = false;
    bool any_missing = false;
    for (int32_t shard = 0; shard < kShards; ++shard) {
      any_commit = any_commit || survey.status(shard, txn) == db::ShardTxnStatus::kCommitted;
    }
    for (const int32_t shard : survey.participants.at(txn)) {
      any_missing = any_missing || survey.status(shard, txn) == db::ShardTxnStatus::kUnknown;
    }
    if (any_commit) {
      ++recorded;
    } else if (any_missing) {
      ++missing;
    } else if (sealed.count(txn) == 1) {
      ++sealed_count;
    } else {
      ++unsealed;
    }
  }
  expect(recorded == 1024 && missing == 1024 && sealed_count == 1024 && unsealed == 1024,
         "the WALs hold 1024 of each rule (1, 2, sealed 3, unsealed 3)");
  const db::RecoveryReport report = manager.resolve_all();
  expect(report == image.expected, "resolve_all reports what the image predicts");
  expect(report.resolved_commit == 3072 && report.resolved_abort == 1024 &&
             report.reran_protocol == 128 + 1024,
         "expected counts: 3072 commits, 1024 aborts, 1152 reruns");
  expect(state_mismatches(stores.view(), image.final_state) == 0,
         "recovered state matches the image");
}

void wal_counters_across_checkpoint(const fs::path& scratch) {
  fs::create_directories(scratch);
  db::KvStore store(scratch / "counters.wal");
  WalCounters counters(1);
  const auto commit = [&store](int64_t id) {
    expect(store.prepare(id, {{"k" + std::to_string(id), "v"}}, {0}), "prepare");
    store.commit(id);
  };
  for (int64_t id = 1; id <= 5; ++id) commit(id);  // 4 records each
  expect(store.wal_stats().records_appended == 20, "20 records before the checkpoint");
  counters.before_checkpoint(0, store);
  store.checkpoint();
  expect(store.wal_stats().records_appended == 0,
         "checkpoint() restarts the store's WalStats (the counted defect)");
  for (int64_t id = 6; id <= 8; ++id) commit(id);
  const db::WalStats total = counters.total({&store});
  expect(total.records_appended == 32, "accumulated records span the checkpoint");
  expect(total.flushes == 32, "one flush per append outside group mode, accumulated");
  expect(total.bytes_written > store.wal_stats().bytes_written,
         "accumulated bytes exceed the live log's");
}

void host_speed() {
  HostSpeed speed;
  bool threw = false;
  try {
    (void)speed.factor();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "no host speed factor before a probe");
  for (int i = 0; i < 3; ++i) speed.probe();
  expect(speed.probes() == 3, "three probes recorded");
  // Scaling by the factor maps the median probe onto kReferenceMs, so a
  // time scaled by it is in reference-task units whatever the host's speed.
  expect(speed.factor() > 0.0 && std::isfinite(speed.factor()), "wall factor is positive");
  expect(speed.cpu_factor() > 0.0 && std::isfinite(speed.cpu_factor()),
         "CPU factor is positive");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest <scratch-dir>\n";
    return 2;
  }
  try {
    ScratchDir dir(argv[1]);
    percentile_rule();
    generator_determinism();
    crash_image_mix(dir.path());
    wal_counters_across_checkpoint(dir.path() / "wal");
    host_speed();
  } catch (const std::exception& error) {
    std::cerr << "selftest error: " << error.what() << "\n";
    return 1;
  }
  std::cout << (failures == 0 ? "selftest: all checks passed\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
