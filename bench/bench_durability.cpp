// E15 — durability under crash-point fault injection.
//
// The paper's §1 guarantee — a transaction's updates are installed "at all
// processors or at no processor" — is only as strong as the durability layer
// it stands on. This bench drives the crash-point torture suite
// (src/faultinject) as a measurement: an exhaustive (site × kind) sweep of
// WAL crash points must recover equivalently to the reference state machine
// at every point, the zero-fault instrumentation must be byte-identical to
// an uninstrumented run, and the overhead of carrying the injection hook on
// the hot append path is reported. Two tracked scalars time what a restart
// costs over a seeded crash image: reopening the shard stores (reopen_ms)
// and resolving their in-doubt transactions (resolve_all_ms).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "common/stats.h"
#include "db/kv.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "db/workload.h"
#include "faultinject/torture.h"
#include "metrics/report.h"

namespace {

using namespace rcommit;
namespace fs = std::filesystem;

fs::path scratch_root() {
  return fs::temp_directory_path() /
         ("rcommit_bench_durability_" + std::to_string(::getpid()));
}

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Appends `appends` single-write prepares and times them; `hook` nullptr
/// measures the uninstrumented WAL.
double append_rate(const fs::path& dir, int appends, db::WalFaultHook* hook) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  db::KvStore store(dir / "shard.wal");
  if (hook != nullptr) store.set_fault_hook(hook);
  // Real disk I/O is the measurement here, not a simulation input.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < appends; ++i) {
    store.prepare(i + 1, {{"k" + std::to_string(i), "v"}});
    store.commit(i + 1);
  }
  const auto end = std::chrono::steady_clock::now();
  const auto elapsed = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(appends) / elapsed;
}

// --- restart cost over a crash image ------------------------------------------

constexpr int32_t kImageShards = 5;
constexpr int kSealEvery = 8;  ///< sealed rule-3 instances per seal

fs::path image_wal(const fs::path& dir, int32_t shard) {
  return dir / ("shard-" + std::to_string(shard) + ".wal");
}

std::vector<int32_t> participants_of(const db::GeneratedTxn& txn) {
  std::vector<int32_t> shards;
  for (const auto& [shard, writes] : txn) shards.push_back(shard);
  return shards;
}

/// Writes into `dir` the shard logs a crashed multi-shot engine would leave,
/// through the KvStore calls the engine makes: `resolved` transactions
/// prepared and committed everywhere, then `in_doubt` instances cycling
/// through the recovery rules — rule 1 (commit recorded on one shard only),
/// rule 2 (the last listed participant never prepared), and rule 3 (all
/// prepared, no outcome), sealed in batches of kSealEvery or unsealed.
/// Returns what resolve_all must report on it.
db::RecoveryReport build_crash_image(const fs::path& dir, uint64_t seed, int resolved,
                                     int in_doubt) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::unique_ptr<db::KvStore>> stores;
  for (int32_t shard = 0; shard < kImageShards; ++shard) {
    stores.push_back(std::make_unique<db::KvStore>(image_wal(dir, shard)));
    stores.back()->wal_begin_group();  // batches flushes only; same frames
  }
  std::vector<int64_t> sequence(kImageShards, 1);
  const auto next_id = [&](int32_t origin) {
    return db::make_txn_id(origin, sequence[static_cast<size_t>(origin)]++);
  };
  const auto prepare = [&](db::TxnId txn, const db::GeneratedTxn& writes, int32_t shard,
                           const std::vector<int32_t>& participants) {
    RCOMMIT_CHECK(stores[static_cast<size_t>(shard)]->prepare(txn, writes.at(shard),
                                                              participants));
  };
  const db::WorkloadOptions shape{.shard_count = kImageShards,
                                  .keys_per_shard = 2000,
                                  .fanout = 3,
                                  .writes_per_shard = 2,
                                  .skew = 0.9};

  db::WorkloadGenerator history(shape, seed);
  for (int i = 0; i < resolved; ++i) {
    const db::GeneratedTxn txn = history.next();
    const std::vector<int32_t> participants = participants_of(txn);
    const db::TxnId id = next_id(participants.front());
    for (const int32_t shard : participants) prepare(id, txn, shard, participants);
    for (const int32_t shard : participants) stores[static_cast<size_t>(shard)]->commit(id);
  }

  // In-doubt instances keep their locks, so each writes keys of its own.
  db::WorkloadGenerator doubts(shape, seed + 1);
  db::RecoveryReport expected;
  std::vector<db::TxnId> seal_members;
  std::set<int32_t> seal_shards;
  for (int i = 0; i < in_doubt; ++i) {
    db::GeneratedTxn txn = doubts.next();
    int j = 0;
    for (auto& [shard, writes] : txn) {
      for (auto& write : writes) {
        write.key = "doubt:" + std::to_string(i) + ":" + std::to_string(j++);
      }
    }
    const std::vector<int32_t> participants = participants_of(txn);
    const db::TxnId id = next_id(participants.front());
    std::vector<int32_t> prepared = participants;
    const int rule = i % 4;
    if (rule == 1) prepared.pop_back();
    for (const int32_t shard : prepared) prepare(id, txn, shard, participants);
    if (rule == 0) stores[static_cast<size_t>(participants.front())]->commit(id);
    if (rule == 2) {
      seal_members.push_back(id);
      seal_shards.insert(participants.begin(), participants.end());
      if (static_cast<int>(seal_members.size()) == kSealEvery) {
        for (const int32_t shard : seal_shards) {
          stores[static_cast<size_t>(shard)]->seal_batch(seal_members.front(), seal_members);
        }
        ++expected.reran_protocol;
        seal_members.clear();
        seal_shards.clear();
      }
    }
    if (rule == 3) ++expected.reran_protocol;
    (rule == 1 ? expected.resolved_abort : expected.resolved_commit) += 1;
  }
  // An unfinished seal stays unwritten: its members rerun one by one.
  expected.reran_protocol += static_cast<int64_t>(seal_members.size());
  for (auto& store : stores) store->wal_end_group();
  return expected;
}

struct RestartTiming {
  double reopen_ms = 0.0;
  double resolve_all_ms = 0.0;
};

/// Copies the image into `work` (untimed), then times reopening its shard
/// stores and resolve_all over them; checks the report against `expected`.
RestartTiming time_restart(const fs::path& image, const fs::path& work,
                           const db::RecoveryReport& expected) {
  fs::remove_all(work);
  fs::create_directories(work);
  for (int32_t shard = 0; shard < kImageShards; ++shard) {
    fs::copy_file(image_wal(image, shard), image_wal(work, shard));
  }
  // Real open and resolve work is the measurement here, not a simulation input.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<db::KvStore>> stores;
  std::vector<db::KvStore*> raw;
  for (int32_t shard = 0; shard < kImageShards; ++shard) {
    stores.push_back(std::make_unique<db::KvStore>(image_wal(work, shard)));
    raw.push_back(stores.back().get());
  }
  const auto opened = std::chrono::steady_clock::now();
  db::RecoveryManager manager(raw, {.seed = 1});
  const db::RecoveryReport report = manager.resolve_all();
  const auto resolved = std::chrono::steady_clock::now();
  RCOMMIT_CHECK_MSG(report == expected,
                    "crash image resolved to commit " << report.resolved_commit << ", abort "
                                                      << report.resolved_abort << ", reruns "
                                                      << report.reran_protocol);
  return {std::chrono::duration<double, std::milli>(opened - start).count(),
          std::chrono::duration<double, std::milli>(resolved - opened).count()};
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void body(bench::Context& ctx) {
  using rcommit::Table;
  const fs::path root = scratch_root();
  fs::remove_all(root);

  // --- recovery equivalence: the exhaustive crash-point sweep -------------
  // One transaction at a time: each prepares, decides and applies before
  // the next one begins.
  faultinject::MultiTortureOptions options;
  options.seed = ctx.derive_seed(15);
  options.batches = ctx.quick() ? 3 : 4;
  options.batch_size = 1;
  options.scratch_dir = root / "sweep";
  const auto sweep =
      faultinject::run_wal_sweep(options, {.threads = ctx.quick() ? 2 : 4});

  ctx.out() << "E15: exhaustive WAL crash-point sweep, " << sweep.sites
            << " sites x 5 fault kinds = " << sweep.crash_points
            << " crash points\n\n";
  Table table({"check", "crash points", "failures"});
  table.row({"recovery equivalence", Table::num(sweep.crash_points),
             Table::num(static_cast<int64_t>(sweep.failures.size()))});
  ctx.scalar("crash_points", static_cast<double>(sweep.crash_points));
  ctx.scalar("sweep_failures", static_cast<double>(sweep.failures.size()));
  ctx.claim({"durability",
             "recovered state equals the committed prefix at every crash point",
             std::to_string(sweep.crash_points) + " crash points, " +
                 std::to_string(sweep.failures.size()) + " failures",
             sweep.ok() && sweep.crash_points > 0});

  // --- zero-fault transparency --------------------------------------------
  faultinject::FaultInjector injector{faultinject::FaultPlan::none()};
  const int appends = ctx.runs(2000, /*quick_floor=*/400);
  const double plain_rate = append_rate(root / "plain", appends, nullptr);
  const double hooked_rate = append_rate(root / "hooked", appends, &injector);
  const bool identical = file_bytes(root / "plain" / "shard.wal") ==
                         file_bytes(root / "hooked" / "shard.wal");
  ctx.claim({"durability",
             "the zero-fault plan leaves the WAL byte-identical to an "
             "uninstrumented run",
             identical ? "byte-identical" : "WAL bytes diverged", identical});

  // --- hook overhead on the append path -----------------------------------
  const double overhead = plain_rate / hooked_rate;
  table.row({"zero-fault byte-identity", Table::num(static_cast<int64_t>(1)),
             Table::num(static_cast<int64_t>(identical ? 0 : 1))});
  ctx.table("durability_checks", table);

  Table rates({"wal append path", "commits/sec"});
  rates.row({"uninstrumented", Table::num(plain_rate, 0)});
  rates.row({"zero-fault hook installed", Table::num(hooked_rate, 0)});
  ctx.table("durability_overhead", rates);
  ctx.scalar("plain_commits_per_sec", plain_rate, "1/s");
  ctx.scalar("hooked_commits_per_sec", hooked_rate, "1/s");
  ctx.scalar("hook_overhead_ratio", overhead);

  // --- restart cost: reopen and resolve a crash image ---------------------
  // The image build is untimed; each timed restart starts from a fresh copy.
  const int resolved_txns = ctx.quick() ? 4096 : 16384;
  const int in_doubt_txns = ctx.quick() ? 512 : 2048;
  const db::RecoveryReport expected = build_crash_image(
      root / "image", ctx.derive_seed(151), resolved_txns, in_doubt_txns);
  std::vector<double> reopen_ms;
  std::vector<double> resolve_all_ms;
  for (int i = 0, n = ctx.runs(15, /*quick_floor=*/5); i < n; ++i) {
    const RestartTiming timing = time_restart(root / "image", root / "restart", expected);
    reopen_ms.push_back(timing.reopen_ms);
    resolve_all_ms.push_back(timing.resolve_all_ms);
  }
  Table restart({"restart over a crash image", "median ms"});
  restart.row({"reopen " + std::to_string(kImageShards) + " shard stores",
               Table::num(median_of(reopen_ms), 2)});
  restart.row({"resolve_all (" + std::to_string(in_doubt_txns) + " in doubt)",
               Table::num(median_of(resolve_all_ms), 2)});
  ctx.table("durability_restart", restart);
  ctx.scalar("reopen_ms", median_of(reopen_ms), "ms");
  ctx.scalar("resolve_all_ms", median_of(resolve_all_ms), "ms");

  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"E15", "bench_durability",
       "crash-point fault injection: recovery equivalence and hook overhead",
       {"durability"}},
      body);
}
