// E12 — abort behaviour under lock contention.
//
// The commit protocol's abort-validity path in production clothing: as key
// skew concentrates writes on hot keys, shards increasingly fail to lock at
// prepare time and vote abort; Protocol 2 then aborts the transaction on
// *every* involved shard. The experiment verifies that rising contention
// changes only the commit/abort mix — never atomicity.
//
// Transactions here execute one at a time (MultiShotDb with one client and
// decision_batch = 1), and sequential execution releases locks between
// transactions, so conflicts cannot arise between them. To create conflicts
// we deliberately leave "blocker" transactions prepared-but-undecided
// (exactly the in-doubt state crashes produce), which is both realistic and
// deterministic.
#include <filesystem>

#include "bench/harness.h"
#include "common/stats.h"
#include "db/multishot.h"
#include "db/workload.h"
#include "metrics/report.h"

namespace {

using namespace rcommit;
namespace fs = std::filesystem;

struct ContentionStats {
  int committed = 0;
  int aborted = 0;
  int atomicity_violations = 0;
};

ContentionStats run_skew(double skew, int txns, uint64_t seed) {
  const fs::path dir = fs::temp_directory_path() /
                       ("rcommit_bench_contention_" + std::to_string(::getpid()) +
                        "_" + std::to_string(static_cast<int>(skew * 10)));
  fs::remove_all(dir);
  fs::create_directories(dir);

  db::MultiShotDb::Options options;
  options.shard_count = 4;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = std::chrono::microseconds(20),
                     .max_delay = std::chrono::microseconds(150)};
  db::MultiShotDb database(options);

  db::WorkloadOptions wopts;
  wopts.shard_count = 4;
  wopts.keys_per_shard = 40;
  wopts.fanout = 2;
  wopts.writes_per_shard = 2;
  wopts.skew = skew;
  db::WorkloadGenerator workload(wopts, seed + 17);

  // Plant blockers: prepared-but-undecided transactions pinning hot keys on
  // each shard (the state a crashed coordinator leaves behind). Their origin
  // field sits past every real shard, so their ids cannot collide with an
  // engine-allocated one.
  for (int32_t s = 0; s < 4; ++s) {
    (void)database.shard(s).prepare(db::make_txn_id(options.shard_count, s),
                                    {{"key:0", "blocked"}, {"key:1", "blocked"}});
  }

  ContentionStats stats;
  for (int i = 0; i < txns; ++i) {
    const auto txn = workload.next();
    const auto outcome = database.execute(txn.begin()->first, txn);
    if (!outcome.decided) continue;
    (outcome.decision == Decision::kCommit ? stats.committed : stats.aborted) += 1;
    // Atomicity check, immediately after the sequential execute: every write
    // of a txn stores the same unique value ("txn-<counter>"), so a commit
    // must leave all of them visible and an abort none of them.
    int installed = 0;
    int total = 0;
    for (const auto& [shard, writes] : txn) {
      for (const auto& write : writes) {
        ++total;
        const auto value = database.get(shard, write.key);
        if (value.has_value() && *value == write.value) ++installed;
      }
    }
    const bool all_or_nothing = installed == 0 || installed == total;
    const bool matches_outcome =
        (outcome.decision == Decision::kCommit) == (installed == total);
    if (!all_or_nothing || !matches_outcome) ++stats.atomicity_violations;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return stats;
}

void body(bench::Context& ctx) {
  using rcommit::Table;
  const int txns = ctx.runs(120, /*quick_floor=*/40);

  ctx.out() << "E12: contention sweep — 4 shards, fanout 2, hot keys pinned by "
               "in-doubt blockers,\n"
            << txns << " transactions per row, Protocol 2 backend\n\n";

  Table table({"key skew", "committed", "aborted", "abort rate", "atomicity violations"});
  bool aborts_rise = true;
  int prev_aborts = -1;
  bool atomic = true;
  for (double skew : {0.0, 1.0, 2.0, 4.0}) {
    const auto stats = run_skew(skew, txns, ctx.derive_seed(11));
    const double rate =
        static_cast<double>(stats.aborted) /
        std::max(1, stats.committed + stats.aborted);
    table.row({Table::num(skew, 1), Table::num(static_cast<int64_t>(stats.committed)),
               Table::num(static_cast<int64_t>(stats.aborted)), Table::num(rate),
               Table::num(static_cast<int64_t>(stats.atomicity_violations))});
    if (prev_aborts >= 0 && stats.aborted + 5 < prev_aborts) aborts_rise = false;
    prev_aborts = stats.aborted;
    atomic = atomic && stats.atomicity_violations == 0;
  }
  ctx.table("contention_sweep", table);

  ctx.claim({"intro", "contention flips outcomes to abort, never breaks atomicity",
             atomic ? "0 atomicity violations at every skew" : "VIOLATION",
             atomic && aborts_rise});
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"E12", "bench_db_contention",
       "abort behaviour under lock contention (abort validity in production "
       "clothing)",
       {"intro"}},
      body);
}
