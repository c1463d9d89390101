// E11 — the database substrate under the paper's commit protocol.
//
// The paper's introduction motivates the commit problem with distributed
// database transactions. This bench runs a burst of cross-shard transactions,
// one at a time, through the WAL-backed sharded KV store (MultiShotDb with
// one client and decision_batch = 1), each decided by the paper's Protocol 2
// over a threaded network with real delays, and reports throughput, abort
// rate, and atomicity violations (a transaction visible on one shard but not
// another). How the 2PC/3PC baselines behave under faults is measured on the
// simulator (E7, E18); RecoveryManager reruns only Protocol 2, so a database
// decided by a baseline could not recover its in-doubt transactions anyway.
#include <chrono>
#include <filesystem>
#include <string>

#include "bench/harness.h"
#include "common/stats.h"
#include "db/multishot.h"
#include "metrics/report.h"

namespace {

using namespace rcommit;
namespace fs = std::filesystem;

struct DbStats {
  int committed = 0;
  int aborted = 0;
  int in_doubt = 0;
  int atomicity_violations = 0;
  double txn_per_sec = 0.0;
};

DbStats run_paper_protocol(int txns, uint64_t seed) {
  const fs::path dir =
      fs::temp_directory_path() / ("rcommit_bench_db_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  db::MultiShotDb::Options options;
  options.shard_count = 5;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = std::chrono::microseconds(30),
                     .max_delay = std::chrono::microseconds(300)};
  db::MultiShotDb database(options);

  DbStats stats;
  // Throughput reporting over a real threaded network — wall time is the
  // measurement, not a simulation input.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < txns; ++i) {
    const int a = i % 5;
    const int b = (i + 1 + i / 5) % 5;
    if (a == b) continue;
    const std::string key = "k" + std::to_string(i);
    const auto outcome = database.execute(a, {
        {a, {{key, "left"}}},
        {b, {{key, "right"}}},
    });
    if (!outcome.decided) {
      ++stats.in_doubt;
      continue;
    }
    (outcome.decision == Decision::kCommit ? stats.committed : stats.aborted) += 1;
    const bool on_a = database.get(a, key).has_value();
    const bool on_b = database.get(b, key).has_value();
    if (on_a != on_b) ++stats.atomicity_violations;
  }
  const auto end = std::chrono::steady_clock::now();
  const auto elapsed = std::chrono::duration<double>(end - start).count();
  stats.txn_per_sec = static_cast<double>(txns) / elapsed;

  std::error_code ec;
  fs::remove_all(dir, ec);
  return stats;
}

void body(bench::Context& ctx) {
  using rcommit::Table;
  const int txns = ctx.runs(60, /*quick_floor=*/20);

  ctx.out() << "E11: 5-shard KV database, " << txns
            << " cross-shard transactions one at a time,\nthreaded network with "
               "30-300us delays, WAL-backed shards\n\n";

  Table table({"backend", "committed", "aborted", "in doubt", "atomicity violations",
               "txn/sec"});
  const auto stats = run_paper_protocol(txns, ctx.derive_seed(5));
  table.row({"Protocol 2 (paper)", Table::num(static_cast<int64_t>(stats.committed)),
             Table::num(static_cast<int64_t>(stats.aborted)),
             Table::num(static_cast<int64_t>(stats.in_doubt)),
             Table::num(static_cast<int64_t>(stats.atomicity_violations)),
             Table::num(stats.txn_per_sec, 1)});
  const bool paper_atomic = stats.atomicity_violations == 0 && stats.committed > 0;
  ctx.scalar("paper_txn_per_sec", stats.txn_per_sec, "txn/s");
  ctx.table("db_backends", table);

  ctx.claim({"intro", "transactions install at all processors or none (§1)",
             paper_atomic ? "0 atomicity violations with Protocol 2"
                          : "violation or no commits",
             paper_atomic});
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"E11", "bench_db_txn",
       "sharded KV database under the paper's commit protocol (§1 motivation)",
       {"intro"}},
      body);
}
