// E19 — pipelined multi-shot engine: client concurrency vs one client.
//
// One client commits one transaction at a time: it blocks on each commit
// instance's network round-trips. MultiShotDb pipelines independent commit
// instances per shard, so with concurrent clients the network latency
// overlaps and committed-transaction throughput scales. This bench sweeps
// shard count × client concurrency over a threaded network with 50-500us
// link delays — every cell pays the same links — and gates two claims:
//
//   multishot_4x_one_client  ≥4× the same engine's 1-client committed-txn
//                            throughput at concurrency 64
//   multishot_atomicity      zero cross-shard atomicity violations anywhere
//                            in the sweep (§1 "at all processors or at none")
//
// RCOMMIT_LINT_ALLOW_FILE(R2): the client fleet is real threads by design —
// wall-clock throughput over the threaded transport is the measurement
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/stats.h"
#include "db/multishot.h"
#include "metrics/report.h"

namespace {

using namespace rcommit;
namespace fs = std::filesystem;

// Slower links than E11's 30-300us: one client pays every microsecond of
// link latency per transaction, while the pipeline overlaps it — WAN-ish
// delays are exactly where multi-shot pipelining earns its keep.
constexpr std::chrono::microseconds kMinDelay(50);
constexpr std::chrono::microseconds kMaxDelay(500);

fs::path scratch_dir(const std::string& tag) {
  return fs::temp_directory_path() /
         ("rcommit_bench_multishot_" + std::to_string(::getpid()) + "_" + tag);
}

struct CellResult {
  db::MultiShotStats stats;
  db::WalStats wal;
  int64_t atomicity_violations = 0;
  double committed_per_sec = 0.0;
  Samples latency_us;  ///< wall-clock per execute() call, all clients merged
};

/// One sweep cell: `clients` threads issue cross-shard transactions through
/// one MultiShotDb over the threaded network. Every transaction writes one
/// unique key to two shards; the post-run read-back counts transactions
/// visible on one shard but not the other.
CellResult run_cell(int32_t shards, int clients, int txns_per_client,
                    uint64_t seed) {
  const fs::path dir =
      scratch_dir(std::to_string(shards) + "s" + std::to_string(clients) + "c");
  fs::remove_all(dir);
  db::MultiShotDb::Options options;
  options.shard_count = shards;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = kMinDelay, .max_delay = kMaxDelay};
  db::MultiShotDb database(options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  fleet.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      auto& mine = latencies[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(txns_per_client));
      for (int i = 0; i < txns_per_client; ++i) {
        const int32_t a = static_cast<int32_t>(c % shards);
        const int32_t b = static_cast<int32_t>((a + 1 + i % (shards - 1)) % shards);
        const std::string key =
            "c" + std::to_string(c) + ":k" + std::to_string(i);
        const auto txn_start = std::chrono::steady_clock::now();
        (void)database.execute(a, {{a, {{key, "x"}}}, {b, {{key, "x"}}}});
        mine.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - txn_start)
                           .count());
      }
    });
  }
  for (auto& thread : fleet) thread.join();
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  CellResult cell;
  cell.stats = database.stats();
  cell.wal = database.wal_stats();
  for (const auto& mine : latencies) {
    for (const double sample : mine) cell.latency_us.add(sample);
  }
  cell.committed_per_sec = static_cast<double>(cell.stats.committed) / elapsed;
  // Quiescent read-back: a committed transaction's key is on both shards or
  // neither — a one-sided install is an atomicity violation.
  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < txns_per_client; ++i) {
      const int32_t a = static_cast<int32_t>(c % shards);
      const int32_t b = static_cast<int32_t>((a + 1 + i % (shards - 1)) % shards);
      const std::string key = "c" + std::to_string(c) + ":k" + std::to_string(i);
      const bool on_a = database.get(a, key).has_value();
      const bool on_b = database.get(b, key).has_value();
      if (on_a != on_b) ++cell.atomicity_violations;
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return cell;
}

void body(bench::Context& ctx) {
  using rcommit::Table;
  const int txns_per_client = ctx.runs(8, /*quick_floor=*/3);

  ctx.out() << "E19: pipelined multi-shot engine, client concurrency vs one "
               "client,\n"
            << "threaded network with 50-500us delays, WAL-backed shards,\n"
            << txns_per_client << " txns per client\n\n";

  Table table({"shards", "clients", "committed", "conflict aborts", "in doubt",
               "atomicity violations", "txn/sec", "vs 1 client", "p50 us",
               "p99 us", "wal rec/flush"});
  int64_t total_violations = 0;
  int64_t total_in_doubt = 0;
  double best_speedup_64 = 0.0;  ///< the best 64-client cell over its 1-client cell
  double p50_at_64 = 0.0;
  double p99_at_64 = 0.0;
  double rec_per_flush = 0.0;
  for (const int32_t shards : {3, 5}) {
    double one_client_tps = 0.0;
    for (const int clients : {1, 8, 64}) {
      const auto cell = run_cell(shards, clients, txns_per_client,
                                 ctx.derive_seed(19 + static_cast<uint64_t>(clients)));
      if (clients == 1) one_client_tps = cell.committed_per_sec;
      const double speedup = cell.committed_per_sec / one_client_tps;
      table.row({Table::num(static_cast<int64_t>(shards)),
                 Table::num(static_cast<int64_t>(clients)),
                 Table::num(cell.stats.committed),
                 Table::num(cell.stats.conflict_aborts),
                 Table::num(cell.stats.in_doubt),
                 Table::num(cell.atomicity_violations),
                 Table::num(cell.committed_per_sec, 1),
                 Table::num(speedup, 2) + "x",
                 Table::num(cell.latency_us.percentile(0.50), 0),
                 Table::num(cell.latency_us.percentile(0.99), 0),
                 Table::num(cell.wal.records_per_flush(), 2)});
      total_violations += cell.atomicity_violations;
      total_in_doubt += cell.stats.in_doubt;
      rec_per_flush = cell.wal.records_per_flush();
      if (clients >= 64) {
        best_speedup_64 = std::max(best_speedup_64, speedup);
        p50_at_64 = cell.latency_us.percentile(0.50);
        p99_at_64 = cell.latency_us.percentile(0.99);
      }
    }
  }
  ctx.table("multishot_sweep", table);
  ctx.scalar("speedup_at_64_clients_vs_1_client", best_speedup_64, "x");
  ctx.scalar("atomicity_violations", static_cast<double>(total_violations));
  // Ungated observability: wall-clock commit latency at the deepest cell and
  // the WAL amortization factor (1.0 here — E19 runs the ungrouped engine;
  // E20 owns the grouped claims).
  ctx.scalar("commit_latency_p50_us_64c", p50_at_64, "us");
  ctx.scalar("commit_latency_p99_us_64c", p99_at_64, "us");
  ctx.scalar("wal_records_per_flush", rec_per_flush);

  ctx.claim({"multishot_4x_one_client",
             "pipelined commit instances overlap network latency: >=4x the "
             "same engine's 1-client committed-txn throughput at 64 clients",
             Table::num(best_speedup_64, 2) + "x at 64 clients",
             best_speedup_64 >= 4.0});
  ctx.claim({"multishot_atomicity",
             "transactions install at all processors or at none (§1), at "
             "every point of the shard x concurrency sweep",
             std::to_string(total_violations) + " violations, " +
                 std::to_string(total_in_doubt) + " in doubt",
             total_violations == 0});
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"E19", "bench_db_multishot",
       "multi-shot pipelined engine: shard x concurrency throughput sweep",
       {"multishot_4x_one_client", "multishot_atomicity"}},
      body);
}
