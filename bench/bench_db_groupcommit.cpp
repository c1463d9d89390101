// E20 — group-commit WAL + decision-round batching vs the PR 9 engine.
//
// The ungrouped multi-shot engine pays one physical WAL flush per logical
// append and one Protocol 2 round per prepared transaction. Group commit
// coalesces each shard's appends into boundary flushes; decision batching
// folds up to `decision_batch` prepared transactions into ONE simulated
// round (batch id seeds the instance mix, unanimous-yes fast path). This
// bench races the two configurations head to head over the same threaded
// network and gates three claims:
//
//   group_2x_ungrouped      ≥2× the ungrouped committed-txn throughput at
//                           64 clients with decision_batch=8 + group commit
//   group_flush_amortized   <0.25 physical flushes per transaction through
//                           the pipelined path at decision_batch=8
//   group_recovery_equiv    zero recovery-equivalence failures across a
//                           grouped crash-at-every-boundary torture sweep
//
// RCOMMIT_LINT_ALLOW_FILE(R2): the client fleet is real threads by design —
// wall-clock throughput over the threaded transport is the measurement
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/stats.h"
#include "db/multishot.h"
#include "db/txn.h"
#include "faultinject/torture.h"
#include "metrics/report.h"

namespace {

using namespace rcommit;
namespace fs = std::filesystem;

// Same WAN-ish links as E19: where round amortization pays, because every
// decision round costs a full latency-bound message exchange.
constexpr std::chrono::microseconds kMinDelay(50);
constexpr std::chrono::microseconds kMaxDelay(500);

fs::path scratch_dir(const std::string& tag) {
  return fs::temp_directory_path() /
         ("rcommit_bench_groupcommit_" + std::to_string(::getpid()) + "_" + tag);
}

struct CellResult {
  db::MultiShotStats stats;
  db::WalStats wal;
  double committed_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// One threaded cell: `clients` threads of cross-shard writes through one
/// MultiShotDb. `batched` switches on the E20 configuration; off reproduces
/// the PR 9 engine exactly (decision_batch=1, per-append flushes).
CellResult run_cell(bool batched, int clients, int txns_per_client,
                    uint64_t seed) {
  const fs::path dir =
      scratch_dir((batched ? "grp" : "plain") + std::to_string(clients));
  fs::remove_all(dir);
  db::MultiShotDb::Options options;
  options.shard_count = 3;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = kMinDelay, .max_delay = kMaxDelay};
  if (batched) {
    options.group_commit = true;
    options.decision_batch = 8;
  }
  db::MultiShotDb database(options);

  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      auto& mine = latencies[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(txns_per_client));
      for (int i = 0; i < txns_per_client; ++i) {
        const int32_t a = static_cast<int32_t>(c % 3);
        const int32_t b = static_cast<int32_t>((a + 1 + i % 2) % 3);
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
  cell.committed_per_sec = static_cast<double>(cell.stats.committed) / elapsed;
  Samples merged;
  for (const auto& mine : latencies) {
    for (const double sample : mine) merged.add(sample);
  }
  cell.p50_us = merged.percentile(0.50);
  cell.p99_us = merged.percentile(0.99);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return cell;
}

/// Flush amortization through the deterministic pipelined path: one
/// execute_pipelined batch, flushes counted across all shards.
double pipelined_flushes_per_txn(int txns, uint64_t seed) {
  const fs::path dir = scratch_dir("pipe");
  fs::remove_all(dir);
  db::MultiShotDb::Options options;
  options.shard_count = 3;
  options.data_dir = dir;
  options.seed = seed;
  options.group_commit = true;
  options.decision_batch = 8;
  db::MultiShotDb database(options);
  std::vector<db::GeneratedTxn> batch;
  batch.reserve(static_cast<size_t>(txns));
  for (int i = 0; i < txns; ++i) {
    batch.push_back({{i % 3, {{"k" + std::to_string(i), "x"}}},
                     {(i + 1) % 3, {{"k" + std::to_string(i), "x"}}}});
  }
  (void)database.execute_pipelined(0, batch);
  const db::WalStats wal = database.wal_stats();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return static_cast<double>(wal.flushes) / static_cast<double>(txns);
}

void body(bench::Context& ctx) {
  using rcommit::Table;
  const int txns_per_client = ctx.runs(8, /*quick_floor=*/3);
  // Floor of 32 keeps the flush-amortization claim meaningful under --quick:
  // the pipelined path costs 6 boundary flushes (Phase A + Phase C, one per
  // shard) regardless of batch size, so 32 txns bound the ratio at 0.1875.
  const int pipelined_txns = ctx.runs(64, /*quick_floor=*/32);

  ctx.out() << "E20: group-commit WAL + decision-round batching vs the\n"
            << "ungrouped multi-shot engine, threaded network with 50-500us\n"
            << "delays; " << txns_per_client << " txns per client\n\n";

  Table table({"config", "clients", "committed", "txn/sec", "p50 us", "p99 us",
               "wal flushes", "rec/flush"});
  double plain_64 = 0.0;
  double grouped_64 = 0.0;
  for (const int clients : {8, 64}) {
    for (const bool batched : {false, true}) {
      const auto cell =
          run_cell(batched, clients, txns_per_client,
                   ctx.derive_seed(20 + static_cast<uint64_t>(clients)));
      table.row({batched ? "grouped b=8" : "ungrouped",
                 Table::num(static_cast<int64_t>(clients)),
                 Table::num(cell.stats.committed),
                 Table::num(cell.committed_per_sec, 1),
                 Table::num(cell.p50_us, 0), Table::num(cell.p99_us, 0),
                 Table::num(cell.wal.flushes),
                 Table::num(cell.wal.records_per_flush(), 2)});
      if (clients == 64) {
        (batched ? grouped_64 : plain_64) = cell.committed_per_sec;
      }
    }
  }
  ctx.table("groupcommit_sweep", table);
  const double speedup = plain_64 > 0.0 ? grouped_64 / plain_64 : 0.0;
  ctx.scalar("grouped_txn_per_sec_64c", grouped_64, "txn/s");
  ctx.scalar("ungrouped_txn_per_sec_64c", plain_64, "txn/s");
  ctx.scalar("group_speedup_64c", speedup, "x");

  const double flushes_per_txn =
      pipelined_flushes_per_txn(pipelined_txns, ctx.derive_seed(20));
  ctx.out() << "\npipelined flushes/txn at decision_batch=8: "
            << Table::num(flushes_per_txn, 3) << "\n";
  ctx.scalar("pipelined_flushes_per_txn", flushes_per_txn);

  // Recovery equivalence under the grouped site space: every boundary flush
  // crashed with every fault kind, batch recovery must restore the
  // committed-prefix reference.
  faultinject::MultiTortureOptions torture;
  torture.group_commit = true;
  torture.decision_batch = 4;
  torture.seed = ctx.derive_seed(21);
  torture.scratch_dir = scratch_dir("torture");
  const auto sweep =
      faultinject::run_wal_sweep(torture, {.threads = 2});
  {
    std::error_code ec;
    fs::remove_all(torture.scratch_dir, ec);
  }
  ctx.out() << "grouped torture: " << sweep.crash_points << " crash points over "
            << sweep.sites << " boundary sites, " << sweep.failures.size()
            << " failures\n\n";
  ctx.scalar("grouped_crash_points", static_cast<double>(sweep.crash_points));
  ctx.scalar("grouped_recovery_failures",
             static_cast<double>(sweep.failures.size()));

  ctx.claim({"group_2x_ungrouped",
             "one decision round per batch of 8 amortizes the latency-bound "
             "exchanges: >=2x ungrouped committed-txn throughput at 64 clients",
             Table::num(speedup, 2) + "x at 64 clients", speedup >= 2.0});
  ctx.claim({"group_flush_amortized",
             "group commit coalesces per-append flushes into boundary "
             "flushes: <0.25 physical flushes per pipelined txn at batch 8",
             Table::num(flushes_per_txn, 3) + " flushes/txn",
             flushes_per_txn < 0.25});
  ctx.claim({"group_recovery_equiv",
             "a crash at any group boundary with any fault kind recovers to "
             "the committed-prefix reference (\"at all processors or none\")",
             std::to_string(sweep.failures.size()) + " failures over " +
                 std::to_string(sweep.crash_points) + " crash points",
             !sweep.failures.empty() ? false : sweep.crash_points > 0});
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"E20", "bench_db_groupcommit",
       "group-commit WAL + decision batching vs the ungrouped engine",
       {"group_2x_ungrouped", "group_flush_amortized", "group_recovery_equiv"}},
      body);
}
