// Micro-benchmarks (google-benchmark): the hot paths under the experiments —
// codec round-trips, wire encode/decode, CRC, WAL appends, KvStore commits,
// and raw simulator event throughput. These quantify the substrate costs so
// the protocol-level numbers in E1-E14 can be read with the constant factors
// in mind.
//
// Runs under the shared bench harness instead of BENCHMARK_MAIN so it speaks
// the same flags and emits the same JSON artifact as the E-benches; each
// google-benchmark result becomes one TimingSample (seconds per iteration).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "adversary/basic.h"
#include "bench/harness.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/kv.h"
#include "db/wal.h"
#include "protocol/commit.h"
#include "protocol/messages.h"
#include "sim/simulator.h"
#include "transport/wire.h"

namespace {

using namespace rcommit;

void BM_CodecVarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    BufWriter w;
    for (uint64_t v = 1; v < 1u << 20; v <<= 1) w.varint(v * 2654435761u);
    BufReader r(w.data());
    uint64_t sum = 0;
    while (!r.exhausted()) sum += r.varint();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CodecVarintRoundTrip);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  RandomTape rng(1);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_WireEncodeDecodePiggybacked(benchmark::State& state) {
  const auto msg = sim::make_message<protocol::PiggybackedMsg>(
      std::vector<uint8_t>(16, 1),
      sim::make_message<protocol::AgreementR2>(3, 1));
  const auto& registry = transport::WireRegistry::instance();
  for (auto _ : state) {
    const auto bytes = registry.encode(*msg);
    benchmark::DoNotOptimize(registry.decode(bytes));
  }
}
BENCHMARK(BM_WireEncodeDecodePiggybacked);

void BM_WalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_wal_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  db::WriteAheadLog wal(path);
  int64_t txn = 0;
  for (auto _ : state) {
    wal.append({db::WalRecordType::kWrite, ++txn, "some-key", "some-value"});
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_WalAppend);

/// Group commit as the pipelined engine drives it: KvStore-shaped WRITE
/// records ("key:<n>" / "txn-<n>", as db::WorkloadGenerator draws them)
/// buffered and flushed as one physical write every 256 records.
void BM_WalGroupAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_wal_group_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  std::vector<db::WalRecord> records;
  for (int i = 0; i < 256; ++i) {
    records.push_back({db::WalRecordType::kWrite, 4096 + i,
                       "key:" + std::to_string(i * 7919 % 20000),
                       "txn-" + std::to_string(4096 + i)});
  }
  {
    db::WriteAheadLog wal(path);
    wal.begin_group({.max_records = 256});
    size_t next = 0;
    for (auto _ : state) {
      wal.append(records[next]);
      next = (next + 1) % records.size();
    }
    wal.end_group();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_WalGroupAppend);

/// One shard's share of a pipelined transaction: a 2-write prepare and its
/// commit, in group mode (one flush per 256 records), against a store
/// preloaded with 20k keys named as db::WorkloadGenerator names them.
void BM_KvCommit(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_kv_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  constexpr int kKeys = 20000;
  const auto write = [](int key, db::TxnId txn) {
    return db::KvWrite{"key:" + std::to_string(key), "txn-" + std::to_string(txn)};
  };
  std::vector<std::vector<db::KvWrite>> txns;
  for (int i = 0; i < 256; ++i) {
    txns.push_back(
        {write(i * 7919 % kKeys, 4096 + i), write((i * 104729 + 1) % kKeys, 4096 + i)});
  }
  {
    db::KvStore store(path);
    store.wal_begin_group({.max_records = 256});
    db::TxnId txn = 0;
    for (int key = 0; key < kKeys; key += 2) {
      ++txn;
      benchmark::DoNotOptimize(store.prepare(txn, {write(key, txn), write(key + 1, txn)}));
      store.commit(txn);
    }
    size_t next = 0;
    for (auto _ : state) {
      ++txn;
      benchmark::DoNotOptimize(store.prepare(txn, txns[next], {0, 1, 2}));
      store.commit(txn);
      next = (next + 1) % txns.size();
    }
    store.wal_end_group();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_KvCommit);

void BM_SimulatorCommitRun(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  SystemParams params{.n = n, .t = (n - 1) / 2, .k = 2};
  uint64_t seed = 1;
  int64_t events = 0;
  for (auto _ : state) {
    std::vector<int> votes(static_cast<size_t>(n), 1);
    sim::Simulator sim({.seed = ++seed, .record_trace = false},
                       protocol::make_commit_fleet(params, votes),
                       adversary::make_random_adversary(seed, 3));
    const auto result = sim.run();
    events += result.events;
    benchmark::DoNotOptimize(result.decisions.front());
  }
  state.SetItemsProcessed(events);
  state.SetLabel("events/iteration ~" + std::to_string(events / state.iterations()));
}
BENCHMARK(BM_SimulatorCommitRun)->Arg(5)->Arg(9)->Arg(13);

void BM_RandomTape(benchmark::State& state) {
  RandomTape tape(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.next_real());
  }
}
BENCHMARK(BM_RandomTape);

/// Console output as usual, plus one TimingSample per benchmark: mean real
/// seconds per iteration, with the iteration count as the repeat count.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::Context& ctx) : ctx_(ctx) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      ctx_.timing({run.benchmark_name(), per_iter,
                   static_cast<int>(run.iterations), 0});
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

 private:
  bench::Context& ctx_;
};

void body(bench::Context& ctx) {
  // The harness owns the real command line; google-benchmark sees only a
  // synthetic one (quick mode shrinks the per-benchmark minimum time).
  std::string min_time = "--benchmark_min_time=";
  min_time += ctx.quick() ? "0.02" : "0.1";
  std::string prog = "bench_micro";
  std::vector<char*> argv = {prog.data(), min_time.data()};
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, argv.data());

  CaptureReporter reporter(ctx);
  reporter.SetOutputStream(&ctx.out());
  reporter.SetErrorStream(&ctx.out());
  benchmark::RunSpecifiedBenchmarks(&reporter);
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"micro", "bench_micro",
       "substrate micro-benchmarks: codec, CRC, wire, WAL, simulator, RNG",
       {}},
      body);
}
