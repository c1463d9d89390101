// E15 — durability under crash-point fault injection.
//
// The paper's §1 guarantee — a transaction's updates are installed "at all
// processors or at no processor" — is only as strong as the durability layer
// it stands on. This bench drives the crash-point torture suite
// (src/faultinject) as a measurement: an exhaustive (site × kind) sweep of
// WAL crash points must recover equivalently to the reference state machine
// at every point, the zero-fault instrumentation must be byte-identical to
// an uninstrumented run, and the overhead of carrying the injection hook on
// the hot append path is reported.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/stats.h"
#include "db/kv.h"
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
