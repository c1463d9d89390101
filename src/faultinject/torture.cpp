#include "faultinject/torture.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/txn.h"
#include "db/workload.h"
#include "swarm/pool.h"

namespace rcommit::faultinject {

namespace fs = std::filesystem;

namespace {

/// What the client observed for one transaction before the crash.
enum class Observed {
  kCommitted,
  kAborted,
  kInDoubt,  ///< in flight at the crash, or the protocol left it undecided
};

struct TxnRef {
  db::GeneratedTxn writes;
  Observed observed = Observed::kInDoubt;
};

/// The pre-held in-doubt transaction on shard 0 (see run_crash_point).
constexpr db::TxnId kHotTxn = 1'000'000;

uint64_t state_digest(const std::vector<std::unique_ptr<db::KvStore>>& stores) {
  BufWriter w;
  for (size_t i = 0; i < stores.size(); ++i) {
    w.u32(static_cast<uint32_t>(i));
    w.varint(stores[i]->size());
    for (const auto& [key, value] : stores[i]->snapshot()) {
      w.str(key);
      w.str(value);
    }
  }
  return crc32c(std::span<const uint8_t>(w.data()));
}

/// Runs the workload (hot prepare + txns generated transactions) against a
/// fresh DistributedDb in `options.scratch_dir` with `injector` installed.
/// Returns the reference model; sets `crashed`/`crash_site` if the plan
/// fired a crash.
std::map<db::TxnId, TxnRef> run_workload(const TortureOptions& options,
                                         FaultInjector& injector, bool& crashed,
                                         int64_t& crash_site) {
  std::map<db::TxnId, TxnRef> reference;
  db::DistributedDb::Options dopts;
  dopts.shard_count = options.shard_count;
  dopts.data_dir = options.scratch_dir;
  dopts.seed = options.seed;
  dopts.network = {.min_delay = options.min_delay, .max_delay = options.max_delay};
  dopts.txn_timeout = options.txn_timeout;
  dopts.wal_fault_hook = &injector;
  try {
    db::DistributedDb database(dopts);
    // A pre-held in-doubt transaction on shard 0: it keeps the "hot" key
    // locked for the whole run, so workload transactions that touch it vote
    // abort (exercising the abort-validity path), and recovery must resolve
    // it alongside whatever the crash leaves behind.
    reference[kHotTxn].writes = {{0, {{"hot", "held"}}}};
    reference[kHotTxn].observed = Observed::kInDoubt;
    RCOMMIT_CHECK(database.shard(0).prepare(kHotTxn, {{"hot", "held"}}, {0}));

    db::WorkloadGenerator generator(
        {.shard_count = options.shard_count,
         .keys_per_shard = options.keys_per_shard,
         .fanout = options.fanout,
         .writes_per_shard = 1,
         .skew = 0.0},
        options.seed);
    for (int32_t i = 0; i < options.txns; ++i) {
      db::GeneratedTxn writes = generator.next();
      // Every third transaction contends on the held hot key.
      if (i % 3 == 1) writes[0] = {{"hot", "steal-" + std::to_string(i)}};
      const db::TxnId id = database.transactions_started() + 1;
      auto& ref = reference[id];
      ref.writes = writes;
      ref.observed = Observed::kInDoubt;  // in flight until execute returns
      const auto outcome = database.execute(writes);
      if (outcome.decided) {
        ref.observed = outcome.decision == Decision::kCommit ? Observed::kCommitted
                                                             : Observed::kAborted;
      }
    }
  } catch (const db::CrashInjected& crash) {
    crashed = true;
    crash_site = crash.site();
  }
  return reference;
}

std::string shard_error(int32_t shard, db::TxnId txn, const std::string& what) {
  return "txn " + std::to_string(txn) + " on shard " + std::to_string(shard) +
         ": " + what;
}

}  // namespace

std::string TortureOptions::serialize() const {
  std::ostringstream out;
  out << "shard_count=" << shard_count << "\n"
      << "txns=" << txns << "\n"
      << "fanout=" << fanout << "\n"
      << "keys_per_shard=" << keys_per_shard << "\n"
      << "seed=" << seed << "\n"
      << "min_delay_us=" << min_delay.count() << "\n"
      << "max_delay_us=" << max_delay.count() << "\n"
      << "txn_timeout_ms=" << txn_timeout.count() << "\n";
  return out.str();
}

TortureOptions TortureOptions::deserialize(const std::string& text) {
  TortureOptions options;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    RCOMMIT_CHECK_MSG(eq != std::string::npos, "malformed config line: " << line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "shard_count") options.shard_count = static_cast<int32_t>(std::stol(value));
    else if (key == "txns") options.txns = static_cast<int32_t>(std::stol(value));
    else if (key == "fanout") options.fanout = static_cast<int32_t>(std::stol(value));
    else if (key == "keys_per_shard") options.keys_per_shard = static_cast<int32_t>(std::stol(value));
    else if (key == "seed") options.seed = std::stoull(value);
    else if (key == "min_delay_us") options.min_delay = std::chrono::microseconds(std::stoll(value));
    else if (key == "max_delay_us") options.max_delay = std::chrono::microseconds(std::stoll(value));
    else if (key == "txn_timeout_ms") options.txn_timeout = std::chrono::milliseconds(std::stoll(value));
    else RCOMMIT_CHECK_MSG(false, "unknown config key '" << key << "'");
  }
  return options;
}

std::string CrashPointResult::serialize() const {
  std::ostringstream out;
  out << "crashed=" << (crashed ? 1 : 0) << "\n"
      << "crash_site=" << crash_site << "\n"
      << "sites_seen=" << sites_seen << "\n"
      << "resolved_commit=" << report.resolved_commit << "\n"
      << "resolved_abort=" << report.resolved_abort << "\n"
      << "reran_protocol=" << report.reran_protocol << "\n"
      << "committed_txns=" << committed_txns << "\n"
      << "digest=" << digest << "\n";
  for (const auto& error : errors) out << "error=" << error << "\n";
  return out.str();
}

CrashPointResult CrashPointResult::deserialize(const std::string& text) {
  CrashPointResult result;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    RCOMMIT_CHECK_MSG(eq != std::string::npos, "malformed report line: " << line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "crashed") result.crashed = value == "1";
    else if (key == "crash_site") result.crash_site = std::stoll(value);
    else if (key == "sites_seen") result.sites_seen = std::stoll(value);
    else if (key == "resolved_commit") result.report.resolved_commit = std::stoll(value);
    else if (key == "resolved_abort") result.report.resolved_abort = std::stoll(value);
    else if (key == "reran_protocol") result.report.reran_protocol = std::stoll(value);
    else if (key == "committed_txns") result.committed_txns = std::stoll(value);
    else if (key == "digest") result.digest = std::stoull(value);
    else if (key == "error") result.errors.push_back(value);
    else RCOMMIT_CHECK_MSG(false, "unknown report key '" << key << "'");
  }
  return result;
}

CrashPointResult run_crash_point(const TortureOptions& options,
                                 const FaultPlan& plan) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);

  CrashPointResult result;
  FaultInjector injector(plan);
  const auto reference =
      run_workload(options, injector, result.crashed, result.crash_site);
  result.sites_seen = injector.sites_seen();

  // The process is dead; only the WALs remain. Reopen every shard from disk
  // (no fault hook — recovery itself runs on healthy storage) and resolve.
  std::vector<std::unique_ptr<db::KvStore>> stores;
  std::vector<db::KvStore*> ptrs;
  for (int32_t i = 0; i < options.shard_count; ++i) {
    stores.push_back(std::make_unique<db::KvStore>(
        options.scratch_dir / ("shard-" + std::to_string(i) + ".wal")));
    ptrs.push_back(stores.back().get());
  }
  db::RecoveryManager recovery(ptrs, {.seed = options.seed ^ 0x5ec0feULL});
  result.report = recovery.resolve_all();

  for (int32_t i = 0; i < options.shard_count; ++i) {
    if (!stores[static_cast<size_t>(i)]->in_doubt().empty()) {
      result.errors.push_back("shard " + std::to_string(i) +
                              " still holds in-doubt transactions after recovery");
    }
  }

  // Final outcome of every transaction the reference knows about, per the
  // recovered WALs; check it against what the client observed.
  std::map<db::TxnId, bool> committed;
  for (const auto& [txn, ref] : reference) {
    const auto statuses = recovery.survey(txn);
    bool any_commit = false;
    bool any_abort = false;
    for (const auto& [shard, status] : statuses) {
      (void)shard;
      any_commit |= status == db::ShardTxnStatus::kCommitted;
      any_abort |= status == db::ShardTxnStatus::kAborted;
    }
    if (any_commit && any_abort) {
      result.errors.push_back(shard_error(-1, txn, "shards disagree on the outcome"));
    }
    committed[txn] = any_commit;
    if (ref.observed == Observed::kCommitted && !any_commit) {
      result.errors.push_back(
          shard_error(-1, txn, "client-observed commit lost by recovery"));
    }
    if (ref.observed == Observed::kAborted && any_commit) {
      result.errors.push_back(
          shard_error(-1, txn, "client-observed abort resurrected as commit"));
    }
    if (any_commit) {
      ++result.committed_txns;
      // Atomicity: the whole intended participant set installed it.
      for (const auto& [shard, writes] : ref.writes) {
        (void)writes;
        if (statuses.at(shard) != db::ShardTxnStatus::kCommitted) {
          result.errors.push_back(
              shard_error(shard, txn, "committed elsewhere but not installed here"));
        }
      }
    }
  }

  // Reference state: committed transactions' writes, applied in txn-id order
  // (execution order for the workload; recovery resolves leftovers in the
  // same ascending order, and committed key sets never overlap a hot-key
  // conflict because the hot lock forces those votes to abort).
  std::vector<std::map<std::string, std::string>> expected(
      static_cast<size_t>(options.shard_count));
  for (const auto& [txn, ref] : reference) {
    if (!committed[txn]) continue;
    for (const auto& [shard, writes] : ref.writes) {
      for (const auto& write : writes) {
        expected[static_cast<size_t>(shard)][write.key] = write.value;
      }
    }
  }
  for (int32_t i = 0; i < options.shard_count; ++i) {
    const auto& actual = stores[static_cast<size_t>(i)]->snapshot();
    const auto& want = expected[static_cast<size_t>(i)];
    if (actual == want) continue;
    std::string detail = "shard " + std::to_string(i) +
                         " state diverges from the committed-prefix reference (" +
                         std::to_string(actual.size()) + " keys vs " +
                         std::to_string(want.size()) + " expected)";
    for (const auto& [key, value] : want) {
      const auto it = actual.find(key);
      if (it == actual.end()) {
        detail += "; missing " + key + "=" + value;
        break;
      }
      if (it->second != value) {
        detail += "; " + key + "=" + it->second + " want " + value;
        break;
      }
    }
    result.errors.push_back(detail);
  }

  result.digest = state_digest(stores);
  return result;
}

std::vector<SiteInfo> enumerate_sites(const TortureOptions& options) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);
  FaultInjector injector(FaultPlan::none());
  bool crashed = false;
  int64_t crash_site = -1;
  run_workload(options, injector, crashed, crash_site);
  RCOMMIT_CHECK_MSG(!crashed, "empty plan must not crash");
  return injector.sites();
}

SweepResult run_wal_sweep(const TortureOptions& options, const SweepOptions& sweep) {
  SweepResult out;
  {
    TortureOptions probe = options;
    probe.scratch_dir = options.scratch_dir / "enumerate";
    out.sites = static_cast<int64_t>(enumerate_sites(probe).size());
    fs::remove_all(probe.scratch_dir);
  }
  const int64_t sites = sweep.max_sites >= 0 ? std::min(out.sites, sweep.max_sites)
                                             : out.sites;

  struct Job {
    int64_t site;
    FaultKind kind;
  };
  std::vector<Job> jobs;
  for (int64_t site = 0; site < sites; ++site) {
    for (const FaultKind kind : sweep.kinds) jobs.push_back({site, kind});
  }

  std::vector<FaultPlan> plans(jobs.size());
  std::vector<CrashPointResult> results(jobs.size());
  const auto run_one = [&](int64_t j) {
    const Job& job = jobs[static_cast<size_t>(j)];
    // The torn-byte draw is a pure function of (seed, site) so the sweep is
    // replayable from those two numbers alone.
    SplitMix64 mix(options.seed ^
                   (static_cast<uint64_t>(job.site) * 0x9e3779b97f4a7c15ULL));
    TortureOptions point = options;
    point.scratch_dir = options.scratch_dir /
                        ("site" + std::to_string(job.site) + "-" +
                         std::string(to_string(job.kind)));
    plans[static_cast<size_t>(j)] =
        FaultPlan::wal_fault_at(job.site, job.kind, mix.next());
    results[static_cast<size_t>(j)] =
        run_crash_point(point, plans[static_cast<size_t>(j)]);
    fs::remove_all(point.scratch_dir);
  };
  if (sweep.threads > 1) {
    swarm::WorkStealingPool pool(sweep.threads);
    pool.run(static_cast<int64_t>(jobs.size()), run_one);
  } else {
    for (int64_t j = 0; j < static_cast<int64_t>(jobs.size()); ++j) run_one(j);
  }

  // Fold in enumeration order: thread-count independent.
  for (size_t j = 0; j < jobs.size(); ++j) {
    ++out.crash_points;
    if (!results[j].ok()) out.failures.push_back({plans[j], results[j]});
  }
  return out;
}

FaultPlan shrink_fault_plan(const TortureOptions& options, const FaultPlan& plan,
                            const swarm::ShrinkOptions& shrink, int* evals) {
  const auto all = plan.all_actions();
  TortureOptions point = options;
  point.scratch_dir = options.scratch_dir / "shrink";
  const auto violates = [&](const std::vector<size_t>& keep) {
    std::vector<FaultAction> subset;
    subset.reserve(keep.size());
    for (const size_t index : keep) subset.push_back(all[index]);
    return !run_crash_point(point, plan.with_actions(subset)).ok();
  };
  const auto kept = swarm::ddmin_keep(all.size(), violates, shrink, evals);
  fs::remove_all(point.scratch_dir);
  std::vector<FaultAction> subset;
  subset.reserve(kept.size());
  for (const size_t index : kept) subset.push_back(all[index]);
  return plan.with_actions(subset);
}

void write_fault_artifact(const fs::path& dir, const FaultArtifact& artifact) {
  fs::create_directories(dir);
  const auto write_file = [&](const char* name, const std::string& contents) {
    std::ofstream out(dir / name, std::ios::trunc);
    RCOMMIT_CHECK_MSG(out.is_open(), "cannot write " << (dir / name).string());
    out << contents;
  };
  write_file("config.txt", artifact.options.serialize());
  write_file("plan.txt", artifact.plan.serialize());
  write_file("report.txt", artifact.expected.serialize());
  write_file("README.txt",
             "Crash-point counterexample / regression entry.\n"
             "Reproduce with:\n\n  faultkit --artifact=" +
                 dir.string() +
                 "\n\nconfig.txt is the workload, plan.txt the fault schedule,\n"
                 "report.txt the expected post-recovery CrashPointResult\n"
                 "(replay must reproduce it field for field).\n");
}

FaultArtifact load_fault_artifact(const fs::path& dir) {
  const auto read_file = [&](const char* name) {
    std::ifstream in(dir / name);
    RCOMMIT_CHECK_MSG(in.is_open(), "cannot read " << (dir / name).string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  FaultArtifact artifact;
  artifact.options = TortureOptions::deserialize(read_file("config.txt"));
  artifact.plan = FaultPlan::deserialize(read_file("plan.txt"));
  artifact.expected = CrashPointResult::deserialize(read_file("report.txt"));
  return artifact;
}

}  // namespace rcommit::faultinject
