#include "faultinject/multitorture.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/multishot.h"
#include "db/workload.h"
#include "swarm/pool.h"

namespace rcommit::faultinject {

namespace fs = std::filesystem;

namespace {

/// What the driver observed for one instance before the crash.
enum class Observed {
  kCommitted,
  kAborted,
  kInDoubt,  ///< its batch was in flight at the crash
};

struct TxnRef {
  db::GeneratedTxn writes;
  Observed observed = Observed::kInDoubt;
};

/// The pre-held in-doubt instance on shard 0 (see run_multi_workload). Its
/// origin field sits past every real shard, so it can never collide with an
/// engine-allocated id.
db::TxnId hot_txn(const MultiTortureOptions& options) {
  return db::make_txn_id(options.shard_count, 1);
}

uint64_t state_digest(const std::vector<std::unique_ptr<db::KvStore>>& stores) {
  BufWriter w;
  for (size_t i = 0; i < stores.size(); ++i) {
    w.u32(static_cast<uint32_t>(i));
    w.varint(stores[i]->snapshot().size());
    for (const auto& [key, value] : stores[i]->snapshot()) {
      w.str(key);
      w.str(value);
    }
  }
  return crc32c(std::span<const uint8_t>(w.data()));
}

/// Runs the pipelined workload (hot prepare + batches × batch_size instances)
/// against a fresh MultiShotDb in `options.scratch_dir` with `injector`
/// installed. Returns the reference model; `execution_order` lists every
/// instance in the order its writes would take effect.
std::map<db::TxnId, TxnRef> run_multi_workload(
    const MultiTortureOptions& options, FaultInjector& injector, bool& crashed,
    int64_t& crash_site, std::vector<db::TxnId>& execution_order) {
  std::map<db::TxnId, TxnRef> reference;
  db::MultiShotDb::Options mopts;
  mopts.shard_count = options.shard_count;
  mopts.data_dir = options.scratch_dir;
  mopts.seed = options.seed;
  mopts.decision_transport = db::DecisionTransport::kSimulator;
  mopts.wal_fault_hook = &injector;
  mopts.group_commit = options.group_commit;
  mopts.decision_batch = options.decision_batch;
  try {
    db::MultiShotDb database(mopts);
    // A pre-held in-doubt instance on shard 0: it keeps the "hot" key locked
    // for the whole run, so instances that touch it vote abort, and recovery
    // must resolve it alongside whatever the crash leaves behind.
    reference[hot_txn(options)].writes = {{0, {{"hot", "held"}}}};
    RCOMMIT_CHECK(
        database.shard(0).prepare(hot_txn(options), {{"hot", "held"}}, {0}));

    db::WorkloadGenerator generator(
        {.shard_count = options.shard_count,
         .keys_per_shard = options.keys_per_shard,
         .fanout = options.fanout,
         .writes_per_shard = 1,
         .skew = 0.0},
        options.seed);
    // Mirror the engine's id allocation (per-origin sequences from 1) so the
    // reference knows each instance's id before the batch runs — instances
    // past a mid-batch crash simply never appear in any WAL.
    std::vector<int64_t> next_sequence(
        static_cast<size_t>(options.shard_count), 1);
    for (int32_t b = 0; b < options.batches; ++b) {
      const int32_t origin = b % options.shard_count;
      std::vector<db::GeneratedTxn> batch;
      std::vector<db::TxnId> ids;
      for (int32_t i = 0; i < options.batch_size; ++i) {
        db::GeneratedTxn writes = generator.next();
        // Every third instance contends on the held hot key.
        if (i % 3 == 1) {
          writes[0] = {{"hot", "steal-" + std::to_string(b) + "-" +
                                   std::to_string(i)}};
        }
        const db::TxnId id = db::make_txn_id(
            origin, next_sequence[static_cast<size_t>(origin)]++);
        reference[id].writes = writes;
        execution_order.push_back(id);
        batch.push_back(std::move(writes));
        ids.push_back(id);
      }
      const auto outcomes = database.execute_pipelined(origin, batch);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].decided) continue;
        reference[ids[i]].observed = outcomes[i].decision == Decision::kCommit
                                         ? Observed::kCommitted
                                         : Observed::kAborted;
      }
    }
  } catch (const db::CrashInjected& crash) {
    crashed = true;
    crash_site = crash.site();
  }
  // The hot instance resolves after everything else (largest id, and
  // recovery works in ascending id order); its only competitor writes abort.
  execution_order.push_back(hot_txn(options));
  return reference;
}

std::string txn_error(db::TxnId txn, const std::string& what) {
  return "txn " + std::to_string(txn) + ": " + what;
}

}  // namespace

std::string MultiTortureOptions::serialize() const {
  std::ostringstream out;
  out << "shard_count=" << shard_count << "\n"
      << "batches=" << batches << "\n"
      << "batch_size=" << batch_size << "\n"
      << "fanout=" << fanout << "\n"
      << "keys_per_shard=" << keys_per_shard << "\n"
      << "group_commit=" << (group_commit ? 1 : 0) << "\n"
      << "decision_batch=" << decision_batch << "\n"
      << "seed=" << seed << "\n";
  return out.str();
}

MultiTortureOptions MultiTortureOptions::deserialize(const std::string& text) {
  MultiTortureOptions options;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    RCOMMIT_CHECK_MSG(eq != std::string::npos, "malformed config line: " << line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "shard_count") options.shard_count = static_cast<int32_t>(std::stol(value));
    else if (key == "batches") options.batches = static_cast<int32_t>(std::stol(value));
    else if (key == "batch_size") options.batch_size = static_cast<int32_t>(std::stol(value));
    else if (key == "fanout") options.fanout = static_cast<int32_t>(std::stol(value));
    else if (key == "keys_per_shard") options.keys_per_shard = static_cast<int32_t>(std::stol(value));
    // Absent keys keep their defaults (off), which is how corpus entries
    // written before the group-commit knobs replay unchanged.
    else if (key == "group_commit") options.group_commit = std::stol(value) != 0;
    else if (key == "decision_batch") options.decision_batch = static_cast<int32_t>(std::stol(value));
    else if (key == "seed") options.seed = std::stoull(value);
    else RCOMMIT_CHECK_MSG(false, "unknown config key '" << key << "'");
  }
  return options;
}

CrashPointResult run_multi_crash_point(const MultiTortureOptions& options,
                                       const FaultPlan& plan) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);

  CrashPointResult result;
  FaultInjector injector(plan);
  std::vector<db::TxnId> execution_order;
  const auto reference = run_multi_workload(options, injector, result.crashed,
                                            result.crash_site, execution_order);
  result.sites_seen = injector.sites_seen();

  // The process is dead; only the WALs remain. Reopen every shard from disk
  // (no fault hook — recovery itself runs on healthy storage) and resolve
  // the whole in-doubt instance space from one batch survey.
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

  // Final outcome of every instance the reference knows about, per the
  // recovered WALs (one batch survey — never a per-txn rescan).
  const db::BatchSurvey survey = recovery.survey_all();
  std::map<db::TxnId, bool> committed;
  for (const auto& [txn, ref] : reference) {
    bool any_commit = false;
    bool any_abort = false;
    for (int32_t shard = 0; shard < options.shard_count; ++shard) {
      const auto status = survey.status(shard, txn);
      any_commit |= status == db::ShardTxnStatus::kCommitted;
      any_abort |= status == db::ShardTxnStatus::kAborted;
    }
    if (any_commit && any_abort) {
      result.errors.push_back(txn_error(txn, "shards disagree on the outcome"));
    }
    committed[txn] = any_commit;
    if (ref.observed == Observed::kCommitted && !any_commit) {
      result.errors.push_back(
          txn_error(txn, "driver-observed commit lost by recovery"));
    }
    if (ref.observed == Observed::kAborted && any_commit) {
      result.errors.push_back(
          txn_error(txn, "driver-observed abort resurrected as commit"));
    }
    if (any_commit) {
      ++result.committed_txns;
      // Cross-shard atomicity: the whole intended participant set installed it.
      for (const auto& [shard, writes] : ref.writes) {
        (void)writes;
        if (survey.status(shard, txn) != db::ShardTxnStatus::kCommitted) {
          result.errors.push_back(txn_error(
              txn, "committed on some shards but not installed on shard " +
                       std::to_string(shard)));
        }
      }
    }
  }

  // Reference state: committed instances' writes, applied in execution order.
  // Instances of the same batch never commit overlapping keys (the no-wait
  // lock table forces the later prepare to vote abort), so recovery's
  // ascending-id resolution of a crashed batch agrees with this order.
  std::vector<std::map<std::string, std::string>> expected(
      static_cast<size_t>(options.shard_count));
  for (const db::TxnId txn : execution_order) {
    if (!committed[txn]) continue;
    for (const auto& [shard, writes] : reference.at(txn).writes) {
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

std::vector<SiteInfo> enumerate_multi_sites(const MultiTortureOptions& options) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);
  FaultInjector injector(FaultPlan::none());
  bool crashed = false;
  int64_t crash_site = -1;
  std::vector<db::TxnId> execution_order;
  run_multi_workload(options, injector, crashed, crash_site, execution_order);
  RCOMMIT_CHECK_MSG(!crashed, "empty plan must not crash");
  return injector.sites();
}

SweepResult run_multi_wal_sweep(const MultiTortureOptions& options,
                                const SweepOptions& sweep) {
  SweepResult out;
  {
    MultiTortureOptions probe = options;
    probe.scratch_dir = options.scratch_dir / "enumerate";
    out.sites = static_cast<int64_t>(enumerate_multi_sites(probe).size());
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
    MultiTortureOptions point = options;
    point.scratch_dir = options.scratch_dir /
                        ("site" + std::to_string(job.site) + "-" +
                         std::string(to_string(job.kind)));
    plans[static_cast<size_t>(j)] =
        FaultPlan::wal_fault_at(job.site, job.kind, mix.next());
    results[static_cast<size_t>(j)] =
        run_multi_crash_point(point, plans[static_cast<size_t>(j)]);
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

void write_multi_fault_artifact(const fs::path& dir,
                                const MultiFaultArtifact& artifact) {
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
             "Multi-shot crash-point counterexample / regression entry.\n"
             "Reproduce with:\n\n  faultkit --multishot --artifact=" +
                 dir.string() +
                 "\n\nconfig.txt is the pipelined workload, plan.txt the fault\n"
                 "schedule, report.txt the expected post-recovery\n"
                 "CrashPointResult (replay must reproduce it field for field).\n");
}

MultiFaultArtifact load_multi_fault_artifact(const fs::path& dir) {
  const auto read_file = [&](const char* name) {
    std::ifstream in(dir / name);
    RCOMMIT_CHECK_MSG(in.is_open(), "cannot read " << (dir / name).string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  MultiFaultArtifact artifact;
  artifact.options = MultiTortureOptions::deserialize(read_file("config.txt"));
  artifact.plan = FaultPlan::deserialize(read_file("plan.txt"));
  artifact.expected = CrashPointResult::deserialize(read_file("report.txt"));
  return artifact;
}

bool is_multishot_artifact(const fs::path& dir) {
  std::ifstream in(dir / "config.txt");
  RCOMMIT_CHECK_MSG(in.is_open(), "cannot read " << (dir / "config.txt").string());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("batches=", 0) == 0) return true;
  }
  return false;
}

}  // namespace rcommit::faultinject
