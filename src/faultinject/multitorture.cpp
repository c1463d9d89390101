#include "faultinject/multitorture.h"

#include <algorithm>
#include <fstream>
#include <functional>
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
    w.varint(stores[i]->size());
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

namespace {

/// Every shard reopened from its WAL and resolved.
struct Recovery {
  std::vector<std::unique_ptr<db::KvStore>> stores;
  db::RecoveryReport report;
  db::BatchSurvey survey;  ///< read back from disk after resolve_all
};

/// Reopens every shard from disk and resolves the whole in-doubt instance
/// space. `hook` (may be null) is installed on the reopened stores, so
/// resolve_all may crash at an outcome-group flush. Each store's survey is
/// checked against its log on disk after the reopen and after resolve_all.
Recovery recover(const MultiTortureOptions& options, db::WalFaultHook* hook,
                 std::vector<std::string>& errors) {
  Recovery recovery;
  std::vector<db::KvStore*> ptrs;
  for (int32_t i = 0; i < options.shard_count; ++i) {
    recovery.stores.push_back(std::make_unique<db::KvStore>(
        options.scratch_dir / ("shard-" + std::to_string(i) + ".wal")));
    recovery.stores.back()->set_fault_hook(hook);
    ptrs.push_back(recovery.stores.back().get());
  }
  db::RecoveryManager manager(ptrs, {.seed = options.seed ^ 0x5ec0feULL});
  const auto check_survey = [&](const char* when) {
    db::BatchSurvey on_disk = manager.survey_all();
    if (manager.survey_live() != on_disk) {
      errors.push_back(std::string("stores' surveys differ from their logs ") + when);
    }
    return on_disk;
  };
  (void)check_survey("after the reopen");
  recovery.report = manager.resolve_all();
  recovery.survey = check_survey("after resolve_all");
  return recovery;
}

/// One crash point: the workload under `plan`, then recovery. With
/// `recovery_plan`, a first recovery runs with that plan's injector on the
/// reopened stores and the result's crash fields describe it; the checked
/// recovery always reopens afterwards from whatever the WALs then hold.
struct MultiPoint {
  CrashPointResult result;
  std::map<db::TxnId, bool> committed;  ///< every instance's final outcome
  db::RecoveryReport first_report;      ///< the hooked recovery's, if it finished
};

MultiPoint run_multi_point(const MultiTortureOptions& options, const FaultPlan& plan,
                           const FaultPlan* recovery_plan) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);

  MultiPoint point;
  CrashPointResult& result = point.result;
  FaultInjector injector(plan);
  std::vector<db::TxnId> execution_order;
  const auto reference = run_multi_workload(options, injector, result.crashed,
                                            result.crash_site, execution_order);
  result.sites_seen = injector.sites_seen();

  if (recovery_plan != nullptr) {
    FaultInjector recovery_injector(*recovery_plan);
    result.crashed = false;
    result.crash_site = -1;
    try {
      point.first_report = recover(options, &recovery_injector, result.errors).report;
    } catch (const db::CrashInjected& crash) {
      result.crashed = true;
      result.crash_site = crash.site();
    }
    result.sites_seen = recovery_injector.sites_seen();
  }

  // The process is dead; only the WALs remain. Reopen every shard from disk
  // (no fault hook — this recovery runs on healthy storage) and resolve the
  // whole in-doubt instance space from the stores' surveys.
  const Recovery recovery = recover(options, nullptr, result.errors);
  const auto& stores = recovery.stores;
  result.report = recovery.report;

  for (int32_t i = 0; i < options.shard_count; ++i) {
    if (!stores[static_cast<size_t>(i)]->in_doubt().empty()) {
      result.errors.push_back("shard " + std::to_string(i) +
                              " still holds in-doubt transactions after recovery");
    }
  }

  // Final outcome of every instance the reference knows about, per the
  // recovered WALs (one batch survey — never a per-txn rescan).
  const db::BatchSurvey& survey = recovery.survey;
  std::map<db::TxnId, bool>& committed = point.committed;
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
  return point;
}

/// Runs `run_point` at every (site × kind) below `sites`, on the pool when
/// asked, folding the results in enumeration order (thread-count
/// independent). Each point gets its own scratch directory.
SweepResult sweep_sites(
    const MultiTortureOptions& options, int64_t sites, const SweepOptions& sweep,
    const std::function<CrashPointResult(const MultiTortureOptions&, const FaultPlan&)>&
        run_point) {
  SweepResult out;
  out.sites = sites;
  if (sweep.max_sites >= 0) sites = std::min(sites, sweep.max_sites);

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
    results[static_cast<size_t>(j)] = run_point(point, plans[static_cast<size_t>(j)]);
    fs::remove_all(point.scratch_dir);
  };
  if (sweep.threads > 1) {
    swarm::WorkStealingPool pool(sweep.threads);
    pool.run(static_cast<int64_t>(jobs.size()), run_one);
  } else {
    for (int64_t j = 0; j < static_cast<int64_t>(jobs.size()); ++j) run_one(j);
  }

  for (size_t j = 0; j < jobs.size(); ++j) {
    ++out.crash_points;
    if (!results[j].ok()) out.failures.push_back({plans[j], results[j]});
  }
  return out;
}

}  // namespace

CrashPointResult run_multi_crash_point(const MultiTortureOptions& options,
                                       const FaultPlan& plan) {
  return run_multi_point(options, plan, nullptr).result;
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
  MultiTortureOptions probe = options;
  probe.scratch_dir = options.scratch_dir / "enumerate";
  const auto sites = static_cast<int64_t>(enumerate_multi_sites(probe).size());
  fs::remove_all(probe.scratch_dir);
  return sweep_sites(options, sites, sweep, run_multi_crash_point);
}

SweepResult run_multi_recovery_sweep(const MultiTortureOptions& options,
                                     const FaultPlan& workload_plan,
                                     const SweepOptions& sweep) {
  // The no-crash recovery, with an empty-plan injector on the reopened
  // stores: it counts the outcome-group sites and is the baseline.
  MultiTortureOptions probe = options;
  probe.scratch_dir = options.scratch_dir / "baseline";
  const FaultPlan none = FaultPlan::none();
  const MultiPoint baseline = run_multi_point(probe, workload_plan, &none);
  fs::remove_all(probe.scratch_dir);
  RCOMMIT_CHECK_MSG(!baseline.result.crashed, "empty recovery plan must not crash");
  RCOMMIT_CHECK_MSG(baseline.result.ok(),
                    "the no-crash recovery fails its own checks:\n"
                        << baseline.result.serialize());

  return sweep_sites(
      options, baseline.result.sites_seen, sweep,
      [&](const MultiTortureOptions& point_options, const FaultPlan& plan) {
        MultiPoint point = run_multi_point(point_options, workload_plan, &plan);
        auto& errors = point.result.errors;
        if (point.committed != baseline.committed) {
          errors.push_back("decisions differ from the no-crash recovery's");
        }
        if (point.result.digest != baseline.result.digest) {
          errors.push_back("final state differs from the no-crash recovery's");
        }
        // Outcomes flushed before the crash are adopted by rule 1: the
        // re-resolution never decides more instances, nor reruns more
        // rounds, than the crashed recovery set out to.
        const db::RecoveryReport& before = baseline.first_report;
        const db::RecoveryReport& after = point.result.report;
        if (after.resolved_commit + after.resolved_abort >
                before.resolved_commit + before.resolved_abort ||
            after.reran_protocol > before.reran_protocol) {
          errors.push_back("re-resolution did more than the crashed recovery");
        }
        return point.result;
      });
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
