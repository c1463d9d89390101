#include "faultinject/torture.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/multishot.h"
#include "db/workload.h"
#include "swarm/pool.h"

namespace rcommit::faultinject {

namespace fs = std::filesystem;

namespace {

// --- key=value forms ---------------------------------------------------------

/// Calls `field(key, member)` for every line of the text form, in file order.
/// serialize and deserialize both walk these lists, so they cannot drift.
template <typename F>
void fields(MultiTortureOptions& o, F&& field) {
  field("shard_count", o.shard_count);
  field("batches", o.batches);
  field("batch_size", o.batch_size);
  field("fanout", o.fanout);
  field("keys_per_shard", o.keys_per_shard);
  // Absent keys keep their defaults (off), which is how corpus entries
  // written before the group-commit knobs replay unchanged.
  field("group_commit", o.group_commit);
  field("decision_batch", o.decision_batch);
  field("seed", o.seed);
}

template <typename F>
void fields(CrashPointResult& r, F&& field) {
  field("crashed", r.crashed);
  field("crash_site", r.crash_site);
  field("sites_seen", r.sites_seen);
  field("resolved_commit", r.report.resolved_commit);
  field("resolved_abort", r.report.resolved_abort);
  field("reran_protocol", r.report.reran_protocol);
  field("committed_txns", r.committed_txns);
  field("digest", r.digest);
  field("error", r.errors);  // one line per error
}

template <typename T>
std::string write_fields(T object) {
  std::ostringstream out;
  fields(object, [&](const char* key, const auto& member) {
    using V = std::decay_t<decltype(member)>;
    if constexpr (std::is_same_v<V, std::vector<std::string>>) {
      for (const auto& item : member) out << key << '=' << item << '\n';
    } else {
      out << key << '=' << member << '\n';  // a bool prints as 0 or 1
    }
  });
  return out.str();
}

template <typename T>
T read_fields(const std::string& text, const char* what) {
  T object;
  for_each_key_value(text, what, [&](std::string_view key, std::string_view value) {
    bool known = false;
    fields(object, [&](const char* name, auto& member) {
      if (known || key != name) return;
      known = true;
      using V = std::decay_t<decltype(member)>;
      if constexpr (std::is_same_v<V, std::vector<std::string>>) {
        member.emplace_back(value);
      } else {
        parse_value(key, value, member);
      }
    });
    RCOMMIT_CHECK_MSG(known, "unknown " << what << " key '" << key << "'");
  });
  return object;
}

// --- the workload driver -----------------------------------------------------

/// What the driver observed for one transaction before the crash.
enum class Observed {
  kCommitted,
  kAborted,
  kInDoubt,  ///< in flight at the crash, or the protocol left it undecided
};

Observed observe(const db::TxnOutcome& outcome) {
  if (!outcome.decided) return Observed::kInDoubt;
  return outcome.decision == Decision::kCommit ? Observed::kCommitted
                                               : Observed::kAborted;
}

struct TxnRef {
  db::GeneratedTxn writes;
  Observed observed = Observed::kInDoubt;
};

/// What the driver leaves behind: the reference model, and the crash if the
/// plan fired one.
struct WorkloadRun {
  std::map<db::TxnId, TxnRef> reference;
  /// Every transaction, in the order its writes would take effect.
  std::vector<db::TxnId> execution_order;
  bool crashed = false;
  int64_t crash_site = -1;
  std::vector<SiteInfo> sites;  ///< the WAL sites reached, in order
};

/// The workload against a fresh MultiShotDb in the scratch dir.
WorkloadRun drive(const MultiTortureOptions& options, FaultInjector& injector) {
  // Its origin field sits past every real shard, so it can never collide
  // with an engine-allocated id.
  const db::TxnId hot_txn = db::make_txn_id(options.shard_count, 1);
  WorkloadRun run;
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
    // A transaction prepared on shard 0 and held in doubt for the whole run.
    run.reference[hot_txn].writes = {{0, {{"hot", "held"}}}};
    RCOMMIT_CHECK(database.shard(0).prepare(hot_txn, {{"hot", "held"}}, {0}));
    db::WorkloadGenerator generator({.shard_count = options.shard_count,
                                     .keys_per_shard = options.keys_per_shard,
                                     .fanout = options.fanout,
                                     .writes_per_shard = 1,
                                     .skew = 0.0},
                                    options.seed);
    // Mirror the engine's id allocation (per-origin sequences from 1) so the
    // reference knows each instance's id before the batch runs — instances
    // past a mid-batch crash simply never appear in any WAL.
    std::vector<int64_t> next_sequence(static_cast<size_t>(options.shard_count), 1);
    for (int32_t b = 0; b < options.batches; ++b) {
      const int32_t origin = b % options.shard_count;
      std::vector<db::GeneratedTxn> batch;
      std::vector<db::TxnId> ids;
      for (int32_t i = 0; i < options.batch_size; ++i) {
        db::GeneratedTxn writes = generator.next();
        // Every third instance of a batch contends on the held hot key (so
        // at batch_size 1 none does).
        if (i % 3 == 1) {
          writes[0] = {{"hot", "steal-" + std::to_string(b) + "-" +
                                   std::to_string(i)}};
        }
        const db::TxnId id = db::make_txn_id(
            origin, next_sequence[static_cast<size_t>(origin)]++);
        run.reference[id].writes = writes;
        run.execution_order.push_back(id);
        batch.push_back(std::move(writes));
        ids.push_back(id);
      }
      const auto outcomes = database.execute_pipelined(origin, batch);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        run.reference[ids[i]].observed = observe(outcomes[i]);
      }
    }
  } catch (const db::CrashInjected& crash) {
    run.crashed = true;
    run.crash_site = crash.site();
  }
  // The hot instance resolves last (recovery works in ascending id order and
  // its origin field is the largest); every write competing for its key
  // aborts.
  run.execution_order.push_back(hot_txn);
  return run;
}

// --- recovery and the checker ------------------------------------------------

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

/// Every shard reopened from its WAL and resolved.
struct Recovery {
  std::vector<std::unique_ptr<db::KvStore>> stores;
  db::RecoveryReport report;
  db::BatchSurvey survey;  ///< read back from disk after resolve_all
};

/// Reopens every shard from disk and resolves the whole in-doubt space.
/// `hook` (may be null) is installed on the reopened stores, so resolve_all
/// may crash at an outcome-group flush. Each store's survey is checked
/// against its log on disk after the reopen and after resolve_all.
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

std::string txn_error(db::TxnId txn, const std::string& what) {
  return "txn " + std::to_string(txn) + ": " + what;
}

/// The crash-point checks of a recovered run against its reference; fills
/// `result`'s verdict fields and returns every transaction's final outcome.
std::map<db::TxnId, bool> check_recovery(const WorkloadRun& run,
                                         const Recovery& recovery,
                                         CrashPointResult& result) {
  const auto& stores = recovery.stores;
  const auto shard_count = static_cast<int32_t>(stores.size());
  result.report = recovery.report;
  for (int32_t i = 0; i < shard_count; ++i) {
    if (!stores[static_cast<size_t>(i)]->in_doubt().empty()) {
      result.errors.push_back("shard " + std::to_string(i) +
                              " still holds in-doubt transactions after recovery");
    }
  }

  // Final outcome of every transaction the reference knows about, per the
  // recovered WALs (one survey — never a per-transaction rescan).
  const db::BatchSurvey& survey = recovery.survey;
  std::map<db::TxnId, bool> committed;
  for (const auto& [txn, ref] : run.reference) {
    bool any_commit = false;
    bool any_abort = false;
    for (int32_t shard = 0; shard < shard_count; ++shard) {
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
      // Atomicity: the whole intended participant set installed it.
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

  // Reference state: committed transactions' writes, applied in execution
  // order. Transactions that commit overlapping keys never race (within a
  // batch the no-wait lock table forces the later prepare to vote abort, and
  // batches run one after another), so recovery's ascending-id resolution of
  // the leftovers agrees with this order.
  std::vector<std::map<std::string, std::string>> expected(
      static_cast<size_t>(shard_count));
  for (const db::TxnId txn : run.execution_order) {
    if (!committed[txn]) continue;
    for (const auto& [shard, writes] : run.reference.at(txn).writes) {
      for (const auto& write : writes) {
        expected[static_cast<size_t>(shard)][write.key] = write.value;
      }
    }
  }
  for (int32_t i = 0; i < shard_count; ++i) {
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
  return committed;
}

/// The workload under `plan`, with its WALs in a fresh scratch directory.
WorkloadRun run_workload(const MultiTortureOptions& options, const FaultPlan& plan) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);
  FaultInjector injector(plan);
  WorkloadRun run = drive(options, injector);
  run.sites = injector.sites();
  return run;
}

/// One crash point: recovery of the WALs `run` left in the scratch dir,
/// checked against its reference. With `recovery_plan`, a first recovery
/// runs with that plan's injector on the reopened stores and the result's
/// crash fields describe it; the checked recovery always reopens afterwards
/// from whatever the WALs then hold.
struct Point {
  CrashPointResult result;
  std::map<db::TxnId, bool> committed;  ///< every transaction's final outcome
  db::RecoveryReport first_report;      ///< the hooked recovery's, if it finished
};

Point check_point(const MultiTortureOptions& options, const WorkloadRun& run,
                  const FaultPlan* recovery_plan) {
  Point point;
  CrashPointResult& result = point.result;
  result.crashed = run.crashed;
  result.crash_site = run.crash_site;
  result.sites_seen = static_cast<int64_t>(run.sites.size());

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
  // (no fault hook — this recovery runs on healthy storage) and resolve.
  point.committed =
      check_recovery(run, recover(options, nullptr, result.errors), result);
  return point;
}

MultiTortureOptions in_subdir(const MultiTortureOptions& options,
                              const std::string& name) {
  MultiTortureOptions sub = options;
  sub.scratch_dir = options.scratch_dir / name;
  return sub;
}

// --- sweeps and the shrinker -------------------------------------------------

/// Runs `run_point` at every (site × kind) below `sites`, on the pool when
/// asked, folding the results in enumeration order (thread-count
/// independent). Each point gets its own scratch directory.
template <typename RunPoint>
SweepResult sweep_sites(const MultiTortureOptions& options, int64_t sites,
                        const SweepOptions& sweep, const RunPoint& run_point) {
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
    const MultiTortureOptions point = in_subdir(
        options, "site" + std::to_string(job.site) + "-" + to_string(job.kind));
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

std::string MultiTortureOptions::serialize() const { return write_fields(*this); }
MultiTortureOptions MultiTortureOptions::deserialize(const std::string& text) {
  return read_fields<MultiTortureOptions>(text, "config");
}
std::string CrashPointResult::serialize() const { return write_fields(*this); }
CrashPointResult CrashPointResult::deserialize(const std::string& text) {
  return read_fields<CrashPointResult>(text, "report");
}

CrashPointResult run_crash_point(const MultiTortureOptions& options,
                                 const FaultPlan& plan) {
  return check_point(options, run_workload(options, plan), nullptr).result;
}

std::vector<SiteInfo> enumerate_sites(const MultiTortureOptions& options) {
  WorkloadRun run = run_workload(options, FaultPlan::none());
  RCOMMIT_CHECK_MSG(!run.crashed, "empty plan must not crash");
  return std::move(run.sites);
}

SweepResult run_wal_sweep(const MultiTortureOptions& options, const SweepOptions& sweep) {
  const MultiTortureOptions probe = in_subdir(options, "enumerate");
  const auto sites = static_cast<int64_t>(enumerate_sites(probe).size());
  fs::remove_all(probe.scratch_dir);
  return sweep_sites(options, sites, sweep, run_crash_point);
}

SweepResult run_recovery_sweep(const MultiTortureOptions& options,
                               const FaultPlan& workload_plan,
                               const SweepOptions& sweep) {
  // The workload crashes once; every recovery point starts from a copy of
  // the WALs it left, so the points differ only in how recovery crashed.
  const MultiTortureOptions crashed = in_subdir(options, "workload");
  const WorkloadRun run = run_workload(crashed, workload_plan);
  const auto recover_copy = [&](const MultiTortureOptions& point, const FaultPlan& plan) {
    fs::remove_all(point.scratch_dir);
    fs::copy(crashed.scratch_dir, point.scratch_dir, fs::copy_options::recursive);
    return check_point(point, run, &plan);
  };
  // The no-crash recovery, with an empty-plan injector on the reopened
  // stores: it counts the outcome-group sites and is the baseline.
  const MultiTortureOptions probe = in_subdir(options, "baseline");
  const Point baseline = recover_copy(probe, FaultPlan::none());
  fs::remove_all(probe.scratch_dir);
  RCOMMIT_CHECK_MSG(!baseline.result.crashed, "empty recovery plan must not crash");
  RCOMMIT_CHECK_MSG(baseline.result.ok(),
                    "the no-crash recovery fails its own checks:\n"
                        << baseline.result.serialize());

  SweepResult out = sweep_sites(
      options, baseline.result.sites_seen, sweep,
      [&](const MultiTortureOptions& point_options, const FaultPlan& plan) {
        Point point = recover_copy(point_options, plan);
        auto& errors = point.result.errors;
        if (point.committed != baseline.committed) {
          errors.push_back("decisions differ from the no-crash recovery's");
        }
        if (point.result.digest != baseline.result.digest) {
          errors.push_back("final state differs from the no-crash recovery's");
        }
        // Outcomes flushed before the crash are adopted by rule 1: the
        // re-resolution never decides more transactions, nor reruns more
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
  fs::remove_all(crashed.scratch_dir);
  return out;
}

FaultPlan shrink_fault_plan(const MultiTortureOptions& options, const FaultPlan& plan,
                            const swarm::ShrinkOptions& shrink, int* evals) {
  const auto all = plan.all_actions();
  const auto subset = [&](const std::vector<size_t>& keep) {
    std::vector<FaultAction> actions;
    actions.reserve(keep.size());
    for (const size_t index : keep) actions.push_back(all[index]);
    return plan.with_actions(actions);
  };
  const MultiTortureOptions point = in_subdir(options, "shrink");
  const auto violates = [&](const std::vector<size_t>& keep) {
    return !run_crash_point(point, subset(keep)).ok();
  };
  const auto kept = swarm::ddmin_keep(all.size(), violates, shrink, evals);
  fs::remove_all(point.scratch_dir);
  return subset(kept);
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
  artifact.options = MultiTortureOptions::deserialize(read_file("config.txt"));
  artifact.plan = FaultPlan::deserialize(read_file("plan.txt"));
  artifact.expected = CrashPointResult::deserialize(read_file("report.txt"));
  return artifact;
}

CrashPointResult replay_fault_artifact(const FaultArtifact& artifact,
                                       const fs::path& scratch_dir) {
  MultiTortureOptions options = artifact.options;
  options.scratch_dir = scratch_dir;
  return run_crash_point(options, artifact.plan);
}

}  // namespace rcommit::faultinject
