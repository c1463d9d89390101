// The `recovery` workload and its mirrored driver.
//
// Set-up builds the crash image (five times, keeping the last). Each
// iteration restores the pristine image into a working copy, reopens the
// five shard stores and calls RecoveryManager::resolve_all(); the time from
// the first reopen to resolve_all returning is one recovery. Every
// iteration is checked: each in-doubt instance takes its rule's decision,
// nothing stays in doubt, the RecoveryReport matches the image, and every
// shard's state is exact.
//
// Traced run: engine iterations, then the mirrored driver — resolve_all
// rebuilt from public calls (survey_all, the three rules over the survey,
// rule-3 reruns on the simulator with the recovery seed mix, KvStore
// commit/abort) — alternately untraced and traced on the same image.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>

#include "crash_image.h"
#include "db/recovery.h"
#include "workloads.h"

namespace perfbench {

using namespace rcommit;

namespace {

/// The working copy recoveries run on. The first call to restore() copies
/// the pristine image; later calls truncate each shard's WAL back to its
/// pristine length. The log is append-only (recovery only appends outcome
/// records), so that restores it byte for byte — checked against the
/// pristine file every time — without rewriting 13 MB per iteration, whose
/// background writeback would otherwise land in the next timed recovery.
/// Restoring is untimed.
class WorkCopy {
 public:
  WorkCopy(const CrashImage& image, fs::path dir) : image_(image), dir_(std::move(dir)) {}

  const fs::path& restore() {
    if (!fs::exists(dir_)) {
      fs::create_directories(dir_);
      for (int32_t shard = 0; shard < kShards; ++shard) {
        fs::copy_file(shard_wal(image_.dir, shard), shard_wal(dir_, shard));
      }
    }
    for (int32_t shard = 0; shard < kShards; ++shard) {
      const fs::path pristine = shard_wal(image_.dir, shard);
      const fs::path work = shard_wal(dir_, shard);
      fs::resize_file(work, fs::file_size(pristine));
      if (read_file(work) != read_file(pristine)) {
        throw std::runtime_error("working copy differs from the pristine image");
      }
    }
    return dir_;
  }
  [[nodiscard]] const fs::path& dir() const { return dir_; }

 private:
  static std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  const CrashImage& image_;
  fs::path dir_;
};

/// Checks one recovered database against the image; returns the number of
/// failed operations (in-doubt instances with a wrong outcome, plus one per
/// other broken invariant).
int64_t check_recovered(const CrashImage& image, const ShardStores& stores,
                        const db::RecoveryReport& report, const std::string& who,
                        RunResult& result) {
  result.attempted += static_cast<int64_t>(image.in_doubt.size());
  int64_t wrong = 0;
  for (const auto& instance : image.in_doubt) {
    bool ok = true;
    for (const auto& [shard, writes] : instance.writes) {
      for (const auto& write : writes) {
        const auto value = stores.raw[static_cast<size_t>(shard)]->get(write.key);
        const bool present = value.has_value() && *value == write.value;
        ok = ok && present == instance.commits;
      }
    }
    if (!ok) ++wrong;
  }
  if (wrong > 0) result.fail(wrong, who + ": instances decided against their rule");
  int64_t left = 0;
  for (const auto* store : stores.raw) left += static_cast<int64_t>(store->in_doubt().size());
  if (left > 0) result.fail(left, who + ": in_doubt() not empty after recovery");
  if (report != image.expected) {
    result.fail(1, who + ": RecoveryReport does not match the image (commit " +
                       std::to_string(report.resolved_commit) + ", abort " +
                       std::to_string(report.resolved_abort) + ", reruns " +
                       std::to_string(report.reran_protocol) + ")");
  }
  const int64_t mismatches = state_mismatches(stores.view(), image.final_state);
  if (mismatches > 0) result.fail(mismatches, who + ": shard state differs from the image's");
  return wrong;
}

/// One engine recovery: restore the image, then reopen + resolve_all.
Restart engine_iteration(const CrashImage& image, WorkCopy& copy, uint64_t seed,
                         RunResult& result) {
  Restart it = restart(copy.restore(), seed, false);
  check_recovered(image, it.stores, it.report, "engine", result);
  return it;
}

// --- the mirrored driver -------------------------------------------------------

struct MirrorCounters {
  int64_t rounds = 0;
  int64_t events = 0;
  int64_t messages = 0;
  double survey_ms = 0.0;
  double reopen_ms = 0.0;
};

/// resolve_all rebuilt from public calls over one reopened image; returns
/// the time from the reopen to the last resolution, in milliseconds.
double mirror_iteration(const CrashImage& image, WorkCopy& copy, uint64_t seed,
                        Tracer& tracer, int64_t request, MirrorCounters& counters,
                        RunResult& result) {
  const fs::path& work = copy.restore();
  db::RecoveryReport report;
  const auto start = Clock::now();
  // Closed by hand before the output check, which is not recovery work.
  const int32_t root = tracer.open("recovery", request);
  ShardStores stores;
  {
    SpanGuard span(tracer, "db.recovery.reopen", request);
    stores = open_shards(work);
  }
  counters.reopen_ms += seconds_since(start) * 1e3;
  db::RecoveryManager::Options options;
  options.seed = seed;
  db::RecoveryManager manager(stores.raw, options);

  std::set<db::TxnId> pending;
  for (const auto* store : stores.raw) {
    for (const db::TxnId txn : store->in_doubt()) pending.insert(txn);
  }
  const auto survey_start = Clock::now();
  db::BatchSurvey survey;
  {
    SpanGuard span(tracer, "db.recovery.survey", request);
    survey = manager.survey_all();
  }
  counters.survey_ms += seconds_since(survey_start) * 1e3;

  // Rules 1 and 2 against the survey; rule 3 needs a rerun.
  struct Resolution {
    bool commit = false;
    bool rerun = false;
    std::vector<int32_t> prepared;
  };
  std::map<db::TxnId, Resolution> resolutions;
  std::map<db::TxnId, int64_t> seal_of;
  {
    SpanGuard span(tracer, "db.recovery.classify", request);
    for (const db::TxnId txn : pending) {
      Resolution resolution;
      bool any_commit = false;
      bool any_abort = false;
      bool any_staged = false;
      for (int32_t shard = 0; shard < kShards; ++shard) {
        switch (survey.status(shard, txn)) {
          case db::ShardTxnStatus::kCommitted: any_commit = true; break;
          case db::ShardTxnStatus::kAborted: any_abort = true; break;
          case db::ShardTxnStatus::kStagedOnly: any_staged = true; break;
          case db::ShardTxnStatus::kPrepared: resolution.prepared.push_back(shard); break;
          case db::ShardTxnStatus::kUnknown: break;
        }
      }
      bool missing = false;
      const auto listed = survey.participants.find(txn);
      if (listed != survey.participants.end()) {
        for (const int32_t shard : listed->second) {
          const auto status = survey.status(shard, txn);
          missing = missing || status == db::ShardTxnStatus::kUnknown ||
                    status == db::ShardTxnStatus::kStagedOnly;
        }
      }
      resolution.commit = any_commit;
      resolution.rerun = !any_commit && !any_abort && !any_staged && !missing;
      resolutions.emplace(txn, std::move(resolution));
    }
    for (const auto& [batch, members] : survey.batches) {
      for (const db::TxnId member : members) seal_of[member] = batch;
    }
  }

  const auto rerun = [&](int64_t mix_id, const std::vector<int32_t>& shards) {
    if (shards.size() == 1) return true;
    SpanGuard span(tracer, "sim.round", request);
    const SimRound round =
        run_sim_round(static_cast<int32_t>(shards.size()), instance_seed(seed, mix_id));
    ++counters.rounds;
    counters.events += round.events;
    counters.messages += round.messages;
    ++report.reran_protocol;
    return round.commit;
  };
  std::map<int64_t, bool> batch_decisions;
  for (const db::TxnId txn : pending) {
    const Resolution& resolution = resolutions.at(txn);
    bool commit = resolution.commit;
    if (resolution.rerun) {
      const auto sealed = seal_of.find(txn);
      if (sealed == seal_of.end()) {
        commit = rerun(txn, resolution.prepared);
      } else {
        auto cached = batch_decisions.find(sealed->second);
        if (cached == batch_decisions.end()) {
          std::set<int32_t> shards;
          for (const auto& [member, member_resolution] : resolutions) {
            const auto member_seal = seal_of.find(member);
            if (member_seal == seal_of.end() || member_seal->second != sealed->second ||
                !member_resolution.rerun) {
              continue;
            }
            shards.insert(member_resolution.prepared.begin(), member_resolution.prepared.end());
          }
          cached = batch_decisions
                       .emplace(sealed->second,
                                rerun(sealed->second, {shards.begin(), shards.end()}))
                       .first;
        }
        commit = cached->second;
      }
    }
    SpanGuard span(tracer, "db.recovery.apply", request);
    for (const int32_t shard : resolution.prepared) {
      auto& store = *stores.raw[static_cast<size_t>(shard)];
      const auto doubt = store.in_doubt();
      if (std::find(doubt.begin(), doubt.end(), txn) == doubt.end()) continue;
      if (commit) {
        store.commit(txn);
      } else {
        store.abort(txn);
      }
    }
    (commit ? report.resolved_commit : report.resolved_abort) += 1;
  }
  tracer.close(root);
  const double total_ms = seconds_since(start) * 1e3;
  check_recovered(image, stores, report, "mirror", result);
  return total_ms;
}

CrashImage set_up_image(const RunOptions& options, double& setup_s, HostSpeed& speed) {
  std::vector<double> seconds;
  CrashImage image;
  speed.probe();
  for (int round = 0; round < kSetups; ++round) {
    // Untimed: each build starts from the same disk, without the earlier
    // 13 MB image, whose writeback would otherwise land in the next timing.
    fs::remove_all(options.scratch / "image");
    const auto start = Clock::now();
    image = build_crash_image(options.seed, options.scratch / "image");
    seconds.push_back(seconds_since(start));
    speed.probe();
  }
  setup_s = median(seconds);
  return image;
}

RunResult plain(const RunOptions& options) {
  RunResult result;
  HostSpeed setup_speed;
  HostSpeed recovery_speed;
  double setup_s = 0.0;
  const CrashImage image = set_up_image(options, setup_s, setup_speed);
  WorkCopy copy(image, options.scratch / "work");
  // One cold recovery first: checked, not measured. It makes the working
  // copy; both it and the image then go to disk, untimed.
  (void)engine_iteration(image, copy, options.seed, result);
  sync_wals(image.dir);
  sync_wals(copy.dir());

  std::vector<double> total_ms;
  std::vector<double> commit_latency_ms;
  double committed = 0.0;
  double recovery_s = 0.0;
  const auto deadline = deadline_after(options.seconds);
  recovery_speed.probe();
  while (total_ms.size() < 3 || Clock::now() < deadline) {
    const Restart it = engine_iteration(image, copy, options.seed, result);
    recovery_speed.probe();
    const double ms = it.timing.total_ms;
    total_ms.push_back(ms);
    // Every transaction recovery commits waited the whole recovery: the
    // store serves none of them before resolve_all returns.
    commit_latency_ms.insert(commit_latency_ms.end(),
                             static_cast<size_t>(it.report.resolved_commit), ms);
    committed += static_cast<double>(it.report.resolved_commit);
    recovery_s += ms / 1e3;
  }
  const int64_t peak_wal_bytes = dir_bytes(copy.dir());

  // Recovery and set-up are CPU-bound: every time is reported at reference
  // host speed.
  const double factor = recovery_speed.factor();
  result.metrics["txn_per_s"] = committed / recovery_s / factor;
  result.metrics["commit_p50_ms"] = median(commit_latency_ms) * factor;
  result.metrics["commit_p99_ms"] =
      windowed_tail(commit_latency_ms, 0.99, kTailWindow, "recovery commit latency") * factor;
  result.metrics["commit_ratio"] =
      committed / static_cast<double>(image.in_doubt.size() * total_ms.size());
  result.metrics["recovery_ms"] = median(total_ms) * factor;
  result.metrics["setup_s"] = setup_s * setup_speed.factor();
  note() << "recovery: " << total_ms.size() << " recoveries of " << image.in_doubt.size()
         << " in-doubt instances (" << image.seals << " seals), peak WAL bytes on disk "
         << peak_wal_bytes << "\n";
  note_host_speed({{"set-up", &setup_speed}, {"recoveries", &recovery_speed}});
  return result;
}

RunResult traced(const RunOptions& options) {
  RunResult result;
  result.metrics = zero_per_layer();
  const double third = options.seconds / 3.0;
  HostSpeed unused_speed;
  double setup_s = 0.0;
  const CrashImage image = set_up_image(options, setup_s, unused_speed);
  WorkCopy copy(image, options.scratch / "work");

  std::vector<double> engine_ms;
  std::vector<double> resolve_ms;
  int64_t reruns = 0;
  auto deadline = deadline_after(third);
  while (engine_ms.empty() || Clock::now() < deadline) {
    const Restart it = engine_iteration(image, copy, options.seed, result);
    engine_ms.push_back(it.timing.total_ms);
    resolve_ms.push_back(it.timing.resolve_ms);
    reruns = it.report.reran_protocol;
  }
  const int64_t peak_wal_bytes = dir_bytes(copy.dir());
  double replay_ms = 0.0;
  {
    const auto start = Clock::now();
    for (int32_t shard = 0; shard < kShards; ++shard) {
      (void)db::WriteAheadLog(shard_wal(copy.dir(), shard)).replay();
    }
    replay_ms = seconds_since(start) * 1e3;
  }

  // Untraced and traced mirrored recoveries alternate, so neither side of
  // the overhead gets the warmer half of the run.
  Tracer untraced_tracer(false);
  MirrorCounters untraced_counters;
  Tracer tracer(true);
  MirrorCounters counters;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  deadline = deadline_after(third);
  while (traced_ms.empty() || Clock::now() < deadline) {
    untraced_ms.push_back(mirror_iteration(image, copy, options.seed, untraced_tracer, 0,
                                           untraced_counters, result));
    traced_ms.push_back(mirror_iteration(image, copy, options.seed, tracer,
                                         static_cast<int64_t>(traced_ms.size()), counters,
                                         result));
  }

  auto& m = result.metrics;
  const auto iterations = static_cast<double>(traced_ms.size());
  const auto in_doubt = static_cast<double>(image.in_doubt.size());
  m["db.wal.peak_disk_bytes"] = static_cast<double>(peak_wal_bytes);
  m["db.wal.replay_ms"] = replay_ms;
  m["db.recovery.reopen_ms"] = counters.reopen_ms / iterations;
  m["db.recovery.survey_ms"] = counters.survey_ms / iterations;
  m["db.recovery.resolve_ms"] = median(resolve_ms);
  m["db.recovery.reruns_per_in_doubt"] = static_cast<double>(reruns) / in_doubt;
  const auto rounds = static_cast<double>(counters.rounds);
  m["sim.round_us"] = static_cast<double>(tracer.total_ns("sim.round")) / 1e3 / rounds;
  m["sim.events_per_round"] = static_cast<double>(counters.events) / rounds;
  m["sim.messages_per_round"] = static_cast<double>(counters.messages) / rounds;
  m["sim.rounds_per_txn"] = rounds / (in_doubt * iterations);
  m["trace.coverage"] = static_cast<double>(tracer.child_total_ns()) /
                        static_cast<double>(tracer.root_total_ns());
  m["trace.overhead"] = median(traced_ms) / median(untraced_ms);
  m["trace.mirror_us_per_txn"] = median(traced_ms) * 1e3 / in_doubt;
  m["trace.engine_us_per_txn"] = median(engine_ms) * 1e3 / in_doubt;
  note() << "recovery traced: " << engine_ms.size() << " engine and " << traced_ms.size()
         << " mirrored recoveries, " << tracer.spans().size() << " spans\n";
  tracer.write(options.trace_out);
  return result;
}

}  // namespace

RunResult run_recovery(const RunOptions& options) {
  return options.trace ? traced(options) : plain(options);
}

}  // namespace perfbench
