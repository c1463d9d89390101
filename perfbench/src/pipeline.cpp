// The `pipeline` workload and its mirrored driver.
//
// Plain run: set the database up five times (preload + open the engine),
// keep the last, then drive execute_pipelined for the run's seconds,
// checkpointing every shard every 256 batches while the engine is idle and
// then restarting the database twice from the checkpointed WALs
// (recovery_ms). Outputs, restarts included, are checked against a
// reference built by replaying the committed transactions' writes in
// instance order.
//
// Traced run: the engine runs a third of the time untraced; the mirrored
// driver then repeats exactly the same batches three times through public
// KvStore and Simulator calls — untraced, with spans around every layer
// call, untraced again — so the per-layer numbers, the trace overhead and
// the mirror's own end-to-end time all come from identical inputs.
#include <algorithm>
#include <limits>
#include <set>

#include "db/multishot.h"
#include "workloads.h"

namespace perfbench {

using namespace rcommit;

namespace {

constexpr int32_t kDecisionBatch = 8;
constexpr int64_t kCheckpointEvery = 256;
constexpr int64_t kWarmupBatches = 16;
constexpr double kSkew = 0.9;

/// What one drive of the workload (engine or mirror) produced.
struct Drive {
  int64_t batches = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t measured_committed = 0;
  int64_t aborted = 0;
  int64_t in_doubt = 0;
  int64_t user_bytes = 0;
  int64_t peak_wal_bytes = 0;
  double busy_s = 0.0;                 ///< measured batches + checkpoints
  double call_s = 0.0;                 ///< measured batches, wall time
  double call_cpu_s = 0.0;             ///< measured batches, CPU time
  /// Committed transactions per second of busy time, one value per
  /// checkpoint interval (its batches plus its checkpoint), measured only.
  std::vector<double> window_txn_per_s;
  /// CPU time of each measured call, plus that of the checkpoint it waited
  /// for. The call runs on the driver thread and never blocks (WAL flushes
  /// are write(2) into the page cache, decision rounds run on the in-thread
  /// simulator), so its CPU time is its latency without the stretches the
  /// host took the CPU away.
  std::vector<double> batch_ms;
  std::vector<double> checkpoint_ms;   ///< every shard, one checkpoint round
  db::WalStats wal;
  int64_t conflicts = 0;
};

/// Drives batches from `inputs` through `execute` until `max_batches`, or
/// until `deadline` once at least `min_batches` ran. The first
/// kWarmupBatches are executed and checked but not measured. `pause`, if
/// set, runs after every checkpoint, outside the timed intervals.
template <typename Execute>
Drive drive(uint64_t seed, const fs::path& dir, std::vector<db::KvStore*> stores,
            Execute&& execute, ShardState& reference, Clock::time_point deadline,
            int64_t min_batches, int64_t max_batches, Tracer& tracer,
            const std::function<void()>& pause) {
  PipelineInputs inputs(seed);
  WalCounters counters(kShards);
  Drive run;
  double checkpoint_debt_ms = 0.0;
  double window_busy_s = 0.0;
  int64_t window_committed = 0;
  while (run.batches < max_batches &&
         (run.batches < min_batches || Clock::now() < deadline)) {
    const auto batch = inputs.next_batch();
    for (const auto& txn : batch) run.user_bytes += user_bytes(txn);
    const bool measured = run.batches >= kWarmupBatches;

    const auto start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    const std::vector<db::TxnOutcome> outcomes =
        execute(inputs.origin(), batch, run.batches);
    const double call_cpu_s = process_cpu_seconds() - cpu_start;
    const double call_s = seconds_since(start);
    if (measured) {
      run.busy_s += call_s;
      run.call_s += call_s;
      run.call_cpu_s += call_cpu_s;
      window_busy_s += call_s;
      // The batch issued right after a checkpoint waited for it.
      run.batch_ms.push_back(call_cpu_s * 1e3 + checkpoint_debt_ms);
    }
    checkpoint_debt_ms = 0.0;

    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& outcome = outcomes[i];
      if (!outcome.decided) {
        ++run.in_doubt;
      } else if (outcome.decision == Decision::kCommit) {
        ++run.committed;
        if (measured) {
          ++run.measured_committed;
          ++window_committed;
        }
        for (const auto& [shard, writes] : batch[i]) {
          for (const auto& write : writes) {
            reference[static_cast<size_t>(shard)][write.key] = write.value;
          }
        }
      } else {
        ++run.aborted;
      }
    }
    run.attempted += static_cast<int64_t>(batch.size());
    ++run.batches;

    if (run.batches % kCheckpointEvery == 0) {
      run.peak_wal_bytes = std::max(run.peak_wal_bytes, dir_bytes(dir));
      const auto checkpoint_start = Clock::now();
      const double checkpoint_cpu_start = process_cpu_seconds();
      {
        SpanGuard root(tracer, "checkpoint", run.batches);
        for (int32_t shard = 0; shard < kShards; ++shard) {
          counters.before_checkpoint(shard, *stores[static_cast<size_t>(shard)]);
          SpanGuard span(tracer, "db.kv.checkpoint", run.batches);
          stores[static_cast<size_t>(shard)]->checkpoint();
        }
      }
      const double checkpoint_cpu_s = process_cpu_seconds() - checkpoint_cpu_start;
      const double checkpoint_s = seconds_since(checkpoint_start);
      run.checkpoint_ms.push_back(checkpoint_s * 1e3);
      // Untimed: the compacted logs and the interval's appends go to disk
      // now rather than by background writeback during later batches.
      sync_wals(dir);
      if (pause) pause();
      if (measured) {
        run.busy_s += checkpoint_s;
        checkpoint_debt_ms = checkpoint_cpu_s * 1e3;
        window_busy_s += checkpoint_s;
        run.window_txn_per_s.push_back(static_cast<double>(window_committed) / window_busy_s);
      }
      window_busy_s = 0.0;
      window_committed = 0;
    }
  }
  run.peak_wal_bytes = std::max(run.peak_wal_bytes, dir_bytes(dir));
  std::vector<const db::KvStore*> view(stores.begin(), stores.end());
  run.wal = counters.total(view);
  for (const auto* store : view) run.conflicts += store->locks().conflicts();
  return run;
}

EngineFactory engine_factory(uint64_t seed) {
  return [seed](const fs::path& dir) {
    db::MultiShotDb::Options options;
    options.shard_count = kShards;
    options.data_dir = dir;
    options.seed = seed;
    options.decision_transport = db::DecisionTransport::kSimulator;
    options.group_commit = true;
    options.decision_batch = kDecisionBatch;
    return std::make_unique<db::MultiShotDb>(options);
  };
}

// --- the mirrored driver -------------------------------------------------------

/// execute_pipelined rebuilt from public calls: KvStore prepare / seal /
/// commit / abort and group flushes per shard, decision rounds on the
/// simulator with the engine's seed mix. Same ids, same seeds, same WAL
/// bytes as the engine on the same inputs.
class MirrorPipeline {
 public:
  MirrorPipeline(const fs::path& dir, uint64_t seed, Tracer& tracer)
      : seed_(seed), tracer_(tracer), next_sequence_(kShards, 1) {
    for (int32_t shard = 0; shard < kShards; ++shard) {
      stores_.push_back(std::make_unique<db::KvStore>(shard_wal(dir, shard)));
      stores_.back()->wal_begin_group();
    }
  }

  std::vector<db::KvStore*> stores() {
    std::vector<db::KvStore*> out;
    for (auto& store : stores_) out.push_back(store.get());
    return out;
  }

  std::vector<db::TxnOutcome> execute(int32_t origin,
                                      const std::vector<db::GeneratedTxn>& batch,
                                      int64_t request) {
    SpanGuard root(tracer_, "batch", request);
    struct Instance {
      db::TxnId txn = 0;
      std::vector<int32_t> involved;
      bool yes = true;
    };
    std::vector<Instance> instances;
    instances.reserve(batch.size());
    for (const auto& writes : batch) {
      Instance instance;
      instance.txn = db::make_txn_id(origin, next_sequence_[static_cast<size_t>(origin)]++);
      for (const auto& [shard, shard_writes] : writes) {
        (void)shard_writes;
        instance.involved.push_back(shard);
      }
      for (const int32_t shard : instance.involved) {
        SpanGuard span(tracer_, "db.kv.prepare", request);
        if (!stores_[static_cast<size_t>(shard)]->prepare(instance.txn, writes.at(shard),
                                                          instance.involved)) {
          instance.yes = false;
          break;
        }
      }
      instances.push_back(std::move(instance));
    }
    flush_all(request);

    std::vector<db::TxnOutcome> outcomes(instances.size());
    for (size_t base = 0; base < instances.size(); base += kDecisionBatch) {
      const size_t end = std::min(instances.size(), base + kDecisionBatch);
      std::vector<size_t> yes;
      for (size_t i = base; i < end; ++i) {
        if (instances[i].yes) {
          yes.push_back(i);
        } else {
          outcomes[i] = {Decision::kAbort, true};
        }
      }
      if (yes.empty()) continue;
      if (yes.size() == 1) {
        outcomes[yes.front()] =
            round(instances[yes.front()].involved, instances[yes.front()].txn, request);
        continue;
      }
      std::set<int32_t> shard_set;
      std::vector<db::TxnId> ids;
      for (const size_t i : yes) {
        shard_set.insert(instances[i].involved.begin(), instances[i].involved.end());
        ids.push_back(instances[i].txn);
      }
      const std::vector<int32_t> shards(shard_set.begin(), shard_set.end());
      {
        SpanGuard span(tracer_, "db.kv.seal", request);
        for (const int32_t shard : shards) {
          stores_[static_cast<size_t>(shard)]->seal_batch(ids.front(), ids);
        }
      }
      const db::TxnOutcome outcome = round(shards, ids.front(), request);
      for (const size_t i : yes) outcomes[i] = outcome;
    }

    for (size_t i = 0; i < instances.size(); ++i) {
      if (!outcomes[i].decided) continue;
      SpanGuard span(tracer_, "db.kv.apply", request);
      for (const int32_t shard : instances[i].involved) {
        auto& store = *stores_[static_cast<size_t>(shard)];
        if (outcomes[i].decision == Decision::kCommit) {
          store.commit(instances[i].txn);
        } else {
          store.abort(instances[i].txn);
        }
      }
    }
    flush_all(request);
    return outcomes;
  }

  int64_t rounds = 0;
  int64_t events = 0;
  int64_t messages = 0;

 private:
  void flush_all(int64_t request) {
    for (auto& store : stores_) {
      SpanGuard span(tracer_, "db.wal.flush", request);
      store->wal_commit_group();
    }
  }

  db::TxnOutcome round(const std::vector<int32_t>& shards, db::TxnId id, int64_t request) {
    const auto n = static_cast<int32_t>(shards.size());
    if (n == 1) return {Decision::kCommit, true};
    SpanGuard span(tracer_, "sim.round", request);
    const SimRound result = run_sim_round(n, instance_seed(seed_, id));
    ++rounds;
    events += result.events;
    messages += result.messages;
    return {result.commit ? Decision::kCommit : Decision::kAbort, result.decided};
  }

  uint64_t seed_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<db::KvStore>> stores_;
  std::vector<int64_t> next_sequence_;
};

void check_drive(const Drive& run, const std::vector<db::KvStore*>& stores,
                 const ShardState& reference, const std::string& who,
                 RunResult& result) {
  result.attempted += run.attempted;
  if (run.in_doubt > 0) result.fail(run.in_doubt, who + ": in-doubt outcomes");
  const std::vector<const db::KvStore*> view(stores.begin(), stores.end());
  const int64_t mismatches = state_mismatches(view, reference);
  if (mismatches > 0) result.fail(mismatches, who + ": snapshot keys differ from the reference");
}

void check_engine_stats(const db::MultiShotDb& engine, const Drive& run,
                        RunResult& result) {
  const db::MultiShotStats stats = engine.stats();
  if (stats.in_doubt != 0) result.fail(stats.in_doubt, "MultiShotStats::in_doubt");
  if (stats.committed != run.committed) {
    result.fail(1, "MultiShotStats::committed disagrees with the outcomes");
  }
}

RunResult plain(const RunOptions& options) {
  RunResult result;
  // Host speed, sampled in each phase: set-up, then the drive with its
  // restarts.
  HostSpeed setup_speed;
  HostSpeed drive_speed;
  double setup_s = 0.0;
  EngineSetup setup =
      set_up_repeatedly(options.scratch, engine_factory(options.seed), setup_s, setup_speed);
  ShardState reference = setup.state;
  Tracer off(false);
  auto& engine = *setup.engine;
  std::vector<double> restart_ms;
  const auto deadline = deadline_after(options.seconds);
  const Drive run = drive(
      options.seed, setup.dir, engine_stores(engine),
      [&](int32_t origin, const std::vector<db::GeneratedTxn>& batch, int64_t) {
        return engine.execute_pipelined(origin, batch);
      },
      reference, deadline, 4 * kCheckpointEvery,
      std::numeric_limits<int64_t>::max(), off, [&] {
        pause_restarts(setup.dir, options.seed, reference, drive_speed, restart_ms, result);
      });
  check_drive(run, engine_stores(engine), reference, "engine", result);
  check_engine_stats(engine, run, result);

  // Every time here is CPU-bound, so each is reported at reference host
  // speed. txn_per_s is the median checkpoint interval: robust to a burst
  // of interference from outside the program in one part of the run.
  result.metrics["txn_per_s"] = median(run.window_txn_per_s) / drive_speed.factor();
  result.metrics["commit_p50_ms"] = median(run.batch_ms) * drive_speed.cpu_factor();
  result.metrics["commit_p99_ms"] =
      windowed_tail(run.batch_ms, 0.99, kTailWindow, "pipeline batch latency") *
      drive_speed.cpu_factor();
  result.metrics["commit_ratio"] =
      static_cast<double>(run.committed) / static_cast<double>(run.attempted);
  result.metrics["recovery_ms"] = median(restart_ms) * drive_speed.factor();
  result.metrics["setup_s"] = setup_s * setup_speed.factor();
  note() << "pipeline: " << run.batches << " batches, " << run.attempted
         << " txns, " << run.committed << " committed, " << run.aborted
         << " conflict aborts, " << run.batch_ms.size() << " latency samples, "
         << run.checkpoint_ms.size() << " checkpoints, " << restart_ms.size()
         << " restarts, peak WAL bytes on disk "
         << run.peak_wal_bytes << ", calls off-CPU for "
         << 100.0 * (1.0 - run.call_cpu_s / run.call_s) << "% of their wall time\n";
  note_host_speed({{"set-up", &setup_speed}, {"drive", &drive_speed}});
  return result;
}

struct MirrorDrive {
  Drive run;
  int64_t rounds = 0;
  int64_t events = 0;
  int64_t messages = 0;
};

/// Runs the mirrored driver over exactly the engine's batches in a fresh
/// preloaded directory and checks it reproduced the engine: same state,
/// same outcomes, same WAL counters.
MirrorDrive mirror_drive(const RunOptions& options, const std::string& name,
                         Tracer& tracer, const Drive& engine_run,
                         const ShardState& engine_reference, RunResult& result) {
  EngineSetup setup = set_up(options.scratch / name, nullptr);
  ShardState reference = setup.state;
  MirrorDrive out;
  {
    MirrorPipeline mirror(setup.dir, options.seed, tracer);
    out.run = drive(
        options.seed, setup.dir, mirror.stores(),
        [&](int32_t origin, const std::vector<db::GeneratedTxn>& batch, int64_t request) {
          return mirror.execute(origin, batch, request);
        },
        reference, Clock::now(), engine_run.batches, engine_run.batches, tracer, {});
    check_drive(out.run, mirror.stores(), reference, name, result);
    out.rounds = mirror.rounds;
    out.events = mirror.events;
    out.messages = mirror.messages;
  }
  fs::remove_all(setup.dir);
  if (reference != engine_reference) result.fail(1, name + ": state differs from the engine's");
  if (out.run.committed != engine_run.committed) {
    result.fail(1, name + ": outcomes differ from the engine's");
  }
  if (out.run.wal.records_appended != engine_run.wal.records_appended ||
      out.run.wal.flushes != engine_run.wal.flushes ||
      out.run.wal.bytes_written != engine_run.wal.bytes_written) {
    result.fail(1, name + ": WAL counters differ from the engine's");
  }
  return out;
}

RunResult traced(const RunOptions& options) {
  RunResult result;
  result.metrics = zero_per_layer();
  const double third = options.seconds / 3.0;

  // 1. The engine, untraced, for a third of the run (and at least two
  //    checkpoint intervals, so the checkpoint layer is always measured).
  EngineSetup engine_setup =
      set_up(options.scratch / "engine", engine_factory(options.seed));
  ShardState engine_reference = engine_setup.state;
  Tracer off(false);
  auto& engine = *engine_setup.engine;
  const Drive engine_run = drive(
      options.seed, engine_setup.dir, engine_stores(engine),
      [&](int32_t origin, const std::vector<db::GeneratedTxn>& batch, int64_t) {
        return engine.execute_pipelined(origin, batch);
      },
      engine_reference, deadline_after(third),
      2 * kCheckpointEvery, std::numeric_limits<int64_t>::max(), off, {});
  check_drive(engine_run, engine_stores(engine), engine_reference, "engine", result);
  check_engine_stats(engine, engine_run, result);
  const auto restarts = shutdown_and_restart(engine, engine_setup.dir, options.seed,
                                             engine_reference, true, result);
  report_restart_layers(engine_setup.dir, restarts, result.metrics);
  engine_setup.engine.reset();
  fs::remove_all(engine_setup.dir);

  // 2 to 4. The mirror on exactly the same batches: untraced, traced, and
  // untraced again, so the overhead's baseline straddles the traced pass.
  Tracer untraced_tracer(false);
  Tracer tracer(true);
  const MirrorDrive before = mirror_drive(options, "mirror-untraced", untraced_tracer,
                                          engine_run, engine_reference, result);
  const MirrorDrive mirrored = mirror_drive(options, "mirror-traced", tracer,
                                            engine_run, engine_reference, result);
  const MirrorDrive after = mirror_drive(options, "mirror-untraced", untraced_tracer,
                                         engine_run, engine_reference, result);
  const Drive& traced_run = mirrored.run;

  const auto txns = static_cast<double>(traced_run.attempted);
  auto& m = result.metrics;
  m["db.kv.prepare_us"] = static_cast<double>(tracer.total_ns("db.kv.prepare")) / 1e3 / txns;
  m["db.kv.apply_us"] = static_cast<double>(tracer.total_ns("db.kv.apply")) / 1e3 / txns;
  m["db.kv.checkpoint_ms"] = median(traced_run.checkpoint_ms);
  m["db.locks.conflicts_per_txn"] = static_cast<double>(engine_run.conflicts) /
                                    static_cast<double>(engine_run.attempted);
  m["db.wal.flush_us"] = static_cast<double>(tracer.total_ns("db.wal.flush")) / 1e3 /
                         static_cast<double>(tracer.count("db.wal.flush"));
  const auto engine_txns = static_cast<double>(engine_run.attempted);
  m["db.wal.records_per_txn"] =
      static_cast<double>(engine_run.wal.records_appended) / engine_txns;
  m["db.wal.flushes_per_txn"] = static_cast<double>(engine_run.wal.flushes) / engine_txns;
  m["db.wal.bytes_per_txn"] = static_cast<double>(engine_run.wal.bytes_written) / engine_txns;
  m["db.wal.bytes_per_user_byte"] = static_cast<double>(engine_run.wal.bytes_written) /
                                    static_cast<double>(engine_run.user_bytes);
  m["db.wal.peak_disk_bytes"] = static_cast<double>(engine_run.peak_wal_bytes);
  const auto rounds = static_cast<double>(mirrored.rounds);
  m["sim.round_us"] = static_cast<double>(tracer.total_ns("sim.round")) / 1e3 / rounds;
  m["sim.events_per_round"] = static_cast<double>(mirrored.events) / rounds;
  m["sim.messages_per_round"] = static_cast<double>(mirrored.messages) / rounds;
  m["sim.rounds_per_txn"] = rounds / txns;
  m["trace.coverage"] = static_cast<double>(tracer.child_total_ns()) /
                        static_cast<double>(tracer.root_total_ns());
  m["trace.overhead"] = 2.0 * traced_run.busy_s / (before.run.busy_s + after.run.busy_s);
  m["trace.mirror_us_per_txn"] = traced_run.busy_s * 1e6 /
                                 static_cast<double>(traced_run.batch_ms.size() *
                                                     PipelineInputs::kBatch);
  m["trace.engine_us_per_txn"] = engine_run.busy_s * 1e6 /
                                 static_cast<double>(engine_run.batch_ms.size() *
                                                     PipelineInputs::kBatch);
  note() << "pipeline traced: " << engine_run.batches << " batches per pass, "
         << tracer.spans().size() << " spans\n";
  tracer.write(options.trace_out);
  return result;
}

}  // namespace

PipelineInputs::PipelineInputs(uint64_t seed) : generator_(workload_shape(kSkew), seed) {}

std::vector<db::GeneratedTxn> PipelineInputs::next_batch() {
  origin_ = static_cast<int32_t>(batches_ % kShards);
  ++batches_;
  std::vector<db::GeneratedTxn> batch;
  batch.reserve(kBatch);
  for (int32_t i = 0; i < kBatch; ++i) batch.push_back(generator_.next());
  return batch;
}

RunResult run_pipeline(const RunOptions& options) {
  return options.trace ? traced(options) : plain(options);
}

}  // namespace perfbench
