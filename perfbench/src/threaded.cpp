// The `threaded` workload and its mirrored driver.
//
// Two closed-loop client threads call MultiShotDb::execute over the
// kThreadedNetwork decision transport (50-500 us links, default engine
// options: a flush per WAL append, one decision round per transaction).
// Every transaction writes keys of its own, so nothing conflicts; after the
// run each transaction's keys are read back — present with its values on
// every participant if it committed, on none otherwise. Every second the
// plain run pauses both clients and restarts the database twice from its
// WALs (recovery_ms), each restart checked against the writes committed so
// far.
//
// Traced run: the engine runs a third of the time; the mirrored driver then
// repeats each client's exact transaction sequence three times (untraced,
// traced, untraced), rebuilding execute() from public KvStore,
// InMemoryNetwork and NodeHost calls with spans around the round's set-up,
// decide wait and teardown.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "db/multishot.h"
#include "db/txn.h"
#include "transport/network.h"
#include "transport/node.h"
#include "workloads.h"

namespace perfbench {

using namespace rcommit;

namespace {

constexpr int32_t kClients = 2;
constexpr int64_t kWarmupTxns = 20;  ///< per client, executed but not measured

transport::LinkPolicy links() {
  transport::LinkPolicy policy;
  policy.min_delay = std::chrono::microseconds(50);
  policy.max_delay = std::chrono::microseconds(500);
  return policy;
}

EngineFactory engine_factory(uint64_t seed) {
  return [seed](const fs::path& dir) {
    db::MultiShotDb::Options options;
    options.shard_count = kShards;
    options.data_dir = dir;
    options.seed = seed;
    options.decision_transport = db::DecisionTransport::kThreadedNetwork;
    options.network = links();
    return std::make_unique<db::MultiShotDb>(options);
  };
}

struct TxnRecord {
  db::GeneratedTxn txn;
  db::TxnOutcome outcome;
  bool threw = false;
};

struct ClientRun {
  std::vector<TxnRecord> records;
  std::vector<double> latency_ms;  ///< measured transactions only
  double busy_s = 0.0;             ///< sum of measured latencies
  int64_t measured_committed = 0;
};

struct Drive {
  std::vector<ClientRun> clients;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t in_doubt = 0;
  int64_t errors = 0;
  int64_t user_bytes = 0;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> all;
    for (const auto& client : clients) {
      all.insert(all.end(), client.latency_ms.begin(), client.latency_ms.end());
    }
    return all;
  }
  [[nodiscard]] double mean_latency_ms() const {
    const auto all = latencies();
    double sum = 0.0;
    for (const double sample : all) sum += sample;
    return sum / static_cast<double>(all.size());
  }
};

/// Seconds of driving between two pauses of the plain run.
constexpr double kPauseEvery = 1.0;

/// Client c's closed loop, continuing its record and input streams, until
/// `stop` (limits empty; at least kWarmupTxns transactions in all) or
/// limits[c] transactions.
template <typename Execute>
void drive_client(Execute& execute, Clock::time_point stop,
                  const std::vector<int64_t>& limits, int32_t c,
                  std::vector<ThreadedInputs>& inputs, Drive& run) {
  ClientRun& mine = run.clients[static_cast<size_t>(c)];
  for (auto i = static_cast<int64_t>(mine.records.size());; ++i) {
    if (limits.empty() ? (i >= kWarmupTxns && Clock::now() >= stop)
                       : i >= limits[static_cast<size_t>(c)]) {
      break;
    }
    TxnRecord record;
    record.txn = inputs[static_cast<size_t>(c)].next();
    const int32_t origin = record.txn.begin()->first;
    const auto start = Clock::now();
    try {
      record.outcome = execute(c, origin, record.txn, i);
    } catch (const std::exception&) {
      record.threw = true;
    }
    const double latency_s = seconds_since(start);
    const bool committed = !record.threw && record.outcome.decided &&
                           record.outcome.decision == Decision::kCommit;
    if (i >= kWarmupTxns) {
      mine.latency_ms.push_back(latency_s * 1e3);
      mine.busy_s += latency_s;
      if (committed) ++mine.measured_committed;
    }
    mine.records.push_back(std::move(record));
  }
}

/// Runs kClients closed-loop clients through `execute` until `deadline`
/// (limits empty) or until client c has run limits[c] transactions. With
/// `pause` set, the clients stop every kPauseEvery seconds and `pause` runs
/// on the records so far while the engine is idle; the pauses count towards
/// the deadline.
template <typename Execute>
Drive drive(uint64_t seed, Execute&& execute, Clock::time_point deadline,
            const std::vector<int64_t>& limits,
            const std::function<void(const Drive&)>& pause = {}) {
  Drive run;
  run.clients.resize(kClients);
  std::vector<ThreadedInputs> inputs;
  for (int32_t c = 0; c < kClients; ++c) inputs.emplace_back(seed, c);
  for (;;) {
    const auto stop = pause ? std::min(deadline, deadline_after(kPauseEvery)) : deadline;
    std::vector<std::thread> threads;
    for (int32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] { drive_client(execute, stop, limits, c, inputs, run); });
    }
    for (auto& thread : threads) thread.join();
    if (!pause || Clock::now() >= deadline) break;
    pause(run);
  }
  for (const auto& client : run.clients) {
    for (const auto& record : client.records) {
      ++run.attempted;
      run.user_bytes += user_bytes(record.txn);
      if (record.threw) {
        ++run.errors;
      } else if (!record.outcome.decided) {
        ++run.in_doubt;
      } else if (record.outcome.decision == Decision::kCommit) {
        ++run.committed;
      }
    }
  }
  return run;
}

/// The E19 read-back: a transaction's keys are on all its participants or
/// on none, and on all exactly when it committed. `get(shard, key)` reads
/// one key from a quiescent database. Adds committed writes to `reference`.
template <typename Get>
void check_drive(const Drive& run, Get&& get, ShardState& reference,
                 const std::string& who, RunResult& result) {
  result.attempted += run.attempted;
  if (run.errors > 0) result.fail(run.errors, who + ": execute threw");
  if (run.in_doubt > 0) result.fail(run.in_doubt, who + ": in-doubt outcomes");
  int64_t partial = 0;
  int64_t wrong = 0;
  for (const auto& client : run.clients) {
    for (const auto& record : client.records) {
      size_t present = 0;
      for (const auto& [shard, writes] : record.txn) {
        bool all = true;
        for (const auto& write : writes) {
          const auto value = get(shard, write.key);
          all = all && value.has_value() && *value == write.value;
        }
        if (all) ++present;
      }
      const bool committed = !record.threw && record.outcome.decided &&
                             record.outcome.decision == Decision::kCommit;
      if (present != 0 && present != record.txn.size()) {
        ++partial;
      } else if (committed != (present == record.txn.size())) {
        ++wrong;
      }
      if (committed) {
        for (const auto& [shard, writes] : record.txn) {
          for (const auto& write : writes) {
            reference[static_cast<size_t>(shard)][write.key] = write.value;
          }
        }
      }
    }
  }
  if (partial > 0) result.fail(partial, who + ": installed on some participants only");
  if (wrong > 0) result.fail(wrong, who + ": visibility disagrees with the outcome");
}

// --- the mirrored driver -------------------------------------------------------

/// MultiShotDb::execute with default options rebuilt from public calls:
/// prepare on each shard under its lock, one decision round over a fresh
/// InMemoryNetwork with one NodeHost per participant (500 us node steps,
/// 250 us decide polls, the engine's seed derivation), then apply. The
/// engine's admission gate (at least 8 rounds) never binds at two clients
/// and is left out.
class MirrorThreaded {
 public:
  struct Counters {
    int64_t rounds = 0;
    int64_t frames = 0;
    int64_t ticks = 0;
  };

  MirrorThreaded(const fs::path& dir, uint64_t seed, std::vector<Tracer>& tracers)
      : seed_(seed), tracers_(tracers), counters_(kClients) {
    for (int32_t shard = 0; shard < kShards; ++shard) {
      stores_.push_back(std::make_unique<db::KvStore>(shard_wal(dir, shard)));
    }
  }

  db::TxnOutcome execute(int32_t client, int32_t origin, const db::GeneratedTxn& writes,
                         int64_t request) {
    Tracer& tracer = tracers_[static_cast<size_t>(client)];
    SpanGuard root(tracer, "txn", request);
    const db::TxnId txn = db::make_txn_id(origin, next_sequence_[static_cast<size_t>(origin)]++);
    std::vector<int32_t> involved;
    for (const auto& [shard, shard_writes] : writes) {
      (void)shard_writes;
      involved.push_back(shard);
    }
    bool yes = true;
    for (const int32_t shard : involved) {
      SpanGuard span(tracer, "db.kv.prepare", request);
      std::lock_guard<std::mutex> lock(mutexes_[static_cast<size_t>(shard)]);
      if (!stores_[static_cast<size_t>(shard)]->prepare(txn, writes.at(shard), involved)) {
        yes = false;
        break;
      }
    }
    db::TxnOutcome outcome{Decision::kAbort, true};
    if (yes) outcome = round(client, involved, txn, request);
    if (outcome.decided) {
      SpanGuard span(tracer, "db.kv.apply", request);
      for (const int32_t shard : involved) {
        std::lock_guard<std::mutex> lock(mutexes_[static_cast<size_t>(shard)]);
        auto& store = *stores_[static_cast<size_t>(shard)];
        if (outcome.decision == Decision::kCommit) {
          store.commit(txn);
        } else {
          store.abort(txn);
        }
      }
    }
    return outcome;
  }

  /// Quiescent read (after every client joined).
  [[nodiscard]] std::optional<std::string> get(int32_t shard, const std::string& key) const {
    return stores_[static_cast<size_t>(shard)]->get(key);
  }

  [[nodiscard]] Counters totals() const {
    Counters total;
    for (const auto& c : counters_) {
      total.rounds += c.rounds;
      total.frames += c.frames;
      total.ticks += c.ticks;
    }
    return total;
  }

 private:
  db::TxnOutcome round(int32_t client, const std::vector<int32_t>& involved, db::TxnId txn,
                       int64_t request) {
    const auto n = static_cast<int32_t>(involved.size());
    if (n == 1) return {Decision::kCommit, true};
    Tracer& tracer = tracers_[static_cast<size_t>(client)];
    Counters& counters = counters_[static_cast<size_t>(client)];
    const uint64_t seed = instance_seed(seed_, txn);
    constexpr Tick kK = 25;
    // Declared before the hosts, so the hosts (which hold a reference to
    // it) are destroyed first on every path.
    std::unique_ptr<transport::InMemoryNetwork> network;
    std::vector<std::unique_ptr<transport::NodeHost>> hosts;
    {
      SpanGuard span(tracer, "transport.round_setup", request);
      const SystemParams params{.n = n, .t = (n - 1) / 2, .k = kK};
      network = std::make_unique<transport::InMemoryNetwork>(n, seed, links());
      const auto seeds = derive_seeds(seed ^ 0xf1ee7, n);
      for (int32_t i = 0; i < n; ++i) {
        transport::NodeHost::Options options;
        options.id = i;
        options.seed = seeds[static_cast<size_t>(i)];
        options.step_period = std::chrono::microseconds(500);
        hosts.push_back(std::make_unique<transport::NodeHost>(
            options,
            db::make_commit_participant(db::CommitBackend::kPaperProtocol, params,
                                        /*vote=*/1, kK),
            *network));
      }
      network->start();
      for (auto& host : hosts) host->start();
    }
    {
      SpanGuard span(tracer, "transport.decide_wait", request);
      const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
      while (Clock::now() < deadline) {
        bool all = true;
        for (const auto& host : hosts) all = all && host->decided();
        if (all) {
          Tick ticks = 0;
          for (const auto& host : hosts) ticks = std::max(ticks, host->clock());
          counters.ticks += ticks;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(250));
      }
    }
    {
      SpanGuard span(tracer, "transport.teardown", request);
      for (auto& host : hosts) host->request_stop();
      for (auto& host : hosts) host->join();
      network->stop();
    }
    ++counters.rounds;
    counters.frames += network->frames_sent();
    db::TxnOutcome outcome{Decision::kAbort, true};
    for (const auto& host : hosts) {
      if (!host->process().decided()) {
        outcome.decided = false;
      } else if (host->process().decision() == Decision::kCommit) {
        outcome.decision = Decision::kCommit;
      }
    }
    return outcome;
  }

  uint64_t seed_;
  std::vector<Tracer>& tracers_;
  std::vector<Counters> counters_;  ///< one per client thread
  std::vector<std::unique_ptr<db::KvStore>> stores_;
  std::array<std::mutex, kShards> mutexes_;
  std::array<std::atomic<int64_t>, kShards> next_sequence_{1, 1, 1, 1, 1};
};

RunResult plain(const RunOptions& options) {
  RunResult result;
  // The drive's latency is set by the runtime's timers and sleeps, not by
  // how fast the host runs code, so only the CPU-bound set-up and restarts
  // are reported at reference host speed.
  HostSpeed setup_speed;
  HostSpeed restart_speed;
  double setup_s = 0.0;
  EngineSetup setup =
      set_up_repeatedly(options.scratch, engine_factory(options.seed), setup_s, setup_speed);
  auto& engine = *setup.engine;
  // At every pause: the committed writes so far, then restarts of the
  // database as the engine left it (every append is flushed).
  ShardState paused_reference = setup.state;
  std::vector<size_t> applied(kClients, 0);
  std::vector<double> restart_ms;
  const auto pause = [&](const Drive& so_far) {
    for (size_t c = 0; c < so_far.clients.size(); ++c) {
      const auto& records = so_far.clients[c].records;
      for (; applied[c] < records.size(); ++applied[c]) {
        const TxnRecord& record = records[applied[c]];
        if (record.threw || !record.outcome.decided ||
            record.outcome.decision != Decision::kCommit) {
          continue;
        }
        for (const auto& [shard, writes] : record.txn) {
          for (const auto& write : writes) {
            paused_reference[static_cast<size_t>(shard)][write.key] = write.value;
          }
        }
      }
    }
    pause_restarts(setup.dir, options.seed, paused_reference, restart_speed, restart_ms,
                   result);
  };
  const auto deadline = deadline_after(options.seconds);
  const Drive run = drive(
      options.seed,
      [&](int32_t, int32_t origin, const db::GeneratedTxn& txn, int64_t) {
        return engine.execute(origin, txn);
      },
      deadline, {}, pause);
  ShardState reference = setup.state;
  check_drive(
      run, [&](int32_t shard, const std::string& key) { return engine.get(shard, key); },
      reference, "engine", result);
  const db::MultiShotStats stats = engine.stats();
  if (stats.in_doubt != 0) result.fail(stats.in_doubt, "MultiShotStats::in_doubt");
  const int64_t peak_wal_bytes = dir_bytes(setup.dir);

  const std::vector<double> latencies = run.latencies();
  double txn_per_s = 0.0;
  for (const auto& client : run.clients) {
    txn_per_s += static_cast<double>(client.measured_committed) / client.busy_s;
  }
  result.metrics["txn_per_s"] = txn_per_s;
  result.metrics["commit_p50_ms"] = median(latencies);
  result.metrics["commit_p99_ms"] =
      windowed_tail(latencies, 0.99, kTailWindow, "threaded latency");
  result.metrics["commit_ratio"] =
      static_cast<double>(run.committed) / static_cast<double>(run.attempted);
  result.metrics["recovery_ms"] = median(restart_ms) * restart_speed.factor();
  result.metrics["setup_s"] = setup_s * setup_speed.factor();
  note() << "threaded: " << run.attempted << " txns, " << run.committed
         << " committed, " << latencies.size() << " latency samples, peak WAL bytes on disk "
         << peak_wal_bytes << ", " << restart_ms.size() << " restarts\n";
  note_host_speed({{"set-up", &setup_speed}, {"restarts", &restart_speed}});
  return result;
}

struct MirrorDrive {
  Drive run;
  MirrorThreaded::Counters counters;
};

/// The mirrored driver over each client's exact engine sequence, in a fresh
/// preloaded directory, checked like the engine.
MirrorDrive mirror_drive(const RunOptions& options, const std::string& name,
                         std::vector<Tracer>& tracers, const std::vector<int64_t>& limits,
                         RunResult& result) {
  EngineSetup setup = set_up(options.scratch / name, nullptr);
  MirrorDrive out;
  {
    MirrorThreaded mirror(setup.dir, options.seed, tracers);
    out.run = drive(
        options.seed,
        [&](int32_t client, int32_t origin, const db::GeneratedTxn& txn, int64_t request) {
          return mirror.execute(client, origin, txn, request);
        },
        Clock::now(), limits);
    ShardState reference = setup.state;
    check_drive(
        out.run,
        [&](int32_t shard, const std::string& key) { return mirror.get(shard, key); },
        reference, name, result);
    out.counters = mirror.totals();
  }
  fs::remove_all(setup.dir);
  return out;
}

RunResult traced(const RunOptions& options) {
  RunResult result;
  result.metrics = zero_per_layer();
  const double third = options.seconds / 3.0;

  EngineSetup setup = set_up(options.scratch / "engine", engine_factory(options.seed));
  auto& engine = *setup.engine;
  const Drive engine_run = drive(
      options.seed,
      [&](int32_t, int32_t origin, const db::GeneratedTxn& txn, int64_t) {
        return engine.execute(origin, txn);
      },
      deadline_after(third), {});
  ShardState reference = setup.state;
  check_drive(
      engine_run,
      [&](int32_t shard, const std::string& key) { return engine.get(shard, key); },
      reference, "engine", result);
  const db::MultiShotStats stats = engine.stats();
  if (stats.in_doubt != 0) result.fail(stats.in_doubt, "MultiShotStats::in_doubt");
  const db::WalStats wal = engine.wal_stats();
  int64_t conflicts = 0;
  for (const auto* store : engine_stores(engine)) conflicts += store->locks().conflicts();
  const int64_t peak_wal_bytes = dir_bytes(setup.dir);
  const auto restarts =
      shutdown_and_restart(engine, setup.dir, options.seed, reference, true, result);
  report_restart_layers(setup.dir, restarts, result.metrics);
  setup.engine.reset();
  fs::remove_all(setup.dir);

  std::vector<int64_t> limits;
  for (const auto& client : engine_run.clients) {
    limits.push_back(static_cast<int64_t>(client.records.size()));
  }
  // Untraced, traced, untraced again: the overhead's baseline straddles the
  // traced pass.
  std::vector<Tracer> untraced_tracers(kClients, Tracer(false));
  const MirrorDrive before =
      mirror_drive(options, "mirror-untraced", untraced_tracers, limits, result);
  std::vector<Tracer> tracers(kClients, Tracer(true));
  const MirrorDrive mirrored = mirror_drive(options, "mirror-traced", tracers, limits, result);
  const MirrorDrive after =
      mirror_drive(options, "mirror-untraced", untraced_tracers, limits, result);
  Tracer tracer(true);
  for (const auto& client_tracer : tracers) tracer.merge(client_tracer);

  auto& m = result.metrics;
  const auto txns = static_cast<double>(mirrored.run.attempted);
  const auto engine_txns = static_cast<double>(engine_run.attempted);
  m["db.kv.prepare_us"] = static_cast<double>(tracer.total_ns("db.kv.prepare")) / 1e3 / txns;
  m["db.kv.apply_us"] = static_cast<double>(tracer.total_ns("db.kv.apply")) / 1e3 / txns;
  m["db.locks.conflicts_per_txn"] = static_cast<double>(conflicts) / engine_txns;
  m["db.wal.records_per_txn"] = static_cast<double>(wal.records_appended) / engine_txns;
  m["db.wal.flushes_per_txn"] = static_cast<double>(wal.flushes) / engine_txns;
  m["db.wal.bytes_per_txn"] = static_cast<double>(wal.bytes_written) / engine_txns;
  m["db.wal.bytes_per_user_byte"] =
      static_cast<double>(wal.bytes_written) / static_cast<double>(engine_run.user_bytes);
  m["db.wal.peak_disk_bytes"] = static_cast<double>(peak_wal_bytes);
  const auto rounds = static_cast<double>(mirrored.counters.rounds);
  m["transport.round_setup_us"] =
      static_cast<double>(tracer.total_ns("transport.round_setup")) / 1e3 / rounds;
  m["transport.decide_wait_us"] =
      static_cast<double>(tracer.total_ns("transport.decide_wait")) / 1e3 / rounds;
  m["transport.teardown_us"] =
      static_cast<double>(tracer.total_ns("transport.teardown")) / 1e3 / rounds;
  m["transport.frames_per_round"] = static_cast<double>(mirrored.counters.frames) / rounds;
  m["transport.ticks_to_decide"] = static_cast<double>(mirrored.counters.ticks) / rounds;
  m["trace.coverage"] = static_cast<double>(tracer.child_total_ns()) /
                        static_cast<double>(tracer.root_total_ns());
  m["trace.overhead"] = 2.0 * mirrored.run.mean_latency_ms() /
                        (before.run.mean_latency_ms() + after.run.mean_latency_ms());
  m["trace.mirror_us_per_txn"] = mirrored.run.mean_latency_ms() * 1e3;
  m["trace.engine_us_per_txn"] = engine_run.mean_latency_ms() * 1e3;
  note() << "threaded traced: " << engine_run.attempted << " txns per pass, "
         << tracer.spans().size() << " spans\n";
  tracer.write(options.trace_out);
  return result;
}

}  // namespace

ThreadedInputs::ThreadedInputs(uint64_t seed, int32_t client)
    : generator_(workload_shape(0.0),
                 seed ^ (static_cast<uint64_t>(client + 1) * 0xbf58476d1ce4e5b9ULL)),
      client_(client) {}

db::GeneratedTxn ThreadedInputs::next() {
  db::GeneratedTxn txn = generator_.next();
  int32_t j = 0;
  for (auto& [shard, writes] : txn) {
    (void)shard;
    for (auto& write : writes) {
      write.key = "c" + std::to_string(client_) + ":t" + std::to_string(count_) + ":" +
                  std::to_string(j++);
    }
  }
  ++count_;
  return txn;
}

RunResult run_threaded(const RunOptions& options) {
  return options.trace ? traced(options) : plain(options);
}

}  // namespace perfbench
