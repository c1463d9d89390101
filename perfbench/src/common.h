// Shared machinery of the repository benchmark: run options, the metric
// vocabulary, percentile reporting, host speed sampling, in-memory span
// tracing, WAL counter accumulation across checkpoints, scratch directories,
// and the pieces of set-up every engine workload shares (input shape,
// database preload, checked restarts).
//
// Everything here talks to the engine through its public headers only; the
// benchmark never reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "db/kv.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "db/wal.h"
#include "db/workload.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- run options and results -------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch;    ///< per-run temporary directory (removed on exit)
  fs::path trace_out;  ///< where the traced run writes its spans ("" = none)
};

/// One workload run's outcome: the four keys of the result line plus the
/// metrics of the requested mode, in vocabulary order.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Counts `count` failed operations and marks the run incorrect.
  void fail(int64_t count, const std::string& why);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in a plain run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload in a traced run (zero where
/// a layer does no work on that workload).
const std::vector<MetricDef>& per_layer_metrics();

/// A metrics map pre-filled with every per-layer name at zero.
std::map<std::string, double> zero_per_layer();

// --- timing and percentiles --------------------------------------------------

[[nodiscard]] inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time the whole process has used, in seconds: time its threads ran,
/// not time they were runnable but preempted or their virtual CPU was taken
/// away by the host.
[[nodiscard]] double process_cpu_seconds();

/// The time point `seconds` from now.
[[nodiscard]] inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Median of `samples` (mean of the two middle values for even counts).
/// Throws on an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// The nearest-rank q-quantile of `samples`, but only when at least ten
/// samples lie beyond it — the rule for reporting a tail percentile. With
/// fewer, the percentile is not reportable and the result is empty.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples,
                                                    double q);

/// tail_percentile or throw: a run too short to support the tail it must
/// report is a benchmark error, not a number.
[[nodiscard]] double require_tail(const std::vector<double>& samples, double q,
                                  const std::string& what);

/// The reported tail latency: the q-quantile of each consecutive window of
/// `window` samples (in the order they were taken), each window holding
/// enough samples for ten to lie beyond it, then the median over windows.
/// A burst of outside interference then moves the windows it falls in, not
/// the reported tail. Throws if the samples fill no window.
[[nodiscard]] double windowed_tail(const std::vector<double>& samples, double q,
                                   size_t window, const std::string& what);

/// Samples per window for the reported p99: exactly ten lie beyond it.
inline constexpr size_t kTailWindow = 1000;

// --- host speed ----------------------------------------------------------------

/// The speed of a shared host drifts by tens of percent over minutes, and
/// std::map-heavy code like the engine's stores moves with it (other
/// tenants share the caches and memory). HostSpeed samples that drift: it
/// times a fixed reference task — std::map<std::string, std::string>
/// inserts and lookups over 40k keys, in a memory arena of its own, so
/// nothing the program leaves behind changes its cost — between pieces of
/// measured work, never inside them. The CPU-bound end-to-end times of a
/// phase are then scaled by factor() to a host on which the task takes
/// kReferenceMs: times measured at reference speed. One HostSpeed serves one
/// phase of a run (the set-ups; the drive with its restarts; the
/// recoveries), probed throughout it.
class HostSpeed {
 public:
  /// Runs the reference task once, recording its wall and CPU time.
  void probe();

  /// kReferenceMs over the median wall time of the probes: multiply a
  /// wall-clock time measured in this phase by it (divide a rate).
  [[nodiscard]] double factor() const;
  /// The same for CPU-time measurements, from the probes' CPU time.
  [[nodiscard]] double cpu_factor() const;

  [[nodiscard]] size_t probes() const { return wall_ms_.size(); }

 private:
  std::vector<double> wall_ms_;
  std::vector<double> cpu_ms_;
};

/// A progress line with each named phase's probe count, median reference
/// task time and factor.
void note_host_speed(const std::vector<std::pair<const char*, const HostSpeed*>>& phases);

/// The reference task's time on the reference host (about its median on a
/// shared 4-vCPU 2.1 GHz Xeon virtual machine); it sets the scale of the
/// reported times.
inline constexpr double kReferenceMs = 50.0;

// --- tracing -----------------------------------------------------------------

/// Spans kept in memory for one thread of the mirrored driver and written
/// out when the run ends. A disabled tracer records nothing, so the same
/// driver code serves the untraced and traced passes.
class Tracer {
 public:
  struct Span {
    int32_t name = 0;    ///< index into names()
    int32_t parent = -1; ///< index of the enclosing span, -1 for a root
    int64_t request = 0; ///< spans of one batch / transaction share it
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int32_t open(const char* name, int64_t request);
  void close(int32_t index);

  /// Sum of durations of closed spans named `name`, in nanoseconds.
  [[nodiscard]] int64_t total_ns(const std::string& name) const;
  /// Number of spans named `name`.
  [[nodiscard]] int64_t count(const std::string& name) const;
  /// Sum of durations of every span that has a parent: the layer spans
  /// directly under a request root (the driver nests no deeper).
  [[nodiscard]] int64_t child_total_ns() const;
  /// Sum of durations of the root spans (the mirrored end-to-end time).
  [[nodiscard]] int64_t root_total_ns() const;

  /// Appends `other`'s spans (re-indexing parents).
  void merge(const Tracer& other);

  /// Writes every span as tab-separated text: index, parent, name,
  /// request, start_ns, end_ns.
  void write(const fs::path& path) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t intern(const char* name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<int32_t> open_stack_;
};

/// RAII span.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const char* name, int64_t request)
      : tracer_(tracer), index_(tracer.open(name, request)) {}
  ~SpanGuard() { tracer_.close(index_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

// --- WAL counters across checkpoints ------------------------------------------

/// KvStore::checkpoint() replaces the store's WriteAheadLog, and with it the
/// WalStats counters, so a store's wal_stats() restarts at zero after every
/// checkpoint. The benchmark folds each shard's counters into a running base
/// right before it checkpoints that shard; total() is then base + live.
class WalCounters {
 public:
  explicit WalCounters(int32_t shards) : base_(static_cast<size_t>(shards)) {}

  /// Call immediately before `store.checkpoint()` on shard `shard`.
  void before_checkpoint(int32_t shard, const rcommit::db::KvStore& store);

  /// Accumulated counters over every shard, given each shard's live store.
  [[nodiscard]] rcommit::db::WalStats total(
      const std::vector<const rcommit::db::KvStore*>& live) const;

 private:
  std::vector<rcommit::db::WalStats> base_;
};

// --- scratch space -------------------------------------------------------------

/// A directory removed (recursively) when the guard is destroyed — on normal
/// exit and on unwinding alike.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Total bytes of the regular files under `dir` (0 if absent).
[[nodiscard]] int64_t dir_bytes(const fs::path& dir);

// --- shared engine set-up ----------------------------------------------------

inline constexpr int32_t kShards = 5;
inline constexpr int32_t kKeysPerShard = 20'000;

/// The db::WorkloadGenerator shape every workload uses: 5 shards, fanout 3,
/// 2 writes per shard, so each decision round has n = 3 and t = 1.
[[nodiscard]] rcommit::db::WorkloadOptions workload_shape(double skew);

/// The WAL file MultiShotDb keeps for shard `shard` under `dir`.
[[nodiscard]] fs::path shard_wal(const fs::path& dir, int32_t shard);

/// Committed state per shard, as KvStore::snapshot() reports it.
using ShardState = std::vector<std::map<std::string, std::string>>;

/// Populates `dir` with kShards shard WALs holding keys "key:0" ..
/// "key:<kKeysPerShard-1>" (the generator's key names), committed through
/// public KvStore calls, so an engine opened on `dir` starts from a full
/// database. Returns the preloaded state.
ShardState preload(const fs::path& dir);

/// Bytes of user payload (keys + values) in one generated transaction.
[[nodiscard]] int64_t user_bytes(const rcommit::db::GeneratedTxn& txn);

/// Compares each shard's snapshot with `expected`; returns the number of
/// keys that differ (missing, extra, or with another value).
[[nodiscard]] int64_t state_mismatches(
    const std::vector<const rcommit::db::KvStore*>& stores,
    const ShardState& expected);

/// The kShards stores of one database directory, opened from their WALs.
struct ShardStores {
  std::vector<std::unique_ptr<rcommit::db::KvStore>> owned;
  std::vector<rcommit::db::KvStore*> raw;
  [[nodiscard]] std::vector<const rcommit::db::KvStore*> view() const {
    return {raw.begin(), raw.end()};
  }
};

ShardStores open_shards(const fs::path& dir);

/// Timings of one restart: reopen every shard store from its WAL, then
/// RecoveryManager::resolve_all().
struct RestartTiming {
  double reopen_ms = 0.0;
  double survey_ms = 0.0;   ///< survey_all(), timed separately (traced only)
  double resolve_ms = 0.0;
  double total_ms = 0.0;    ///< reopen + resolve_all
};

/// One restart of the database in `dir`, timed, with the reopened stores
/// and resolve_all's report for the caller's checks.
struct Restart {
  ShardStores stores;
  rcommit::db::RecoveryReport report;
  RestartTiming timing;
};

/// Reopens the shards under `dir` and resolves everything in doubt with a
/// RecoveryManager seeded by `seed`; with `time_survey`, survey_all() is
/// also called and timed on its own first (outside total_ms).
Restart restart(const fs::path& dir, uint64_t seed, bool time_survey);

/// fsync(2) every shard WAL under `dir`, then `dir` itself, so the run's
/// dirty pages reach the disk now instead of being written back during a
/// later timed interval. Never timed.
void sync_wals(const fs::path& dir);

/// Opens a MultiShotDb on a preloaded directory.
using EngineFactory =
    std::function<std::unique_ptr<rcommit::db::MultiShotDb>(const fs::path&)>;

/// A database set up for one drive: the preloaded directory, its state, the
/// engine opened on it (when a factory was given), and the time that took.
struct EngineSetup {
  fs::path dir;
  ShardState state;
  std::unique_ptr<rcommit::db::MultiShotDb> engine;
  double seconds = 0.0;
};

/// Preloads `dir` and opens the engine on it with `factory` (if set); checks
/// the engine really opened the preloaded WALs.
EngineSetup set_up(const fs::path& dir, const EngineFactory& factory);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Sets up kSetups times under `scratch`, keeping the last; `median_s` gets
/// the median set-up time. Untimed, each set-up but the last is removed
/// before the next starts, so each starts from the same disk, and the kept
/// one is synced, so no set-up's writeback lands in the measured drive.
/// `speed` is probed before the first set-up and after each.
EngineSetup set_up_repeatedly(const fs::path& scratch, const EngineFactory& factory,
                              double& median_s, HostSpeed& speed);

/// The engine's shard stores (quiescent access only).
std::vector<rcommit::db::KvStore*> engine_stores(rcommit::db::MultiShotDb& engine);

/// One restart of the quiescent database in `dir`, checked against
/// `reference` (nothing left in doubt, every shard's state exact).
RestartTiming checked_restart(const fs::path& dir, uint64_t seed, bool time_survey,
                              const ShardState& reference, RunResult& result);

/// Restarts per pause of a serving workload's drive.
inline constexpr int kRestartsPerPause = 2;

/// What a serving workload's plain run does whenever its drive pauses (the
/// engine idle, its WALs written): probe `speed`, then kRestartsPerPause
/// checked restarts of the database in `dir`, their times appended to
/// `restart_ms`. Spread through the drive like this, the restarts meet the
/// same host conditions as the rest of the run instead of one stretch at
/// its end.
void pause_restarts(const fs::path& dir, uint64_t seed, const ShardState& reference,
                    HostSpeed& speed, std::vector<double>& restart_ms, RunResult& result);

/// The clean shutdown — flush, checkpoint every shard, fsync the WALs — then
/// forty timed, checked restarts (the traced runs' restart layers).
std::vector<RestartTiming> shutdown_and_restart(rcommit::db::MultiShotDb& engine,
                                                const fs::path& dir, uint64_t seed,
                                                const ShardState& reference,
                                                bool time_survey, RunResult& result);

/// Adds the restart layers (db.recovery.*, db.wal.replay_ms) to `metrics`.
void report_restart_layers(const fs::path& dir,
                           const std::vector<RestartTiming>& restarts,
                           std::map<std::string, double>& metrics);

// --- mirrored decision rounds ------------------------------------------------

/// The per-instance seed mix the engine and RecoveryManager both use: the
/// engine seed xor the instance (or batch) id times the 64-bit golden ratio.
[[nodiscard]] inline uint64_t instance_seed(uint64_t seed, int64_t id) {
  return seed ^ (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL);
}

/// One Protocol 2 decision round on the deterministic simulator under the
/// on-time adversary, every participant voting commit — the round
/// MultiShotDb's kSimulator transport and RecoveryManager's rule-3 rerun
/// both run, rebuilt here from public calls.
struct SimRound {
  bool decided = false;
  bool commit = false;
  int64_t events = 0;
  int64_t messages = 0;
};
SimRound run_sim_round(int32_t n, uint64_t seed);

/// Human-readable progress line on stdout ("# ..."), never the last line.
std::ostream& note();

}  // namespace perfbench
