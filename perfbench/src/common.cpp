#include "common.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory_resource>
#include <stdexcept>

#include "adversary/basic.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "db/txn.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace rcommit;

void RunResult::fail(int64_t count, const std::string& why) {
  correct = false;
  failed += std::max<int64_t>(count, 1);
  note() << "FAILED: " << why << " (" << count << ")\n";
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"txn_per_s", "1/s"},      {"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"},
      {"commit_ratio", "ratio"}, {"recovery_ms", "ms"},   {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"db.kv.prepare_us", "us"},
      {"db.kv.apply_us", "us"},
      {"db.kv.checkpoint_ms", "ms"},
      {"db.locks.conflicts_per_txn", "count"},
      {"db.wal.flush_us", "us"},
      {"db.wal.records_per_txn", "count"},
      {"db.wal.flushes_per_txn", "count"},
      {"db.wal.bytes_per_txn", "B"},
      {"db.wal.bytes_per_user_byte", "ratio"},
      {"db.wal.peak_disk_bytes", "B"},
      {"db.wal.replay_ms", "ms"},
      {"sim.round_us", "us"},
      {"sim.events_per_round", "count"},
      {"sim.messages_per_round", "count"},
      {"sim.rounds_per_txn", "count"},
      {"transport.round_setup_us", "us"},
      {"transport.decide_wait_us", "us"},
      {"transport.teardown_us", "us"},
      {"transport.frames_per_round", "count"},
      {"transport.ticks_to_decide", "count"},
      {"db.recovery.reopen_ms", "ms"},
      {"db.recovery.survey_ms", "ms"},
      {"db.recovery.resolve_ms", "ms"},
      {"db.recovery.reruns_per_in_doubt", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
      {"trace.mirror_us_per_txn", "us"},
      {"trace.engine_us_per_txn", "us"},
  };
  return defs;
}

std::map<std::string, double> zero_per_layer() {
  std::map<std::string, double> metrics;
  for (const auto& def : per_layer_metrics()) metrics[def.name] = 0.0;
  return metrics;
}

double process_cpu_seconds() {
  timespec now{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

// --- percentiles -------------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::runtime_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q < 0.0 || q > 1.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it. Everything after that index lies beyond the percentile.
  const auto rank = static_cast<size_t>(std::max(0.0, std::ceil(q * n) - 1.0));
  const size_t beyond = samples.size() - 1 - rank;
  if (beyond < 10) return std::nullopt;
  return samples[rank];
}

double require_tail(const std::vector<double>& samples, double q,
                    const std::string& what) {
  const auto value = tail_percentile(samples, q);
  if (!value.has_value()) {
    throw std::runtime_error(what + ": " + std::to_string(samples.size()) +
                             " samples cannot support the " +
                             std::to_string(q) + " quantile");
  }
  return *value;
}

double windowed_tail(const std::vector<double>& samples, double q, size_t window,
                     const std::string& what) {
  std::vector<double> tails;
  for (size_t start = 0; start + window <= samples.size(); start += window) {
    const std::vector<double> slice(samples.begin() + static_cast<ptrdiff_t>(start),
                                    samples.begin() + static_cast<ptrdiff_t>(start + window));
    tails.push_back(require_tail(slice, q, what));
  }
  if (tails.empty()) {
    throw std::runtime_error(what + ": " + std::to_string(samples.size()) +
                             " samples fill no window of " + std::to_string(window));
  }
  return median(tails);
}

// --- host speed ----------------------------------------------------------------

namespace {

/// The fixed reference task: 48k inserts then 48k lookups of "key:<n>",
/// n < 40000, with 24-byte values (too long for the short-string buffer, so
/// each is allocated), in a map whose nodes and strings come from one arena
/// reused on every call.
void reference_task() {
  static std::vector<std::byte> arena(16u << 20);
  std::pmr::monotonic_buffer_resource memory(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, std::pmr::string, std::less<>> map(&memory);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next_key = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return "key:" + std::to_string((x >> 33) % 40'000);
  };
  for (int i = 0; i < 48'000; ++i) {
    const std::string key = next_key();
    const std::pmr::string value(24, static_cast<char>('a' + i % 26), &memory);
    const auto it = map.find(std::string_view(key));
    if (it == map.end()) {
      map.emplace(std::pmr::string(key, &memory), value);
    } else {
      it->second = value;
    }
  }
  size_t hits = 0;
  for (int i = 0; i < 48'000; ++i) hits += map.count(std::string_view(next_key()));
  // A check that also keeps the lookups from being optimised away.
  if (hits == 0 || map.size() > 40'000) throw std::logic_error("reference task went wrong");
}

}  // namespace

void HostSpeed::probe() {
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  reference_task();
  cpu_ms_.push_back((process_cpu_seconds() - cpu_start) * 1e3);
  wall_ms_.push_back(seconds_since(start) * 1e3);
}

double HostSpeed::factor() const { return kReferenceMs / median(wall_ms_); }

double HostSpeed::cpu_factor() const { return kReferenceMs / median(cpu_ms_); }

void note_host_speed(const std::vector<std::pair<const char*, const HostSpeed*>>& phases) {
  auto& out = note() << "host speed (reference task, median of probes):";
  for (const auto& [name, speed] : phases) {
    out << " " << name << " " << speed->probes() << " probes, "
        << kReferenceMs / speed->factor() << " ms, factor " << speed->factor() << ";";
  }
  out << "\n";
}

// --- tracing -------------------------------------------------------------------

int32_t Tracer::intern(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<int32_t>(names_.size() - 1);
}

int32_t Tracer::open(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = intern(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_stack_.push_back(index);
  return index;
}

void Tracer::close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = now_ns();
  if (!open_stack_.empty() && open_stack_.back() == index) open_stack_.pop_back();
}

int64_t Tracer::total_ns(const std::string& name) const {
  int64_t total = 0;
  for (const auto& span : spans_) {
    if (names_[static_cast<size_t>(span.name)] == name) total += span.end_ns - span.start_ns;
  }
  return total;
}

int64_t Tracer::count(const std::string& name) const {
  int64_t total = 0;
  for (const auto& span : spans_) {
    if (names_[static_cast<size_t>(span.name)] == name) ++total;
  }
  return total;
}

int64_t Tracer::child_total_ns() const {
  int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.parent >= 0) total += span.end_ns - span.start_ns;
  }
  return total;
}

int64_t Tracer::root_total_ns() const {
  int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.parent < 0) total += span.end_ns - span.start_ns;
  }
  return total;
}

void Tracer::merge(const Tracer& other) {
  const auto offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    span.name = intern(other.names_[static_cast<size_t>(span.name)].c_str());
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

void Tracer::write(const fs::path& path) const {
  if (path.empty()) return;
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "index\tparent\tname\trequest\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.parent << '\t' << names_[static_cast<size_t>(span.name)]
        << '\t' << span.request << '\t' << span.start_ns << '\t' << span.end_ns
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

// --- WAL counters --------------------------------------------------------------

void WalCounters::before_checkpoint(int32_t shard, const db::KvStore& store) {
  auto& base = base_.at(static_cast<size_t>(shard));
  const db::WalStats& live = store.wal_stats();
  base.records_appended += live.records_appended;
  base.flushes += live.flushes;
  base.bytes_written += live.bytes_written;
}

db::WalStats WalCounters::total(const std::vector<const db::KvStore*>& live) const {
  db::WalStats total;
  for (size_t i = 0; i < base_.size(); ++i) {
    const db::WalStats& now = live.at(i)->wal_stats();
    total.records_appended += base_[i].records_appended + now.records_appended;
    total.flushes += base_[i].flushes + now.flushes;
    total.bytes_written += base_[i].bytes_written + now.bytes_written;
  }
  return total;
}

// --- scratch -------------------------------------------------------------------

ScratchDir::ScratchDir(fs::path path) : path_(std::move(path)) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

int64_t dir_bytes(const fs::path& dir) {
  std::error_code ec;
  int64_t total = 0;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += static_cast<int64_t>(entry.file_size(ec));
  }
  return total;
}

// --- shared engine set-up ----------------------------------------------------

db::WorkloadOptions workload_shape(double skew) {
  db::WorkloadOptions options;
  options.shard_count = kShards;
  options.keys_per_shard = kKeysPerShard;
  options.fanout = 3;
  options.writes_per_shard = 2;
  options.skew = skew;
  return options;
}

fs::path shard_wal(const fs::path& dir, int32_t shard) {
  return dir / ("shard-" + std::to_string(shard) + ".wal");
}

ShardState preload(const fs::path& dir) {
  fs::create_directories(dir);
  ShardState state(kShards);
  constexpr int32_t kKeysPerTxn = 64;
  // The load transactions take ids from an origin no engine shard uses, so
  // every id in a WAL still names exactly one instance.
  constexpr int32_t kLoadOrigin = (1 << (64 - db::kTxnSequenceBits - 1)) - 1;
  int64_t sequence = 1;
  for (int32_t shard = 0; shard < kShards; ++shard) {
    db::KvStore store(shard_wal(dir, shard));
    store.wal_begin_group();
    for (int32_t base = 0; base < kKeysPerShard; base += kKeysPerTxn) {
      std::vector<db::KvWrite> writes;
      for (int32_t k = base; k < std::min(kKeysPerShard, base + kKeysPerTxn); ++k) {
        writes.push_back({"key:" + std::to_string(k), "init-" + std::to_string(k)});
      }
      const db::TxnId txn = db::make_txn_id(kLoadOrigin, sequence++);
      if (!store.prepare(txn, writes, {shard})) {
        throw std::runtime_error("preload prepare refused");
      }
      store.commit(txn);
      for (const auto& write : writes) state[static_cast<size_t>(shard)][write.key] = write.value;
    }
    store.wal_end_group();
  }
  return state;
}

int64_t user_bytes(const db::GeneratedTxn& txn) {
  int64_t total = 0;
  for (const auto& [shard, writes] : txn) {
    (void)shard;
    for (const auto& write : writes) {
      total += static_cast<int64_t>(write.key.size() + write.value.size());
    }
  }
  return total;
}

int64_t state_mismatches(const std::vector<const db::KvStore*>& stores,
                         const ShardState& expected) {
  int64_t mismatches = 0;
  for (size_t shard = 0; shard < stores.size(); ++shard) {
    const auto& have = stores[shard]->snapshot();
    const auto& want = expected.at(shard);
    for (const auto& [key, value] : want) {
      const auto it = have.find(key);
      if (it == have.end() || it->second != value) ++mismatches;
    }
    for (const auto& [key, value] : have) {
      (void)value;
      if (want.count(key) == 0) ++mismatches;
    }
  }
  return mismatches;
}

ShardStores open_shards(const fs::path& dir) {
  ShardStores stores;
  for (int32_t shard = 0; shard < kShards; ++shard) {
    stores.owned.push_back(std::make_unique<db::KvStore>(shard_wal(dir, shard)));
    stores.raw.push_back(stores.owned.back().get());
  }
  return stores;
}

Restart restart(const fs::path& dir, uint64_t seed, bool time_survey) {
  Restart out;
  const auto start = Clock::now();
  out.stores = open_shards(dir);
  out.timing.reopen_ms = seconds_since(start) * 1e3;
  db::RecoveryManager::Options options;
  options.seed = seed;
  db::RecoveryManager manager(out.stores.raw, options);
  if (time_survey) {
    const auto survey_start = Clock::now();
    (void)manager.survey_all();
    out.timing.survey_ms = seconds_since(survey_start) * 1e3;
  }
  const auto resolve_start = Clock::now();
  out.report = manager.resolve_all();
  out.timing.resolve_ms = seconds_since(resolve_start) * 1e3;
  out.timing.total_ms = out.timing.reopen_ms + out.timing.resolve_ms;
  return out;
}

namespace {

void sync_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path.string() + " to sync it");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed on " + path.string());
}

}  // namespace

void sync_wals(const fs::path& dir) {
  for (int32_t shard = 0; shard < kShards; ++shard) sync_file(shard_wal(dir, shard));
  sync_file(dir);
}

EngineSetup set_up(const fs::path& dir, const EngineFactory& factory) {
  fs::remove_all(dir);
  EngineSetup setup;
  const auto start = Clock::now();
  setup.dir = dir;
  setup.state = preload(dir);
  if (factory) {
    setup.engine = factory(dir);
    for (int32_t shard = 0; shard < kShards; ++shard) {
      if (setup.engine->shard(shard).size() != static_cast<size_t>(kKeysPerShard)) {
        throw std::runtime_error("engine did not open the preloaded shard WALs");
      }
    }
  }
  setup.seconds = seconds_since(start);
  return setup;
}

EngineSetup set_up_repeatedly(const fs::path& scratch, const EngineFactory& factory,
                              double& median_s, HostSpeed& speed) {
  std::vector<double> seconds;
  EngineSetup setup;
  speed.probe();
  for (int round = 0; round < kSetups; ++round) {
    setup.engine.reset();
    setup = set_up(scratch / "db", factory);
    seconds.push_back(setup.seconds);
    speed.probe();
  }
  median_s = median(seconds);
  sync_wals(setup.dir);
  return setup;
}

std::vector<db::KvStore*> engine_stores(db::MultiShotDb& engine) {
  std::vector<db::KvStore*> stores;
  for (int32_t shard = 0; shard < engine.shard_count(); ++shard) {
    stores.push_back(&engine.shard(shard));
  }
  return stores;
}

RestartTiming checked_restart(const fs::path& dir, uint64_t seed, bool time_survey,
                              const ShardState& reference, RunResult& result) {
  const Restart restarted = restart(dir, seed, time_survey);
  int64_t left = 0;
  for (const auto* store : restarted.stores.raw) {
    left += static_cast<int64_t>(store->in_doubt().size());
  }
  if (left > 0) result.fail(left, "restart left transactions in doubt");
  const int64_t mismatches = state_mismatches(restarted.stores.view(), reference);
  if (mismatches > 0) result.fail(mismatches, "restart state differs");
  return restarted.timing;
}

void pause_restarts(const fs::path& dir, uint64_t seed, const ShardState& reference,
                    HostSpeed& speed, std::vector<double>& restart_ms, RunResult& result) {
  speed.probe();
  for (int round = 0; round < kRestartsPerPause; ++round) {
    restart_ms.push_back(checked_restart(dir, seed, false, reference, result).total_ms);
  }
}

std::vector<RestartTiming> shutdown_and_restart(db::MultiShotDb& engine,
                                                const fs::path& dir, uint64_t seed,
                                                const ShardState& reference,
                                                bool time_survey, RunResult& result) {
  engine.flush_wals();
  for (int32_t shard = 0; shard < engine.shard_count(); ++shard) {
    engine.shard(shard).checkpoint();
  }
  sync_wals(dir);
  std::vector<RestartTiming> timings;
  for (int round = 0; round < 40; ++round) {
    timings.push_back(checked_restart(dir, seed, time_survey, reference, result));
  }
  return timings;
}

void report_restart_layers(const fs::path& dir,
                           const std::vector<RestartTiming>& restarts,
                           std::map<std::string, double>& metrics) {
  std::vector<double> reopen;
  std::vector<double> survey;
  std::vector<double> resolve;
  for (const auto& timing : restarts) {
    reopen.push_back(timing.reopen_ms);
    survey.push_back(timing.survey_ms);
    resolve.push_back(timing.resolve_ms);
  }
  metrics["db.recovery.reopen_ms"] = median(reopen);
  metrics["db.recovery.survey_ms"] = median(survey);
  metrics["db.recovery.resolve_ms"] = median(resolve);
  // Replay on its own: one WriteAheadLog::replay per shard, the read path
  // both reopen and survey_all are built on.
  const auto start = Clock::now();
  for (int32_t shard = 0; shard < kShards; ++shard) {
    (void)db::WriteAheadLog(shard_wal(dir, shard)).replay();
  }
  metrics["db.wal.replay_ms"] = seconds_since(start) * 1e3;
}

// --- mirrored decision rounds ------------------------------------------------

SimRound run_sim_round(int32_t n, uint64_t seed) {
  // The engine's defaults: Protocol 2, K = 25, a 200k-event budget.
  constexpr Tick kK = 25;
  const SystemParams params{.n = n, .t = (n - 1) / 2, .k = kK};
  std::vector<std::unique_ptr<sim::Process>> fleet;
  fleet.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    fleet.push_back(db::make_commit_participant(db::CommitBackend::kPaperProtocol,
                                                params, /*vote=*/1, kK));
  }
  sim::SimConfig config;
  config.seed = seed;
  config.max_events = 200'000;
  config.record_trace = false;
  sim::Simulator simulator(config, std::move(fleet),
                           adversary::make_on_time_adversary());
  const auto result = simulator.run();
  SimRound round;
  round.decided = true;
  for (const auto& decision : result.decisions) {
    if (!decision.has_value()) round.decided = false;
    if (decision.has_value() && *decision == Decision::kCommit) round.commit = true;
  }
  round.events = result.events;
  round.messages = result.messages_sent;
  return round;
}

std::ostream& note() { return std::cout << "# "; }

}  // namespace perfbench
