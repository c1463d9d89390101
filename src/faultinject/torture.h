// Recovery-equivalence torture: crash a database workload at a chosen WAL
// append, recover, and check the survivors against a reference state machine.
//
// The workload (MultiTortureOptions) drives db::MultiShotDb::execute_pipelined
// on the deterministic simulator: each batch stages and prepares its
// instances before any of them decides, so a crash anywhere in the pipeline
// leaves many transactions in doubt per shard (optionally in group-commit WAL
// mode with batched decision rounds). batch_size = 1 is the
// one-transaction-at-a-time shape: each instance prepares, decides and
// applies before the next one begins.
//
// A hot transaction is held prepared on shard 0 for the whole run, so
// workload transactions that touch its key vote abort and recovery always has
// something in doubt. The reference is the committed prefix: a transaction's
// writes belong in the final state iff it committed, where "committed" after
// a crash means what RecoveryManager derives from the WALs. For every crash
// point (SQLite crash-test style: enumerate the sites, then sweep site × fault
// kind exhaustively) the checker asserts:
//
//   * no transaction remains in doubt after resolve_all();
//   * shards never disagree on a transaction's outcome;
//   * an outcome the driver observed before the crash survives it
//     (observed commit => durable commit, observed abort => no commit);
//   * a committed transaction is installed on *every* intended participant
//     (the paper's §1 "at all processors or at no processor");
//   * each shard's recovered state equals the committed-prefix reference,
//     applied in execution order, key for key;
//   * every store's in-memory survey equals its log read back from disk,
//     after the reopen and again after resolve_all.
//
// A crash point is a pure function of (options, FaultPlan), so a sweep
// failure is reproducible from (seed, site) alone, which the corpus replay
// verifies.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "db/recovery.h"
#include "faultinject/injector.h"
#include "faultinject/plan.h"
#include "swarm/shrink.h"

namespace rcommit::faultinject {

/// The workload: a hot prepare, then `batches` pipelined batches of
/// `batch_size` instances. Decision rounds run on the deterministic simulator
/// seeded by (seed, txn id) — the exact rerun RecoveryManager performs.
struct MultiTortureOptions {
  int32_t shard_count = 3;
  int32_t batches = 3;         ///< pipelined batches; origin shard rotates
  int32_t batch_size = 8;      ///< in-flight instances per batch
  int32_t fanout = 2;          ///< shards per transaction
  int32_t keys_per_shard = 4;  ///< small pool => real lock conflicts
  /// Group-commit WAL mode: appends coalesce per shard and injection sites
  /// move to the group-flush boundaries (crash-before = the whole buffered
  /// group lost between the last batched append and its flush, torn = a
  /// mid-group torn tail). Off keeps the per-append site space — corpus
  /// entries written before the knob replay identically.
  bool group_commit = false;
  /// Prepared instances decided per protocol round (kBatchSeal recovery
  /// batches appear in the WALs when > 1).
  int32_t decision_batch = 1;
  uint64_t seed = 1;
  /// Scratch directory for the WALs; wiped and recreated per run.
  std::filesystem::path scratch_dir;

  /// Key=value form (scratch_dir excluded); round-trips via deserialize.
  [[nodiscard]] std::string serialize() const;
  static MultiTortureOptions deserialize(const std::string& text);
};

/// One crash point's verdict. `errors` empty means recovery was equivalent
/// to the reference; every field participates in replay-identity checks.
struct CrashPointResult {
  bool crashed = false;
  int64_t crash_site = -1;     ///< site the crash fired at; -1 = no crash
  int64_t sites_seen = 0;      ///< WAL sites reached during the run
  db::RecoveryReport report;
  int64_t committed_txns = 0;  ///< transactions committed per the WALs
  uint64_t digest = 0;         ///< crc32c over every shard's recovered state
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
  bool operator==(const CrashPointResult&) const = default;

  [[nodiscard]] std::string serialize() const;
  static CrashPointResult deserialize(const std::string& text);
};

/// Runs workload + crash + recovery + equivalence check for one plan.
[[nodiscard]] CrashPointResult run_crash_point(const MultiTortureOptions& options,
                                               const FaultPlan& plan);

/// Dry run under the empty plan: the reachable WAL injection sites across
/// every shard's log, in append order (the driver is single-threaded, so
/// the numbering is deterministic), with what each one turned out to be.
[[nodiscard]] std::vector<SiteInfo> enumerate_sites(const MultiTortureOptions& options);

struct SweepOptions {
  /// Fault kinds applied at every site. Defaults to the full WAL repertoire.
  std::vector<FaultKind> kinds = {FaultKind::kCrashBefore, FaultKind::kTornWrite,
                                  FaultKind::kPartialFlush, FaultKind::kDuplicate,
                                  FaultKind::kCrashAfter};
  int threads = 1;        ///< >1: crash points run on a WorkStealingPool
  int64_t max_sites = -1; ///< cap on swept sites; -1 = every reachable site
};

struct SweepFailure {
  FaultPlan plan;
  CrashPointResult result;
};

struct SweepResult {
  int64_t sites = 0;         ///< reachable sites in the workload
  int64_t crash_points = 0;  ///< (site, kind) pairs executed
  std::vector<SweepFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Exhaustive (site × kind) sweep. Deterministic regardless of threads:
/// results are folded in enumeration order.
[[nodiscard]] SweepResult run_wal_sweep(const MultiTortureOptions& options,
                                        const SweepOptions& sweep);

/// Crash-in-recovery sweep. The workload crashes once under `workload_plan`;
/// every point starts from a copy of the WALs it left, and recovery runs with
/// a fault injector on the reopened stores, whose sites are resolve_all's
/// outcome-group flushes (numbered from 0, one per shard with outcomes to
/// write). Every (site × kind) is crashed, reopened
/// and resolved again, and must pass the crash-point checks and end with the
/// no-crash recovery's state and decisions, never deciding more transactions
/// or rerunning more rounds than it (flushed outcomes become rule 1).
/// `sites` in the result counts recovery sites; each failure's result
/// carries the recovery's crash fields.
[[nodiscard]] SweepResult run_recovery_sweep(const MultiTortureOptions& options,
                                             const FaultPlan& workload_plan,
                                             const SweepOptions& sweep);

/// Shrinks a failing plan to a locally-minimal still-failing action subset
/// via swarm::ddmin_keep (the fault-plan axis of the swarm's shrinker).
[[nodiscard]] FaultPlan shrink_fault_plan(const MultiTortureOptions& options,
                                          const FaultPlan& plan,
                                          const swarm::ShrinkOptions& shrink = {},
                                          int* evals = nullptr);

// --- artifacts ---------------------------------------------------------------
//
//   <dir>/config.txt   the workload's options (key=value)
//   <dir>/plan.txt     FaultPlan (the crash schedule; shrunk when from the
//                      sweep's failure path)
//   <dir>/report.txt   expected CrashPointResult (replay must match exactly)
//   <dir>/README.txt   one-command reproduction recipe
//
// Reproduce with:  faultkit --artifact=<dir>
// The same format doubles as the regression corpora under tests/corpus_fault/
// and tests/corpus_multishot/.

struct FaultArtifact {
  MultiTortureOptions options;
  FaultPlan plan;
  CrashPointResult expected;
};

/// Writes the artifact directory, creating it as needed. README.txt names
/// `dir` exactly as given.
void write_fault_artifact(const std::filesystem::path& dir,
                          const FaultArtifact& artifact);

/// Loads an artifact directory. Throws CheckFailure on missing or malformed
/// files, an unknown config key included. The loaded options carry an empty
/// scratch_dir.
[[nodiscard]] FaultArtifact load_fault_artifact(const std::filesystem::path& dir);

/// Re-runs the artifact's crash point with its WALs under `scratch_dir`.
[[nodiscard]] CrashPointResult replay_fault_artifact(
    const FaultArtifact& artifact, const std::filesystem::path& scratch_dir);

}  // namespace rcommit::faultinject
