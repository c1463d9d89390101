// Multi-transaction recovery-equivalence torture over the multi-shot engine.
//
// torture.{h,cpp} crashes a serial DistributedDb workload, so at most one
// transaction is in flight at the crash. This variant drives
// db::MultiShotDb::execute_pipelined: each batch stages and prepares many
// instances before any of them decides, so a crash anywhere in the pipeline
// leaves *many* transactions in doubt per shard — the WAL-state space the
// batch recovery classification (RecoveryManager::resolve_all) exists for. The checks
// are the serial torture's, extended across the whole instance space:
//
//   * no instance remains in doubt after resolve_all();
//   * shards never disagree on an instance's outcome;
//   * a batch outcome the driver observed before the crash survives it;
//   * cross-shard atomicity: a committed instance is installed on every
//     intended participant (the paper's §1 "at all processors or at no
//     processor"), for every instance of every batch;
//   * each shard's recovered state equals the committed-prefix reference,
//     applied in execution order, key for key;
//   * every store's in-memory survey equals its log read back from disk,
//     after the reopen and again after resolve_all.
//
// Decision rounds run on the deterministic simulator seeded by (seed, txn id)
// — the exact rerun RecoveryManager performs — so the whole sweep is a pure
// function of (MultiTortureOptions, FaultPlan) and every crash point replays
// from (seed, site) alone. The serial torture's CrashPointResult /
// SweepOptions / SweepResult vocabulary is reused unchanged; artifacts are
// distinguished by the `batches=` key in config.txt.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "faultinject/torture.h"

namespace rcommit::faultinject {

struct MultiTortureOptions {
  int32_t shard_count = 3;
  int32_t batches = 3;         ///< pipelined batches; origin shard rotates
  int32_t batch_size = 8;      ///< in-flight instances per batch
  int32_t fanout = 2;          ///< shards per transaction
  int32_t keys_per_shard = 4;  ///< small pool => real lock conflicts
  /// Group-commit WAL mode: appends coalesce per shard and injection sites
  /// move to the group-flush boundaries (crash-before = the whole buffered
  /// group lost between the last batched append and its flush, torn = a
  /// mid-group torn tail). Off keeps the PR 9 per-append site space —
  /// committed corpus entries predate the knob and replay identically.
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

/// Runs workload + crash + batch recovery + equivalence check for one plan.
[[nodiscard]] CrashPointResult run_multi_crash_point(
    const MultiTortureOptions& options, const FaultPlan& plan);

/// Dry run under the empty plan: the reachable WAL injection sites across
/// every shard's log, in append order (the driver is single-threaded, so the
/// numbering is deterministic).
[[nodiscard]] std::vector<SiteInfo> enumerate_multi_sites(
    const MultiTortureOptions& options);

/// Exhaustive (site × kind) sweep over the multi-txn site space.
[[nodiscard]] SweepResult run_multi_wal_sweep(const MultiTortureOptions& options,
                                              const SweepOptions& sweep);

/// Crash-in-recovery sweep. The workload crashes under `workload_plan`;
/// recovery then runs with a fault injector on the reopened stores, whose
/// sites are resolve_all's outcome-group flushes (numbered from 0, one per
/// shard with outcomes to write). Every (site × kind) is crashed, reopened
/// and resolved again, and must pass the crash-point checks and end with the
/// no-crash recovery's state and decisions, never deciding more instances or
/// rerunning more rounds than it (flushed outcomes become rule 1).
/// `sites` in the result counts recovery sites; each failure's result
/// carries the recovery's crash fields.
[[nodiscard]] SweepResult run_multi_recovery_sweep(const MultiTortureOptions& options,
                                                   const FaultPlan& workload_plan,
                                                   const SweepOptions& sweep);

// --- artifacts ---------------------------------------------------------------
//
// Same layout as the serial torture's (config.txt / plan.txt / report.txt /
// README.txt), replayed with:  faultkit --multishot --artifact=<dir>
// is_multishot_artifact() tells the two config schemas apart.

struct MultiFaultArtifact {
  MultiTortureOptions options;
  FaultPlan plan;
  CrashPointResult expected;
};

void write_multi_fault_artifact(const std::filesystem::path& dir,
                                const MultiFaultArtifact& artifact);

/// Loads an artifact directory. The loaded options carry an empty
/// scratch_dir; callers supply one.
[[nodiscard]] MultiFaultArtifact load_multi_fault_artifact(
    const std::filesystem::path& dir);

/// True if `dir`'s config.txt uses the multi-shot schema (has `batches=`).
[[nodiscard]] bool is_multishot_artifact(const std::filesystem::path& dir);

}  // namespace rcommit::faultinject
