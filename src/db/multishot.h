// Multi-shot sharded transaction engine — the repository's transaction
// engine.
//
// In the style of Chockler & Gotsman's *Multi-Shot Distributed Transaction
// Commit* (PAPERS.md), it lets many transactions be in flight across
// partitioned shards without head-of-line blocking; single-shot commit is the
// special case of one client and decision_batch = 1, where each execute()
// prepares, decides and applies one transaction before the next begins:
//
//   * Transaction ids span a 64-bit space: the originating shard in the top
//     bits, a shard-local sequence in the bottom 48. Ids are unique across
//     shards with no coordination, and every WAL record a transaction writes
//     is tagged with its instance id (the PR 4 participant-list / shard_ids
//     encoding rides along unchanged in the PREPARED record).
//   * Each shard runs a *pipeline* of commit instances keyed by that id:
//     a shard engine prepares, decides, and applies different transactions
//     independently, serialized only by the shard's own WAL appends and lock
//     table — never by another transaction's commit round-trip.
//   * Conflicts are arbitrated by the per-shard no-wait lock table
//     (db/locks): the later arrival votes abort, deterministically, and no
//     commit instance even starts for it.
//
// Every decision is one Protocol 2 round (K = kCommitK, db/txn.h), the only
// protocol RecoveryManager reruns — so an in-doubt instance always recovers
// to the decision its live round would have reached. Two decision transports
// share the same instance semantics:
//
//   kSimulator        the round runs on the deterministic simulator under the
//                     on-time adversary, seeded by (seed, txn id) —
//                     run_simulated_round, the exact rerun RecoveryManager
//                     performs for an in-doubt instance. This makes
//                     single-driver pipelines pure functions of (options,
//                     workload), which is what the multi-txn crash-point
//                     torture sweep replays from.
//   kThreadedNetwork  each round runs over a fresh threaded in-memory network
//                     with real delays (transport::run_fleet) under an
//                     admission gate of kMaxConcurrentRounds — the
//                     configuration bench_db_multishot (E19) measures, where
//                     pipelining is the entire throughput win.
//
// All three callers — the unbatched execute(), the threaded batched-decide
// leader, and execute_pipelined's Phase B — decide through one path,
// decide(): one round over the union of the members' shards, sealed when the
// batch has more than one member.
//
// Two per-transaction costs are amortizable across batches (PROTOCOL.md
// §multi-shot):
//
//   group_commit     each shard's WAL appends coalesce into commit groups
//                    with one flush (and one fault-injection site) per
//                    group; the engine flushes at its phase boundaries so
//                    durability ordering — every PREPARED before any round,
//                    outcomes before observation — holds on every path.
//   decision_batch   one Protocol 2 round decides a whole batch of prepared
//                    transactions (unanimous-yes fast path; mixed batches
//                    split, with lock-table no-voters aborting immediately).
//                    The batch id seeds the round and is sealed into each
//                    shard's WAL (kBatchSeal) so RecoveryManager reruns one
//                    round per crashed batch too.
//
// Both default off: the defaults reproduce the PR 9 engine byte for byte.
//
// Thread model: execute() may be called from many client threads; each shard
// engine guards its store with an annotated Mutex (lock order: ascending
// shard index, one shard at a time — never two shard locks held at once).
// execute_pipelined() is the deterministic single-driver form: it stages a
// whole batch of instances before deciding any of them, which is how the
// fault-injection tooling reaches many-in-doubt-transactions-per-shard WAL
// states reproducibly.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "db/kv.h"
#include "db/txn.h"
#include "db/workload.h"
#include "transport/network.h"

namespace rcommit::db {

// --- the 64-bit transaction-id space -----------------------------------------

/// Bits of the shard-local sequence; the top 64-48 = 16 bits carry the
/// originating shard. ~2.8e14 transactions per shard before wraparound.
inline constexpr int kTxnSequenceBits = 48;
inline constexpr int64_t kTxnSequenceMask = (int64_t{1} << kTxnSequenceBits) - 1;

/// Composes an instance id from (originating shard, shard-local sequence).
/// Sequence 0 is reserved (it collides with legacy single-shot ids at origin
/// 0); engines allocate from 1, or from past the largest id of the origin
/// in the logs they open.
[[nodiscard]] constexpr TxnId make_txn_id(int32_t origin_shard, int64_t sequence) {
  return (static_cast<int64_t>(origin_shard) << kTxnSequenceBits) |
         (sequence & kTxnSequenceMask);
}

/// The originating shard encoded in `txn`.
[[nodiscard]] constexpr int32_t txn_origin(TxnId txn) {
  return static_cast<int32_t>(txn >> kTxnSequenceBits);
}

/// The shard-local sequence number encoded in `txn`.
[[nodiscard]] constexpr int64_t txn_sequence(TxnId txn) {
  return txn & kTxnSequenceMask;
}

// --- the engine --------------------------------------------------------------

/// How a commit instance's decision round is executed.
enum class DecisionTransport {
  kSimulator,        ///< deterministic simulator, on-time adversary
  kThreadedNetwork,  ///< fresh threaded in-memory network per instance
};

/// Aggregate engine counters (monotonic; safe to read while running).
struct MultiShotStats {
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t conflict_aborts = 0;  ///< aborts decided by the lock table alone
  int64_t in_doubt = 0;         ///< instances whose decision round timed out
};

class MultiShotDb {
 public:
  /// How long a kThreadedNetwork round may run before its instance is left
  /// in doubt for RecoveryManager.
  static constexpr std::chrono::milliseconds kRoundTimeout{2000};
  /// Cap on simultaneous kThreadedNetwork decision rounds. Each round runs
  /// ~3 short-lived threads, so an uncapped 64-client fleet collapses into
  /// scheduler churn; 16 rounds are deep enough to cover the link sleeps
  /// (bench_db_multishot E19, bench_db_groupcommit E20).
  static constexpr int32_t kMaxConcurrentRounds = 16;
  /// How long a threaded batched-decide leader waits for its batch to fill
  /// before running the round with whatever queued.
  static constexpr std::chrono::microseconds kBatchCollectWindow{1000};

  struct Options {
    int32_t shard_count = 3;
    std::filesystem::path data_dir;  ///< one WAL per shard lives here
    DecisionTransport decision_transport = DecisionTransport::kSimulator;
    uint64_t seed = 1;
    transport::LinkPolicy network = {};  ///< kThreadedNetwork link timing
    /// Optional WAL fault hook installed on every shard's log (non-owning).
    /// Its site numbering assumes sequential appends, so it needs a single
    /// driver thread (execute_pipelined, or execute() with kSimulator).
    WalFaultHook* wal_fault_hook = nullptr;
    /// Group-commit WAL: each shard's appends coalesce into commit groups
    /// (default WalGroupLimits) with ONE flush (and one fault-hook site) per
    /// group. Every path flushes the members' PREPAREDs before their
    /// decision round and the outcomes before returning them. Off
    /// reproduces the PR 9 per-append flushing byte for byte.
    bool group_commit = false;
    /// Prepared transactions decided per Protocol 2 round. 1 = one round
    /// per transaction (the ungrouped baseline). >1 folds a batch's vote
    /// vector into one decision round over the union of involved shards:
    /// unanimous-yes batches take the fast path (one round decides all),
    /// mixed batches split — lock-table no-voters abort immediately and the
    /// yes-voters retry as their own unanimous round. The batch id (the
    /// first member's txn id) seeds the round and is sealed into each
    /// shard's WAL so recovery reruns one round per batch too. The
    /// threaded leader waits up to kBatchCollectWindow for a batch to fill;
    /// the pipelined path batches by position.
    int32_t decision_batch = 1;
  };

  explicit MultiShotDb(Options options);

  /// Executes one transaction whose id originates at `origin_shard`.
  /// Thread-safe: concurrent callers pipeline through the shard engines.
  TxnOutcome execute(int32_t origin_shard, const GeneratedTxn& writes);

  /// Deterministic pipelined batch from one driver thread: every
  /// transaction in `batch` is staged and prepared (in order) before any
  /// decision round runs, then all instances decide and apply in order.
  /// WALs interleave the batch's records exactly as a crashed concurrent
  /// run would — many in-doubt instances per shard — but reproducibly.
  std::vector<TxnOutcome> execute_pipelined(int32_t origin_shard,
                                            const std::vector<GeneratedTxn>& batch);

  /// Reads one key from one shard (thread-safe).
  [[nodiscard]] std::optional<std::string> get(int32_t shard,
                                               const std::string& key) const;

  /// Direct shard access for tests and recovery drivers. Unsynchronized —
  /// callers must be quiescent (no execute in flight).
  [[nodiscard]] KvStore& shard(int32_t index);
  [[nodiscard]] int32_t shard_count() const { return options_.shard_count; }

  [[nodiscard]] MultiShotStats stats() const;

  /// Aggregate WAL counters across every shard (thread-safe). With group
  /// commit on, records_per_flush() is the measured amortization factor.
  [[nodiscard]] WalStats wal_stats() const;

  /// Flushes every shard's pending commit group (no-op when group_commit is
  /// off or nothing is pending). The engine never flushes from a destructor
  /// — that would model a dead process writing — so callers that reopen the
  /// WALs from disk after a clean shutdown flush here first.
  void flush_wals();

 private:
  /// One transaction's staged state between the prepare and apply phases.
  struct Instance {
    TxnId txn = 0;
    std::vector<int32_t> involved;  ///< ascending shard indices
    bool all_voted_commit = false;
  };

  /// One waiting client in the threaded batched-decide queue. Stack-owned
  /// by its execute() call; a leader fills `outcome` and flips `done` under
  /// decide_mu_.
  struct DecideWaiter {
    const Instance* instance = nullptr;
    TxnOutcome outcome;
    bool done = false;
  };

  /// Allocates the next instance id originating at `origin_shard`.
  TxnId allocate_txn_id(int32_t origin_shard);
  /// Phase 1: lock + stage + durably prepare on every involved shard.
  Instance prepare_phase(TxnId txn, const GeneratedTxn& writes);
  /// The one decide path. `members` are a batch's prepared yes-voters (one
  /// or more; lock-table aborts never reach here). They decide in ONE round
  /// over the union of their shards; a batch of more than one is first
  /// sealed under its batch id, the first member's txn id. Callers make the
  /// members' PREPAREDs durable before calling.
  TxnOutcome decide(const std::vector<const Instance*>& members);
  /// One decision round over `shards` (ascending), seeded by mixing
  /// `batch_id` into the engine seed.
  TxnOutcome run_union_round(const std::vector<int32_t>& shards, TxnId batch_id);
  /// Threaded batched decide: queue the instance, let a leader fold up to
  /// decision_batch waiters into one round, return the decided-and-applied
  /// outcome. Leadership ends before the round runs, so batched rounds stay
  /// concurrent under the admission gate.
  TxnOutcome decide_batched(const Instance& instance);
  /// The threaded callers' durable round: flush the members' prepares,
  /// decide(), apply, flush the outcomes.
  TxnOutcome run_batch_round(const std::vector<const Instance*>& members);
  /// One threaded decision round under the admission gate: run_fleet over a
  /// fresh InMemoryNetwork until every node decides or kRoundTimeout expires.
  std::vector<std::optional<Decision>> run_threaded_round(int32_t n, uint64_t seed);
  /// Phase 3: apply the decision on every involved shard.
  void apply_phase(const Instance& instance, const TxnOutcome& outcome);
  /// Appends the batch seal to every shard in `shards` (buffered under
  /// group mode — a seal is a hint and never costs its own flush).
  void seal_shards(const std::vector<int32_t>& shards, TxnId batch_id,
                   const std::vector<TxnId>& members);
  /// Flushes the listed shards' pending commit groups (group_commit only).
  void flush_groups(const std::vector<int32_t>& shards);

  struct ShardEngine {
    mutable Mutex mu;
    std::unique_ptr<KvStore> store;  ///< guarded by mu while threads run
    bool group_open = false;         ///< guarded by mu, like the store
    std::atomic<int64_t> next_sequence{1};
  };

  /// Opens the shard's commit group if group_commit is on and it isn't yet
  /// (engine.mu must be held). Groups open lazily and stay open; flushes
  /// happen at the phase/round boundaries above.
  void ensure_group_open(ShardEngine& engine);

  Options options_;
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  /// Admission gate for threaded decision rounds (kThreadedNetwork only).
  mutable Mutex rounds_mu_;
  CondVar rounds_cv_;
  int32_t active_rounds_ GUARDED_BY(rounds_mu_) = 0;
  /// Threaded batched-decide queue (decision_batch > 1 only).
  mutable Mutex decide_mu_;
  CondVar decide_cv_;
  std::deque<DecideWaiter*> decide_queue_ GUARDED_BY(decide_mu_);
  bool decide_leader_active_ GUARDED_BY(decide_mu_) = false;
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
  std::atomic<int64_t> conflict_aborts_{0};
  std::atomic<int64_t> in_doubt_{0};
};

}  // namespace rcommit::db
