// In-doubt transaction resolution (cooperative termination).
//
// The paper's graceful-degradation guarantee (Theorem 11) is precisely what
// makes recovery possible: "instead of producing a wrong answer, the protocol
// simply fails to terminate. By not producing a wrong answer, we leave open
// the opportunity to recover" (§1). After crashes, a shard can hold prepared
// transactions with no recorded outcome. The RecoveryManager resolves them:
//
//   1. If any shard's WAL recorded COMMIT or ABORT for the transaction, that
//      outcome is adopted everywhere (decisions are unanimous under
//      Protocol 2, so one record is authoritative).
//   2. If some involved shard began but never durably prepared, it can never
//      have voted commit, so no participant can have decided commit: ABORT
//      is safe. "Involved" is judged against the participant list recorded
//      in the PREPARED records (when present): a listed participant with no
//      PREPARED record — even one with no WAL trace at all — blocks commit.
//   3. If every involved shard is prepared with no outcome anywhere (all
//      participants crashed between voting and deciding), the shards simply
//      run the commit protocol again, voting commit — each shard still holds
//      its staged writes and locks, so either outcome is applicable and all
//      shards apply the same one. The rerun executes on the deterministic
//      simulator under the on-time adversary, so recovery is a pure function
//      of (seed, WAL contents) — which is what makes crash-point sweeps
//      replayable from (seed, site) alone. It is the very round MultiShotDb
//      runs live (db/txn.h run_simulated_round: Protocol 2, K = kCommitK,
//      kRoundMaxEvents), so nothing here can drift from the live engine.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "db/kv.h"

namespace rcommit::db {

struct RecoveryReport {
  int64_t resolved_commit = 0;
  int64_t resolved_abort = 0;
  int64_t reran_protocol = 0;  ///< resolutions that needed a fresh protocol run

  bool operator==(const RecoveryReport&) const = default;
};

/// Every transaction's per-shard status across the whole database: the
/// shards' ShardSurveys merged. resolve_all classifies from the stores' own
/// surveys, which their WAL replay at open built; survey_all() builds this
/// view by reading every log from disk, which is how tests and audits check
/// what is durable.
struct BatchSurvey {
  /// statuses[shard][txn]; transactions a shard never saw are absent
  /// (ShardTxnStatus::kUnknown).
  std::vector<std::map<TxnId, ShardTxnStatus>> statuses;
  /// Union of recorded PREPARED participant lists, per transaction.
  std::map<TxnId, std::vector<int32_t>> participants;
  /// Decision-batch seals (kBatchSeal): batch id -> member instance ids,
  /// merged across shards. Members of the same seal were decided by ONE
  /// protocol round seeded from the batch id, so resolve_all reruns one
  /// round per surviving seal instead of one per in-doubt member. A lost
  /// seal is harmless: the members fall back to per-transaction reruns,
  /// which reach the same decisions (commit-validity under the on-time
  /// adversary — the equivalence the multi-txn torture suite checks).
  std::map<int64_t, std::vector<TxnId>> batches;

  /// The status of `txn` on `shard` (kUnknown if unseen).
  [[nodiscard]] ShardTxnStatus status(int32_t shard, TxnId txn) const;

  bool operator==(const BatchSurvey&) const = default;
};

class RecoveryManager {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Participant id of each entry in `shards`, parallel to that vector.
    /// Empty means identity (shard i has id i) — correct for MultiShotDb.
    /// RPC deployments whose shard node ids differ from vector positions
    /// must supply the mapping so recorded participant lists resolve.
    std::vector<int32_t> shard_ids = {};
  };

  /// `shards` are the recovered stores (non-owning; must outlive the call).
  RecoveryManager(std::vector<KvStore*> shards, Options options);

  /// Scans every shard's WAL for the given transaction. Keys are positions
  /// in the constructor's `shards` vector.
  [[nodiscard]] std::map<int32_t, ShardTxnStatus> survey(TxnId txn) const;

  /// One read of each shard's WAL from disk, indexing every transaction.
  [[nodiscard]] BatchSurvey survey_all() const;
  /// The same view merged from the stores' in-memory surveys. Once every
  /// store's WAL group is flushed it equals survey_all().
  [[nodiscard]] BatchSurvey survey_live() const;

  /// Resolves every in-doubt transaction on every shard, in ascending
  /// transaction-id order, from the stores' surveys. The outcome records go
  /// out as one WAL group per shard, flushed before returning (a shard whose
  /// owner already has a group open keeps it, and its flush points).
  /// Idempotent; a crash part-way leaves the flushed outcomes to rule 1.
  RecoveryReport resolve_all();

 private:
  /// One transaction's classification against the pre-pass index: either a
  /// settled decision (rules 1 and 2) or "needs a protocol rerun" (rule 3)
  /// with the prepared shards that would run it.
  struct Resolution {
    Decision decision = Decision::kAbort;
    bool needs_rerun = false;
    std::vector<int32_t> prepared_shards;
  };

  /// Rules 1 and 2 against the stores' surveys; flags rule-3 transactions
  /// for a rerun.
  [[nodiscard]] Resolution classify(TxnId txn) const;
  /// The rule-3 deterministic protocol rerun among `prepared_shards`, seeded
  /// by mixing `mix_id` (the transaction id, or the batch id for a sealed
  /// batch) into the recovery seed.
  [[nodiscard]] Decision rerun_decision(
      int64_t mix_id, const std::vector<int32_t>& prepared_shards) const;
  /// Applies a decision to every shard still holding `txn` in doubt.
  void apply_decision(TxnId txn, Decision decision,
                      const std::vector<int32_t>& prepared_shards,
                      RecoveryReport& report);

  std::vector<KvStore*> shards_;
  Options options_;
};

}  // namespace rcommit::db
