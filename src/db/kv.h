// WAL-backed key-value store with two-phase local transactions.
//
// One shard's storage engine: writes are staged under a transaction, made
// durable by a PREPARED record (the shard's commit vote), and installed or
// discarded by the global outcome. Recovery replays the WAL; transactions
// that were prepared but have no recorded outcome surface as "in doubt" —
// the state whose resolution is exactly the transaction commit problem.
//
// Opening a store reads and decodes its log once: the same pass that finds
// the valid tail rebuilds the committed state, the staged transactions and
// the store's ShardSurvey, the per-transaction index RecoveryManager
// classifies in-doubt transactions from. The indexes are sized from the
// log's frame counts before the pass, and a transaction's contiguous run of
// records (BEGIN, WRITEs, PREPARED and, in a serial log, COMMIT) is folded
// through one cursor: one survey lookup, one staging lookup, and its writes
// held as views into the log until they are installed or parked.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/locks.h"
#include "db/wal.h"

namespace rcommit::db {

struct KvWrite {
  std::string key;
  std::string value;
};

/// What one shard's log records about one transaction.
enum class ShardTxnStatus {
  kUnknown,     ///< no record of the transaction
  kStagedOnly,  ///< BEGIN/WRITE records but no PREPARED
  kPrepared,    ///< PREPARED, no outcome
  kCommitted,
  kAborted,
};

/// Every transaction's status on one shard, as replaying that shard's log
/// from the start says: the shard's share of RecoveryManager's survey.
struct ShardSurvey {
  struct Txn {
    ShardTxnStatus status = ShardTxnStatus::kUnknown;
    /// Union of the participant lists of the txn's PREPARED records, sorted.
    std::vector<int32_t> participants;

    /// Folds in a BEGIN or WRITE record.
    void staged() {
      if (status == ShardTxnStatus::kUnknown) status = ShardTxnStatus::kStagedOnly;
    }
    /// Folds in a PREPARED record carrying `list`.
    void prepared(const std::vector<int32_t>& list);

    bool operator==(const Txn&) const = default;
  };

  /// Hashed: the replay at open inserts one entry per transaction the log
  /// names, and resolve_all looks each pending one up on every shard.
  std::unordered_map<TxnId, Txn> txns;
  /// kBatchSeal records: batch id -> member instance ids, sorted, merged
  /// over every seal of that batch in the log.
  std::map<int64_t, std::vector<TxnId>> seals;

  /// Folds one record in, in log order.
  void add(const WalRecordView& record);
  /// Folds in a kBatchSeal record's member list.
  void sealed(int64_t batch_id, const std::vector<TxnId>& members);

  bool operator==(const ShardSurvey&) const = default;
};

class KvStore {
 public:
  /// Opens the store, replaying any existing WAL at `wal_path`.
  explicit KvStore(const std::filesystem::path& wal_path);

  /// Stages `writes` under `txn` and durably records the prepare. Returns
  /// false (voting abort) when a key is locked by another transaction; in
  /// that case nothing is staged and no locks are retained.
  ///
  /// `participants` names the full intended participant set of the
  /// transaction (shard ids, including this one); it is recorded in the
  /// PREPARED record so recovery can tell "every participant prepared" from
  /// "every participant I can see prepared". An empty list (the legacy
  /// format) records no participant information.
  bool prepare(TxnId txn, const std::vector<KvWrite>& writes,
               const std::vector<int32_t>& participants = {});

  /// Installs the staged writes of a prepared transaction.
  void commit(TxnId txn);

  /// Discards the staged writes; also legal for transactions that never
  /// prepared (making a global abort idempotent per shard).
  void abort(TxnId txn);

  /// Applies recovery's `decision` to `txn` if it is prepared and undecided
  /// here, with one lookup; returns whether it was. Otherwise a no-op.
  bool resolve(TxnId txn, Decision decision);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] size_t size() const { return data_.size(); }

  /// A sorted copy of the full committed state, for equivalence checking and
  /// digests. The store keeps its state hashed, so this builds a new map on
  /// every call; bind it once rather than calling it per element. Like
  /// survey(), it updates cached state: no concurrent calls on one store.
  [[nodiscard]] std::map<std::string, std::string> snapshot() const;

  /// Transactions recovered from the WAL as prepared-but-undecided. The
  /// owner must resolve each with commit() or abort().
  [[nodiscard]] std::vector<TxnId> in_doubt() const;

  /// The store's survey: built while the log was replayed at open and kept
  /// current by every append since, so it equals what replaying the log
  /// from the start would build (once any open WAL group is flushed).
  [[nodiscard]] const ShardSurvey& survey() const;

  /// Compacts the WAL: rewrites it as a snapshot of the committed state plus
  /// the records of still-pending (prepared, undecided) transactions, in one
  /// flushed write, atomically replacing the old log. Shrinks an append-only
  /// log that has accumulated many resolved transactions; crash-safe (the
  /// rename is the commit point — before it the old log is intact, after it
  /// the new one is complete).
  void checkpoint();

  /// Installs (or clears) the WAL fault hook; survives checkpoint()'s log
  /// replacement. Non-owning.
  void set_fault_hook(WalFaultHook* hook);

  // --- group commit ----------------------------------------------------------
  // Passthrough to the WAL's group mode (wal.h): between wal_begin_group and
  // wal_end_group, appends coalesce and hit the disk with one flush per
  // group. The owner picks the flush points — e.g. MultiShotDb flushes at
  // its pipeline phase boundaries so PREPARED records are durable before any
  // decision round and outcomes are durable before the caller observes them.

  void wal_begin_group(const WalGroupLimits& limits = {});
  void wal_commit_group();
  void wal_end_group();
  [[nodiscard]] bool wal_group_open() const;
  [[nodiscard]] const WalStats& wal_stats() const;

  /// Appends a kBatchSeal record: one decision round (seeded by `batch_id`)
  /// decided all of `members`. Recovery uses it to rerun one protocol round
  /// per batch instead of one per member; replay leaves the store's state
  /// alone and records it only in the survey, and checkpoint() drops seals
  /// (their batches are resolved or will re-surface per transaction — the
  /// hint costs nothing to lose).
  void seal_batch(int64_t batch_id, const std::vector<TxnId>& members);

  [[nodiscard]] const WriteAheadLog& wal() const { return *wal_; }

  /// The shard's lock table (read-only) — conflict counts, current holders.
  [[nodiscard]] const LockManager& locks() const { return locks_; }

 private:
  struct Staged {
    std::vector<KvWrite> writes;
    std::vector<int32_t> participants;
    bool prepared = false;
  };

  /// A status change appended since survey() last ran. The serving path
  /// only appends these; survey() folds them in, so prepare and commit pay
  /// no index insert.
  struct SurveyChange {
    TxnId txn = 0;
    ShardTxnStatus status = ShardTxnStatus::kUnknown;
    std::vector<int32_t> participants;  ///< kPrepared only
  };

  using StagedMap = std::map<TxnId, Staged>;
  using Entry = std::pair<const std::string, std::string>;
  /// std::hash over string views, so the committed state can be looked up
  /// by a view into a replayed log without building a key string. Not
  /// noexcept, like std::hash<std::string>: libstdc++ then caches each key's
  /// hash in its node, so a rehash or a bucket walk never rehashes a key.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Folds every intact record of `image` into the store's state and survey;
  /// returns where the intact prefix ends.
  size_t replay(const WalImage& image);
  /// commit() and abort() once `it` is found: the outcome record, then the
  /// in-memory change, then the locks.
  void commit_staged(StagedMap::iterator it);
  void abort_staged(StagedMap::iterator it);
  /// Installs a committed transaction's writes, moving them out of `staged`
  /// (whose entry the caller erases next).
  void apply(Staged&& staged);
  /// Sets `key` to `value` in the committed state: one hashed lookup.
  void install(std::string&& key, std::string&& value);
  /// install() from views (replay): an existing key's value is assigned in
  /// place, so only a new key allocates.
  void install(std::string_view key, std::string_view value);
  /// Every committed entry, in key order.
  const std::vector<const Entry*>& sorted_entries() const;

  std::unique_ptr<WriteAheadLog> wal_;
  WalGroupLimits group_limits_;  ///< last wal_begin_group limits (checkpoint)
  LockManager locks_;
  /// The committed state. Hashed, so commit, replay and get() each do one
  /// lookup; nothing iterates it.
  std::unordered_map<std::string, std::string, KeyHash, std::equal_to<>> data_;
  /// data_'s entries for the readers that need key order (checkpoint() and
  /// snapshot()). The first `sorted_prefix_` are in key order; keys inserted
  /// since are appended and merged in lazily by sorted_entries(). Node
  /// pointers survive rehashing, and the store never erases a key.
  mutable std::vector<const Entry*> key_order_;
  mutable size_t sorted_prefix_ = 0;
  StagedMap staged_;
  mutable ShardSurvey survey_;
  mutable std::vector<SurveyChange> survey_backlog_;
  WalFaultHook* fault_hook_ = nullptr;
};

}  // namespace rcommit::db
