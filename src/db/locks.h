// Per-key exclusive lock manager (strict two-phase locking, no-wait).
//
// Conflicting lock requests fail immediately rather than queueing — a shard
// whose prepare cannot lock its keys votes abort, which exercises the commit
// protocol's abort-validity path instead of hiding the conflict behind a
// wait queue.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rcommit::db {

using TxnId = int64_t;

class LockManager {
 public:
  /// Acquires an exclusive lock on `key` for `txn`. Re-acquiring a lock the
  /// transaction already holds succeeds. Returns false if another
  /// transaction holds it (no-wait policy).
  bool try_lock(const std::string& key, TxnId txn);

  /// All-or-nothing acquisition of every key in `writes` for `txn`: on the
  /// first conflict, every lock taken by this call (and any the transaction
  /// already held) is released and false is returned. This is the
  /// deterministic abort-on-conflict primitive the multi-shot engine builds
  /// on — which transaction loses depends only on arrival order at this
  /// shard, never on timing races inside the acquisition itself.
  bool try_lock_all(const std::vector<std::string>& keys, TxnId txn);

  /// Releases every lock held by `txn` (end of its strict-2PL lifetime).
  void unlock_all(TxnId txn);

  /// Current holder of `key`, if locked.
  [[nodiscard]] std::optional<TxnId> holder(const std::string& key) const;

  /// Number of keys currently locked.
  [[nodiscard]] size_t locked_count() const { return holders_.size(); }

  /// try_lock / try_lock_all requests refused because another transaction
  /// held a key — the shard's conflict-abort pressure gauge.
  [[nodiscard]] int64_t conflicts() const { return conflicts_; }

 private:
  std::unordered_map<std::string, TxnId> holders_;
  /// Each transaction's locked keys, without duplicates: a re-lock of a
  /// key the transaction holds returns before recording it again.
  std::unordered_map<TxnId, std::vector<std::string>> keys_of_;
  int64_t conflicts_ = 0;
};

}  // namespace rcommit::db
