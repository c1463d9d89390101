#include "db/kv.h"

#include <algorithm>

#include "common/check.h"

namespace rcommit::db {

namespace {

/// `into` ∪ `more`, sorted and without duplicates.
template <typename T>
void merge_sorted(std::vector<T>& into, const std::vector<T>& more) {
  into.insert(into.end(), more.begin(), more.end());
  std::sort(into.begin(), into.end());
  into.erase(std::unique(into.begin(), into.end()), into.end());
}

}  // namespace

void ShardSurvey::add(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kWrite: {
      Txn& txn = txns[record.txn_id];
      if (txn.status == ShardTxnStatus::kUnknown) txn.status = ShardTxnStatus::kStagedOnly;
      break;
    }
    case WalRecordType::kPrepared:
      prepared(record.txn_id, decode_participant_list(record.value));
      break;
    case WalRecordType::kCommit:
      txns[record.txn_id].status = ShardTxnStatus::kCommitted;
      break;
    case WalRecordType::kAbort:
      txns[record.txn_id].status = ShardTxnStatus::kAborted;
      break;
    case WalRecordType::kSnapshot:
      break;  // checkpointed committed state; no per-txn status
    case WalRecordType::kBatchSeal:
      // The same seal is appended to every shard its batch touched; a torn
      // group can leave it on a strict subset, so readers merge across shards.
      merge_sorted(seals[record.txn_id], decode_txn_list(record.value));
      break;
  }
}

void ShardSurvey::prepared(TxnId txn_id, const std::vector<int32_t>& participants) {
  Txn& txn = txns[txn_id];
  txn.status = ShardTxnStatus::kPrepared;
  if (!participants.empty()) merge_sorted(txn.participants, participants);
}

KvStore::KvStore(const std::filesystem::path& wal_path) {
  // One decode: the WAL's tail scan hands every intact record to replay().
  wal_ = std::make_unique<WriteAheadLog>(
      wal_path, [this](WalRecord&& record) { replay(std::move(record)); });
  // Unprepared leftovers died before voting: they can only abort.
  std::erase_if(staged_, [](const auto& entry) { return !entry.second.prepared; });
  // Re-acquire locks for in-doubt transactions: their outcome is pending and
  // their keys must stay protected.
  for (const auto& [txn, staged] : staged_) {
    for (const auto& write : staged.writes) {
      RCOMMIT_CHECK_MSG(locks_.try_lock(write.key, txn),
                        "conflicting in-doubt transactions in WAL");
    }
  }
}

void KvStore::replay(WalRecord&& record) {
  // PREPARED's participant list is decoded once, below, for both uses.
  if (record.type != WalRecordType::kPrepared) survey_.add(record);
  switch (record.type) {
    case WalRecordType::kBegin:
      staged_[record.txn_id];  // ensure the entry exists
      break;
    case WalRecordType::kWrite:
      staged_[record.txn_id].writes.push_back(
          {std::move(record.key), std::move(record.value)});
      break;
    case WalRecordType::kPrepared: {
      Staged& staged = staged_[record.txn_id];
      staged.prepared = true;
      staged.participants = decode_participant_list(record.value);
      survey_.prepared(record.txn_id, staged.participants);
      break;
    }
    case WalRecordType::kCommit: {
      auto it = staged_.find(record.txn_id);
      if (it != staged_.end()) {
        apply(std::move(it->second));
        staged_.erase(it);
      }
      break;
    }
    case WalRecordType::kAbort:
      staged_.erase(record.txn_id);
      break;
    case WalRecordType::kSnapshot:
      install(std::move(record.key), std::move(record.value));
      break;
    case WalRecordType::kBatchSeal:
      break;  // a recovery hint for RecoveryManager; carries no shard state
  }
}

void KvStore::apply(Staged&& staged) {
  for (auto& write : staged.writes) install(std::move(write.key), std::move(write.value));
}

void KvStore::install(std::string&& key, std::string&& value) {
  // try_emplace leaves `key` alone when it is already present.
  const auto [it, inserted] = data_.try_emplace(std::move(key));
  it->second = std::move(value);
  if (inserted) key_order_.push_back(&*it);
}

const std::vector<const KvStore::Entry*>& KvStore::sorted_entries() const {
  if (sorted_prefix_ == key_order_.size()) return key_order_;
  const auto by_key = [](const Entry* a, const Entry* b) { return a->first < b->first; };
  const auto tail = key_order_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
  // Sort only the keys added since the last call, then merge. A store opened
  // from a compacted log adds its snapshot in key order: nothing to sort.
  if (!std::is_sorted(tail, key_order_.end(), by_key)) {
    std::sort(tail, key_order_.end(), by_key);
  }
  std::inplace_merge(key_order_.begin(), tail, key_order_.end(), by_key);
  sorted_prefix_ = key_order_.size();
  return key_order_;
}

bool KvStore::prepare(TxnId txn, const std::vector<KvWrite>& writes,
                      const std::vector<int32_t>& participants) {
  RCOMMIT_CHECK_MSG(staged_.find(txn) == staged_.end(),
                    "transaction " << txn << " already staged");
  // Lock every key first; on any conflict, release and vote abort.
  std::vector<std::string> keys;
  keys.reserve(writes.size());
  for (const auto& write : writes) keys.push_back(write.key);
  if (!locks_.try_lock_all(keys, txn)) return false;
  try {
    wal_->append({WalRecordType::kBegin, txn, "", ""});
    for (const auto& write : writes) {
      wal_->append({WalRecordType::kWrite, txn, write.key, write.value});
    }
    wal_->append(
        {WalRecordType::kPrepared, txn, "", encode_participant_list(participants)});
  } catch (...) {
    // The PREPARED record never became durable, so recovery will drop the
    // partial transaction as an unprepared leftover. Release the locks so a
    // caller that survives the exception sees the store as if the prepare
    // had never started.
    locks_.unlock_all(txn);
    throw;
  }
  staged_[txn] = Staged{writes, participants, /*prepared=*/true};
  survey_backlog_.push_back({txn, ShardTxnStatus::kPrepared, participants});
  return true;
}

void KvStore::commit(TxnId txn) {
  auto it = staged_.find(txn);
  RCOMMIT_CHECK_MSG(it != staged_.end() && it->second.prepared,
                    "commit of unprepared transaction " << txn);
  wal_->append({WalRecordType::kCommit, txn, "", ""});
  survey_backlog_.push_back({txn, ShardTxnStatus::kCommitted, {}});
  apply(std::move(it->second));
  staged_.erase(it);
  locks_.unlock_all(txn);
}

void KvStore::abort(TxnId txn) {
  // WAL-first, like commit(): if the append throws CrashInjected the staged
  // entry must survive, or a caller that catches the exception would see the
  // transaction gone from memory while the log still says prepared — and a
  // retried abort() would silently skip the kAbort record.
  auto it = staged_.find(txn);
  if (it != staged_.end()) {
    wal_->append({WalRecordType::kAbort, txn, "", ""});
    survey_backlog_.push_back({txn, ShardTxnStatus::kAborted, {}});
    staged_.erase(it);
  }
  locks_.unlock_all(txn);
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

std::map<std::string, std::string> KvStore::snapshot() const {
  std::map<std::string, std::string> out;
  for (const Entry* entry : sorted_entries()) out.emplace_hint(out.end(), *entry);
  return out;
}

std::vector<TxnId> KvStore::in_doubt() const {
  std::vector<TxnId> out;
  for (const auto& [txn, staged] : staged_) {
    if (staged.prepared) out.push_back(txn);
  }
  return out;
}

const ShardSurvey& KvStore::survey() const {
  for (const auto& change : survey_backlog_) {
    if (change.status == ShardTxnStatus::kPrepared) {
      survey_.prepared(change.txn, change.participants);
    } else {
      survey_.txns[change.txn].status = change.status;
    }
  }
  survey_backlog_.clear();
  return survey_;
}

bool KvStore::is_in_doubt(TxnId txn) const {
  const auto it = staged_.find(txn);
  return it != staged_.end() && it->second.prepared;
}

void KvStore::set_fault_hook(WalFaultHook* hook) {
  fault_hook_ = hook;
  wal_->set_fault_hook(hook);
}

void KvStore::wal_begin_group(const WalGroupLimits& limits) {
  group_limits_ = limits;  // remembered so checkpoint() can re-enter group mode
  wal_->begin_group(limits);
}

void KvStore::wal_commit_group() { wal_->commit_group(); }

void KvStore::wal_end_group() { wal_->end_group(); }

bool KvStore::wal_group_open() const { return wal_->group_open(); }

const WalStats& KvStore::wal_stats() const { return wal_->stats(); }

void KvStore::seal_batch(int64_t batch_id, const std::vector<TxnId>& members) {
  wal_->append({WalRecordType::kBatchSeal, batch_id, "", encode_txn_list(members)});
  merge_sorted(survey_.seals[batch_id], members);
}

void KvStore::checkpoint() {
  namespace fs = std::filesystem;
  // A pending commit group holds records that never reached the file and the
  // rewrite below reads only memory — flush it first, and re-enter group
  // mode on the fresh log so the owner's flush points keep working. Seals
  // are dropped by the rewrite: their batches are resolved, or their members
  // re-surface per transaction (the hint costs nothing to lose).
  const bool group_was_open = wal_->group_open();
  if (group_was_open) wal_->commit_group();
  const fs::path live_path = wal_->path();
  const fs::path tmp_path = live_path.string() + ".compact";
  fs::remove(tmp_path);
  {
    WriteAheadLog fresh(tmp_path);
    fresh.set_fault_hook(fault_hook_);
    // One group, one flush: the file is invisible until the rename below.
    fresh.begin_group(kSingleFlushGroup);
    for (const Entry* entry : sorted_entries()) {
      fresh.append({WalRecordType::kSnapshot, 0, entry->first, entry->second});
    }
    // Carry pending (prepared, undecided) transactions forward so recovery
    // still surfaces them as in-doubt, participant lists included.
    for (const auto& [txn, staged] : staged_) {
      fresh.append({WalRecordType::kBegin, txn, "", ""});
      for (const auto& write : staged.writes) {
        fresh.append({WalRecordType::kWrite, txn, write.key, write.value});
      }
      if (staged.prepared) {
        fresh.append({WalRecordType::kPrepared, txn, "",
                      encode_participant_list(staged.participants)});
      }
    }
    fresh.end_group();
  }
  // The survey the compacted log replays to: its staged transactions only.
  survey_ = {};
  survey_backlog_.clear();
  for (const auto& [txn, staged] : staged_) {
    survey_.txns[txn].status = ShardTxnStatus::kStagedOnly;
    if (staged.prepared) survey_.prepared(txn, staged.participants);
  }
  // The rename is the commit point of the compaction.
  wal_.reset();  // release the append handle to the old log
  fs::rename(tmp_path, live_path);
  wal_ = std::make_unique<WriteAheadLog>(live_path);
  wal_->set_fault_hook(fault_hook_);
  if (group_was_open) wal_->begin_group(group_limits_);
}

}  // namespace rcommit::db
