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

void ShardSurvey::add(const WalRecordView& record) {
  switch (record.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kWrite:
      txns[record.txn_id].staged();
      break;
    case WalRecordType::kPrepared:
      txns[record.txn_id].prepared(decode_participant_list(record.value));
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
      sealed(record.txn_id, decode_txn_list(record.value));
      break;
  }
}

void ShardSurvey::sealed(int64_t batch_id, const std::vector<TxnId>& members) {
  // The same seal is appended to every shard its batch touched; a torn
  // group can leave it on a strict subset, so readers merge across shards.
  merge_sorted(seals[batch_id], members);
}

void ShardSurvey::Txn::prepared(const std::vector<int32_t>& list) {
  status = ShardTxnStatus::kPrepared;
  if (!list.empty()) merge_sorted(participants, list);
}

KvStore::KvStore(const std::filesystem::path& wal_path) {
  const WalImage image(wal_path);
  // Size the indexes from the log's own frame counts (upper bounds: each
  // transaction BEGINs here, and each key arrives in a WRITE or SNAPSHOT),
  // so the replay below never rehashes them.
  data_.reserve(static_cast<size_t>(image.frames(WalRecordType::kWrite) +
                                    image.frames(WalRecordType::kSnapshot)));
  survey_.txns.reserve(static_cast<size_t>(image.frames(WalRecordType::kBegin)));
  // One decode: the replay finds the intact prefix and the log is opened at it.
  wal_ = std::make_unique<WriteAheadLog>(wal_path, replay(image));
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

size_t KvStore::replay(const WalImage& image) {
  // The cursor: the transaction whose run of records is being folded, its
  // survey entry, and where its staged state lives. A transaction met for
  // the first time in this run stages into `slot`, its writes views into the
  // image; one already in staged_ (its earlier records interleaved with
  // another transaction's) is folded in place there. When the run ends a
  // live slot parks in staged_, owning its strings. Record for record the
  // result is what folding each record into staged_[txn] and
  // survey_.txns[txn] would build, with one lookup of each per run.
  struct Slot {
    bool staged = false;  ///< staged_[txn] would exist
    bool prepared = false;
    std::vector<std::pair<std::string_view, std::string_view>> writes;
    std::vector<int32_t> participants;

    void clear() {
      staged = prepared = false;
      writes.clear();
      participants.clear();
    }
  } slot;
  bool active = false;
  TxnId txn = 0;
  ShardSurvey::Txn* entry = nullptr;
  auto parked = staged_.end();

  const auto park = [&] {
    if (!active || parked != staged_.end() || !slot.staged) return;
    Staged staged;
    staged.prepared = slot.prepared;
    staged.participants = slot.participants;
    staged.writes.reserve(slot.writes.size());
    for (const auto& [key, value] : slot.writes) {
      staged.writes.push_back({std::string(key), std::string(value)});
    }
    staged_.emplace(txn, std::move(staged));
  };
  const auto seek = [&](TxnId id) {
    if (active && id == txn) return;
    park();
    active = true;
    txn = id;
    entry = &survey_.txns[id];
    parked = staged_.find(id);
    slot.clear();
  };

  const size_t valid_end = image.decode([&](const WalRecordView& record) {
    switch (record.type) {
      case WalRecordType::kBegin:
        seek(record.txn_id);
        entry->staged();
        slot.staged = parked == staged_.end();
        break;
      case WalRecordType::kWrite:
        seek(record.txn_id);
        entry->staged();
        if (parked != staged_.end()) {
          parked->second.writes.push_back(
              {std::string(record.key), std::string(record.value)});
        } else {
          slot.staged = true;
          slot.writes.emplace_back(record.key, record.value);
        }
        break;
      case WalRecordType::kPrepared:
        seek(record.txn_id);
        // The participant list is decoded once, for the staging and the survey.
        if (parked != staged_.end()) {
          Staged& staged = parked->second;
          decode_participant_list(record.value, staged.participants);
          staged.prepared = true;
          entry->prepared(staged.participants);
        } else {
          decode_participant_list(record.value, slot.participants);
          slot.staged = slot.prepared = true;
          entry->prepared(slot.participants);
        }
        break;
      case WalRecordType::kCommit:
        seek(record.txn_id);
        entry->status = ShardTxnStatus::kCommitted;
        if (parked != staged_.end()) {
          apply(std::move(parked->second));
          staged_.erase(parked);
          parked = staged_.end();
        } else if (slot.staged) {
          for (const auto& [key, value] : slot.writes) install(key, value);
        }
        slot.clear();
        break;
      case WalRecordType::kAbort:
        seek(record.txn_id);
        entry->status = ShardTxnStatus::kAborted;
        if (parked != staged_.end()) {
          staged_.erase(parked);
          parked = staged_.end();
        }
        slot.clear();
        break;
      case WalRecordType::kSnapshot:
        install(record.key, record.value);
        break;
      case WalRecordType::kBatchSeal:
        // A recovery hint for RecoveryManager; carries no shard state.
        survey_.sealed(record.txn_id, decode_txn_list(record.value));
        break;
    }
  });
  park();
  return valid_end;
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

void KvStore::install(std::string_view key, std::string_view value) {
  const auto it = data_.find(key);
  if (it != data_.end()) {
    it->second.assign(value);
    return;
  }
  key_order_.push_back(&*data_.emplace(key, value).first);
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
  commit_staged(it);
}

void KvStore::abort(TxnId txn) {
  const auto it = staged_.find(txn);
  if (it != staged_.end()) {
    abort_staged(it);
    return;
  }
  locks_.unlock_all(txn);
}

bool KvStore::resolve(TxnId txn, Decision decision) {
  const auto it = staged_.find(txn);
  if (it == staged_.end() || !it->second.prepared) return false;
  if (decision == Decision::kCommit) {
    commit_staged(it);
  } else {
    abort_staged(it);
  }
  return true;
}

void KvStore::commit_staged(StagedMap::iterator it) {
  const TxnId txn = it->first;
  wal_->append({WalRecordType::kCommit, txn, "", ""});
  survey_backlog_.push_back({txn, ShardTxnStatus::kCommitted, {}});
  apply(std::move(it->second));
  staged_.erase(it);
  locks_.unlock_all(txn);
}

void KvStore::abort_staged(StagedMap::iterator it) {
  // WAL-first, like commit: if the append throws CrashInjected the staged
  // entry must survive, or a caller that catches the exception would see the
  // transaction gone from memory while the log still says prepared — and a
  // retried abort() would silently skip the kAbort record.
  const TxnId txn = it->first;
  wal_->append({WalRecordType::kAbort, txn, "", ""});
  survey_backlog_.push_back({txn, ShardTxnStatus::kAborted, {}});
  staged_.erase(it);
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
      survey_.txns[change.txn].prepared(change.participants);
    } else {
      survey_.txns[change.txn].status = change.status;
    }
  }
  survey_backlog_.clear();
  return survey_;
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
  survey_.sealed(batch_id, members);
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
  auto fresh = std::make_unique<WriteAheadLog>(tmp_path);
  fresh->set_fault_hook(fault_hook_);
  // One group, one flush: the file is invisible until the rename below.
  fresh->begin_group(kSingleFlushGroup);
  for (const Entry* entry : sorted_entries()) {
    fresh->append({WalRecordType::kSnapshot, 0, entry->first, entry->second});
  }
  // Carry pending (prepared, undecided) transactions forward so recovery
  // still surfaces them as in-doubt, participant lists included.
  for (const auto& [txn, staged] : staged_) {
    fresh->append({WalRecordType::kBegin, txn, "", ""});
    for (const auto& write : staged.writes) {
      fresh->append({WalRecordType::kWrite, txn, write.key, write.value});
    }
    if (staged.prepared) {
      fresh->append({WalRecordType::kPrepared, txn, "",
                     encode_participant_list(staged.participants)});
    }
  }
  fresh->end_group();
  // The survey the compacted log replays to: its staged transactions only.
  survey_ = {};
  survey_backlog_.clear();
  for (const auto& [txn, staged] : staged_) {
    ShardSurvey::Txn& entry = survey_.txns[txn];
    entry.status = ShardTxnStatus::kStagedOnly;
    if (staged.prepared) entry.prepared(staged.participants);
  }
  // The rename is the commit point of the compaction. The handle that wrote
  // the compacted log keeps appending to it under the live name, so nothing
  // re-reads what was just written.
  wal_.reset();  // release the append handle to the old log
  fresh->replace(live_path);
  wal_ = std::move(fresh);
  if (group_was_open) wal_->begin_group(group_limits_);
}

}  // namespace rcommit::db
