#include "db/recovery.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "db/txn.h"

namespace rcommit::db {

ShardTxnStatus BatchSurvey::status(int32_t shard, TxnId txn) const {
  const auto& shard_statuses = statuses[static_cast<size_t>(shard)];
  const auto it = shard_statuses.find(txn);
  return it == shard_statuses.end() ? ShardTxnStatus::kUnknown : it->second;
}

RecoveryManager::RecoveryManager(std::vector<KvStore*> shards, Options options)
    : shards_(std::move(shards)), options_(std::move(options)) {
  RCOMMIT_CHECK(!shards_.empty());
  for (const auto* shard : shards_) RCOMMIT_CHECK(shard != nullptr);
  RCOMMIT_CHECK_MSG(
      options_.shard_ids.empty() || options_.shard_ids.size() == shards_.size(),
      "shard_ids must be empty or parallel to the shards vector");
}

BatchSurvey RecoveryManager::survey_all() const {
  BatchSurvey survey;
  survey.statuses.resize(shards_.size());
  std::map<TxnId, std::set<int32_t>> participant_sets;
  std::map<int64_t, std::set<TxnId>> seal_sets;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Replay the shard's WAL fresh; the live KvStore only retains staged
    // state, but recovery needs the full outcome history. ONE replay per
    // shard covers every transaction — the multi-shot scan.
    WriteAheadLog wal(shards_[i]->wal().path());
    auto& statuses = survey.statuses[i];
    for (const auto& record : wal.replay()) {
      switch (record.type) {
        case WalRecordType::kBegin:
        case WalRecordType::kWrite: {
          auto [it, inserted] =
              statuses.emplace(record.txn_id, ShardTxnStatus::kStagedOnly);
          (void)it;
          (void)inserted;
          break;
        }
        case WalRecordType::kPrepared:
          statuses[record.txn_id] = ShardTxnStatus::kPrepared;
          for (int32_t id : decode_participant_list(record.value)) {
            participant_sets[record.txn_id].insert(id);
          }
          break;
        case WalRecordType::kCommit:
          statuses[record.txn_id] = ShardTxnStatus::kCommitted;
          break;
        case WalRecordType::kAbort:
          statuses[record.txn_id] = ShardTxnStatus::kAborted;
          break;
        case WalRecordType::kSnapshot:
          break;  // checkpointed committed state; carries no per-txn status
        case WalRecordType::kBatchSeal:
          // The same seal is appended to every shard its batch touched; a
          // torn group can leave it on a strict subset, so merge.
          for (TxnId member : decode_txn_list(record.value)) {
            seal_sets[record.txn_id].insert(member);
          }
          break;
      }
    }
  }
  for (const auto& [txn, ids] : participant_sets) {
    survey.participants[txn].assign(ids.begin(), ids.end());
  }
  for (const auto& [batch, members] : seal_sets) {
    survey.batches[batch].assign(members.begin(), members.end());
  }
  return survey;
}

std::map<int32_t, ShardTxnStatus> RecoveryManager::survey(TxnId txn) const {
  const BatchSurvey batch = survey_all();
  std::map<int32_t, ShardTxnStatus> statuses;
  for (size_t i = 0; i < shards_.size(); ++i) {
    statuses[static_cast<int32_t>(i)] = batch.status(static_cast<int32_t>(i), txn);
  }
  return statuses;
}

RecoveryManager::Resolution RecoveryManager::classify(
    TxnId txn, const BatchSurvey& survey) const {
  const auto participants_it = survey.participants.find(txn);
  const std::vector<int32_t> intended =
      participants_it == survey.participants.end() ? std::vector<int32_t>{}
                                                   : participants_it->second;

  bool any_commit = false;
  bool any_abort = false;
  bool any_staged_only = false;
  std::vector<int32_t> prepared_shards;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto shard = static_cast<int32_t>(i);
    switch (survey.status(shard, txn)) {
      case ShardTxnStatus::kCommitted: any_commit = true; break;
      case ShardTxnStatus::kAborted: any_abort = true; break;
      case ShardTxnStatus::kStagedOnly: any_staged_only = true; break;
      case ShardTxnStatus::kPrepared: prepared_shards.push_back(shard); break;
      case ShardTxnStatus::kUnknown: break;
    }
  }
  // Rule 1: a recorded outcome is authoritative — decisions were unanimous.
  RCOMMIT_CHECK_MSG(!(any_commit && any_abort),
                    "WALs record conflicting outcomes for txn " << txn);

  // Rule 2 extension: a PREPARED record names the full intended participant
  // set. Any listed participant that is not itself prepared (or decided) —
  // including one that never even reached its BEGIN append — can never have
  // voted commit, so commit is impossible. Without this check, a crash
  // between the phase-1 prepares of two shards would leave the first shard
  // "all visibly prepared" and recovery could install a strict subset of the
  // transaction. Legacy records with no participant list fall back to the
  // visible-prepared-set behaviour.
  bool missing_intended_participant = false;
  for (int32_t id : intended) {
    int32_t index = id;
    if (!options_.shard_ids.empty()) {
      const auto it =
          std::find(options_.shard_ids.begin(), options_.shard_ids.end(), id);
      index = it == options_.shard_ids.end()
                  ? -1
                  : static_cast<int32_t>(it - options_.shard_ids.begin());
    }
    const ShardTxnStatus status =
        index >= 0 && index < static_cast<int32_t>(shards_.size())
            ? survey.status(index, txn)
            : ShardTxnStatus::kUnknown;
    if (status == ShardTxnStatus::kUnknown ||
        status == ShardTxnStatus::kStagedOnly) {
      missing_intended_participant = true;
    }
  }

  Resolution resolution;
  resolution.prepared_shards = std::move(prepared_shards);
  if (any_commit) {
    resolution.decision = Decision::kCommit;
  } else if (any_abort || any_staged_only || missing_intended_participant) {
    // Rule 2: an un-prepared participant can never have enabled a commit.
    resolution.decision = Decision::kAbort;
  } else {
    // Rule 3: everyone prepared, nobody decided — the caller reruns the
    // commit protocol among the prepared shards, all voting commit.
    RCOMMIT_CHECK(!resolution.prepared_shards.empty());
    resolution.needs_rerun = true;
  }
  return resolution;
}

Decision RecoveryManager::rerun_decision(
    int64_t mix_id, const std::vector<int32_t>& prepared_shards) const {
  // The rerun happens on the deterministic simulator under the on-time
  // adversary (the Theorem 9 commit-validity conditions), so the outcome —
  // commit — is a pure function of the inputs, never of wall-clock timing.
  // An unsealed instance reruns under its own (seed, txn) mix; a sealed
  // batch reruns ONCE under the (seed, batch id) mix, deciding every member
  // — the same one-round-per-batch shape the live engine used.
  if (prepared_shards.size() == 1) {
    return Decision::kCommit;  // a lone prepared shard may commit
  }
  const auto decisions =
      run_simulated_round(static_cast<int32_t>(prepared_shards.size()),
                          decision_seed(options_.seed, mix_id));
  Decision decision = Decision::kAbort;
  for (const auto& d : decisions) {
    if (d.has_value() && *d == Decision::kCommit) decision = Decision::kCommit;
  }
  return decision;
}

void RecoveryManager::apply_decision(TxnId txn, Decision decision,
                                     const std::vector<int32_t>& prepared_shards,
                                     RecoveryReport& report) {
  // Apply to every shard still holding the transaction in doubt.
  for (int32_t shard : prepared_shards) {
    auto& store = *shards_[static_cast<size_t>(shard)];
    bool still_in_doubt = false;
    for (TxnId t : store.in_doubt()) still_in_doubt |= (t == txn);
    if (!still_in_doubt) continue;
    if (decision == Decision::kCommit) {
      store.commit(txn);
    } else {
      store.abort(txn);
    }
  }
  (decision == Decision::kCommit ? report.resolved_commit : report.resolved_abort) += 1;
}

RecoveryReport RecoveryManager::resolve_all() {
  RecoveryReport report;
  std::set<TxnId> pending;
  for (const auto* shard : shards_) {
    for (TxnId txn : shard->in_doubt()) pending.insert(txn);
  }
  if (pending.empty()) return report;
  // One WAL scan per shard indexes every instance at once; each pending
  // transaction is then resolved from the index. Resolving transaction A
  // appends only A's outcome record, so the index stays exact for B, C, ...
  const BatchSurvey survey = survey_all();

  // Classify everything first: rule-3 members of the same recorded seal
  // share ONE protocol rerun (seeded by the batch id) instead of one each.
  std::map<TxnId, Resolution> resolutions;
  for (TxnId txn : pending) resolutions.emplace(txn, classify(txn, survey));
  std::map<TxnId, int64_t> seal_of;
  for (const auto& [batch, members] : survey.batches) {
    for (TxnId member : members) seal_of[member] = batch;
  }

  // Apply in ascending transaction-id order, exactly as the unsealed path
  // always has; a sealed batch's rerun fires lazily at its first pending
  // rule-3 member and the decision is reused for the rest.
  std::map<int64_t, Decision> batch_decisions;
  for (TxnId txn : pending) {
    const Resolution& resolution = resolutions.at(txn);
    Decision decision = resolution.decision;
    if (resolution.needs_rerun) {
      const auto seal_it = seal_of.find(txn);
      if (seal_it == seal_of.end()) {
        ++report.reran_protocol;
        decision = rerun_decision(txn, resolution.prepared_shards);
      } else {
        auto cached = batch_decisions.find(seal_it->second);
        if (cached == batch_decisions.end()) {
          // One rerun for the whole batch, over the union of its pending
          // rule-3 members' prepared shards — the same participant set the
          // live batched round ran over, minus members already settled by
          // rules 1 and 2 (whose recorded outcomes stand on their own).
          std::set<int32_t> union_shards;
          for (const auto& [member, member_resolution] : resolutions) {
            if (seal_of.count(member) == 0 ||
                seal_of.at(member) != seal_it->second) {
              continue;
            }
            if (!member_resolution.needs_rerun) continue;
            union_shards.insert(member_resolution.prepared_shards.begin(),
                                member_resolution.prepared_shards.end());
          }
          ++report.reran_protocol;
          cached = batch_decisions
                       .emplace(seal_it->second,
                                rerun_decision(seal_it->second,
                                               {union_shards.begin(),
                                                union_shards.end()}))
                       .first;
        }
        decision = cached->second;
      }
    }
    apply_decision(txn, decision, resolution.prepared_shards, report);
  }
  return report;
}

}  // namespace rcommit::db
