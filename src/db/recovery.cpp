#include "db/recovery.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "db/txn.h"

namespace rcommit::db {

namespace {

/// Merges per-shard surveys (one per shard position) into one view.
BatchSurvey merge(const std::vector<const ShardSurvey*>& shards) {
  BatchSurvey survey;
  survey.statuses.resize(shards.size());
  std::map<TxnId, std::set<int32_t>> participant_sets;
  std::map<int64_t, std::set<TxnId>> seal_sets;
  for (size_t i = 0; i < shards.size(); ++i) {
    for (const auto& [txn, entry] : shards[i]->txns) {
      survey.statuses[i].emplace(txn, entry.status);
      if (!entry.participants.empty()) {
        participant_sets[txn].insert(entry.participants.begin(), entry.participants.end());
      }
    }
    for (const auto& [batch, members] : shards[i]->seals) {
      if (!members.empty()) seal_sets[batch].insert(members.begin(), members.end());
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

}  // namespace

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
  // Read each log fresh from disk: what is durable, not what the stores
  // hold in memory.
  std::vector<ShardSurvey> read(shards_.size());
  std::vector<const ShardSurvey*> views;
  for (size_t i = 0; i < shards_.size(); ++i) {
    WalImage(shards_[i]->wal().path()).decode([&survey = read[i]](const WalRecordView& record) {
      survey.add(record);
    });
    views.push_back(&read[i]);
  }
  return merge(views);
}

BatchSurvey RecoveryManager::survey_live() const {
  std::vector<const ShardSurvey*> views;
  for (const auto* shard : shards_) views.push_back(&shard->survey());
  return merge(views);
}

std::map<int32_t, ShardTxnStatus> RecoveryManager::survey(TxnId txn) const {
  const BatchSurvey batch = survey_all();
  std::map<int32_t, ShardTxnStatus> statuses;
  for (size_t i = 0; i < shards_.size(); ++i) {
    statuses[static_cast<int32_t>(i)] = batch.status(static_cast<int32_t>(i), txn);
  }
  return statuses;
}

RecoveryManager::Resolution RecoveryManager::classify(TxnId txn) const {
  bool any_commit = false;
  bool any_abort = false;
  bool any_staged_only = false;
  std::vector<ShardTxnStatus> statuses(shards_.size(), ShardTxnStatus::kUnknown);
  // The intended participant set is the union of the recorded lists; its
  // members are checked shard list by shard list below.
  std::vector<const std::vector<int32_t>*> intended;
  std::vector<int32_t> prepared_shards;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto& txns = shards_[i]->survey().txns;
    const auto it = txns.find(txn);
    if (it == txns.end()) continue;
    statuses[i] = it->second.status;
    if (!it->second.participants.empty()) intended.push_back(&it->second.participants);
    switch (it->second.status) {
      case ShardTxnStatus::kCommitted: any_commit = true; break;
      case ShardTxnStatus::kAborted: any_abort = true; break;
      case ShardTxnStatus::kStagedOnly: any_staged_only = true; break;
      case ShardTxnStatus::kPrepared:
        prepared_shards.push_back(static_cast<int32_t>(i));
        break;
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
  for (const auto* list : intended) {
    for (int32_t id : *list) {
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
              ? statuses[static_cast<size_t>(index)]
              : ShardTxnStatus::kUnknown;
      if (status == ShardTxnStatus::kUnknown ||
          status == ShardTxnStatus::kStagedOnly) {
        missing_intended_participant = true;
      }
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
    (void)shards_[static_cast<size_t>(shard)]->resolve(txn, decision);
  }
  (decision == Decision::kCommit ? report.resolved_commit : report.resolved_abort) += 1;
}

RecoveryReport RecoveryManager::resolve_all() {
  RecoveryReport report;
  std::vector<TxnId> pending;
  for (const auto* shard : shards_) {
    const auto in_doubt = shard->in_doubt();
    pending.insert(pending.end(), in_doubt.begin(), in_doubt.end());
  }
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  if (pending.empty()) return report;

  // The recorded seal of each pending instance. The same seal sits on every
  // shard its batch touched; an instance in two seals takes the larger id.
  std::map<TxnId, int64_t> seal_of;
  for (const auto* shard : shards_) {
    for (const auto& [batch, members] : shard->survey().seals) {
      for (TxnId member : members) {
        if (!std::binary_search(pending.begin(), pending.end(), member)) continue;
        auto [it, inserted] = seal_of.emplace(member, batch);
        if (!inserted) it->second = std::max(it->second, batch);
      }
    }
  }

  // Classify everything first, against the surveys as the logs left them
  // (the outcomes appended below must not feed back into the rules). Rule-3
  // members of one seal share ONE protocol rerun, seeded by the batch id,
  // over the union of their prepared shards — the participant set the live
  // batched round ran over, minus members settled by rules 1 and 2 (whose
  // recorded outcomes stand on their own).
  std::vector<Resolution> resolutions;
  resolutions.reserve(pending.size());
  std::map<int64_t, std::set<int32_t>> batch_shards;
  for (TxnId txn : pending) {
    resolutions.push_back(classify(txn));
    const Resolution& resolution = resolutions.back();
    const auto seal_it = seal_of.find(txn);
    if (resolution.needs_rerun && seal_it != seal_of.end()) {
      batch_shards[seal_it->second].insert(resolution.prepared_shards.begin(),
                                           resolution.prepared_shards.end());
    }
  }

  // Outcomes go out as one WAL group per shard, flushed at the end. A crash
  // part-way loses only unflushed groups; the next recovery adopts the
  // flushed outcomes by rule 1 and reaches the same decisions for the rest.
  std::vector<KvStore*> grouped;
  for (auto* shard : shards_) {
    if (shard->wal_group_open()) continue;
    shard->wal_begin_group(kSingleFlushGroup);
    grouped.push_back(shard);
  }

  // Apply in ascending transaction-id order, exactly as the unsealed path
  // always has; a sealed batch's rerun fires lazily at its first pending
  // rule-3 member and the decision is reused for the rest.
  std::map<int64_t, Decision> batch_decisions;
  for (size_t i = 0; i < pending.size(); ++i) {
    const TxnId txn = pending[i];
    const Resolution& resolution = resolutions[i];
    Decision decision = resolution.decision;
    if (resolution.needs_rerun) {
      const auto seal_it = seal_of.find(txn);
      if (seal_it == seal_of.end()) {
        ++report.reran_protocol;
        decision = rerun_decision(txn, resolution.prepared_shards);
      } else {
        const int64_t batch = seal_it->second;
        auto cached = batch_decisions.find(batch);
        if (cached == batch_decisions.end()) {
          const std::set<int32_t>& shards = batch_shards.at(batch);
          ++report.reran_protocol;
          cached = batch_decisions
                       .emplace(batch, rerun_decision(batch, {shards.begin(), shards.end()}))
                       .first;
        }
        decision = cached->second;
      }
    }
    apply_decision(txn, decision, resolution.prepared_shards, report);
  }
  for (auto* shard : grouped) shard->wal_end_group();
  return report;
}

}  // namespace rcommit::db
