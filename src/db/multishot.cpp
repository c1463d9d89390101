#include "db/multishot.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "transport/node.h"

namespace rcommit::db {

MultiShotDb::MultiShotDb(Options options) : options_(std::move(options)) {
  RCOMMIT_CHECK(options_.shard_count >= 1);
  RCOMMIT_CHECK_MSG(options_.shard_count <= (1 << (64 - kTxnSequenceBits - 1)),
                    "shard count exceeds the txn-id origin field");
  RCOMMIT_CHECK(!options_.data_dir.empty());
  std::filesystem::create_directories(options_.data_dir);
  engines_.reserve(static_cast<size_t>(options_.shard_count));
  for (int32_t i = 0; i < options_.shard_count; ++i) {
    auto engine = std::make_unique<ShardEngine>();
    engine->store = std::make_unique<KvStore>(
        options_.data_dir / ("shard-" + std::to_string(i) + ".wal"));
    if (options_.wal_fault_hook != nullptr) {
      engine->store->set_fault_hook(options_.wal_fault_hook);
    }
    engines_.push_back(std::move(engine));
  }
  // Resume every origin's sequence past the largest id of that origin the
  // opened logs hold, transactions and seals alike: an id already in a WAL
  // is never allocated again, or a staged-only leftover under it would merge
  // into the new instance at the next replay.
  std::vector<int64_t> last_sequence(engines_.size(), 0);
  const auto saw = [&](TxnId id) {
    const int32_t origin = txn_origin(id);
    if (origin < 0 || origin >= options_.shard_count) return;
    int64_t& last = last_sequence[static_cast<size_t>(origin)];
    last = std::max(last, txn_sequence(id));
  };
  for (const auto& engine : engines_) {
    const ShardSurvey& survey = engine->store->survey();
    for (const auto& [txn, entry] : survey.txns) saw(txn);
    for (const auto& [batch, members] : survey.seals) {
      saw(batch);
      for (const TxnId member : members) saw(member);
    }
  }
  for (size_t i = 0; i < engines_.size(); ++i) {
    engines_[i]->next_sequence = last_sequence[i] + 1;
  }
}

TxnId MultiShotDb::allocate_txn_id(int32_t origin_shard) {
  RCOMMIT_CHECK(origin_shard >= 0 && origin_shard < options_.shard_count);
  // A crashed or aborted attempt burns its sequence number, and an engine
  // reopened over existing logs resumes past their ids: ids are
  // allocate-once, never reused, so recovery can treat every id it sees in a
  // WAL as naming exactly one instance.
  const int64_t sequence =
      engines_[static_cast<size_t>(origin_shard)]->next_sequence.fetch_add(1);
  return make_txn_id(origin_shard, sequence);
}

MultiShotDb::Instance MultiShotDb::prepare_phase(TxnId txn,
                                                 const GeneratedTxn& writes) {
  RCOMMIT_CHECK(!writes.empty());
  Instance instance;
  instance.txn = txn;
  for (const auto& [shard_index, shard_writes] : writes) {
    (void)shard_writes;
    RCOMMIT_CHECK(shard_index >= 0 && shard_index < options_.shard_count);
    instance.involved.push_back(shard_index);
  }
  // Prepare in ascending shard order, one shard lock at a time. The first
  // abort vote (a lock conflict) short-circuits: the remaining shards never
  // see the transaction, which recovery's rule 2 reads as "a listed
  // participant never prepared", forcing abort — the same outcome the live
  // path applies below.
  instance.all_voted_commit = true;
  for (const int32_t shard_index : instance.involved) {
    auto& engine = *engines_[static_cast<size_t>(shard_index)];
    MutexLock lock(engine.mu);
    ensure_group_open(engine);
    if (!engine.store->prepare(txn, writes.at(shard_index), instance.involved)) {
      instance.all_voted_commit = false;
      break;
    }
  }
  return instance;
}

void MultiShotDb::ensure_group_open(ShardEngine& engine) {
  if (!options_.group_commit || engine.group_open) return;
  engine.store->wal_begin_group({});
  engine.group_open = true;
}

void MultiShotDb::flush_groups(const std::vector<int32_t>& shards) {
  if (!options_.group_commit) return;
  for (const int32_t shard_index : shards) {
    auto& engine = *engines_[static_cast<size_t>(shard_index)];
    MutexLock lock(engine.mu);
    if (engine.group_open) engine.store->wal_commit_group();
  }
}

void MultiShotDb::seal_shards(const std::vector<int32_t>& shards, TxnId batch_id,
                              const std::vector<TxnId>& members) {
  for (const int32_t shard_index : shards) {
    auto& engine = *engines_[static_cast<size_t>(shard_index)];
    MutexLock lock(engine.mu);
    engine.store->seal_batch(batch_id, members);
  }
}

void MultiShotDb::flush_wals() {
  std::vector<int32_t> all;
  all.reserve(static_cast<size_t>(options_.shard_count));
  for (int32_t i = 0; i < options_.shard_count; ++i) all.push_back(i);
  flush_groups(all);
}

TxnOutcome MultiShotDb::decide(const std::vector<const Instance*>& members) {
  RCOMMIT_CHECK(!members.empty());
  std::set<int32_t> shard_set;
  std::vector<TxnId> ids;
  ids.reserve(members.size());
  for (const Instance* member : members) {
    RCOMMIT_CHECK(member->all_voted_commit);
    shard_set.insert(member->involved.begin(), member->involved.end());
    ids.push_back(member->txn);
  }
  const std::vector<int32_t> shards(shard_set.begin(), shard_set.end());
  // A singleton decides under its own (seed, txn id) mix with no seal, so
  // decision_batch == 1 reproduces the unbatched rounds decision for decision.
  // The seal rides unflushed: it is a recovery hint only.
  if (members.size() > 1) seal_shards(shards, ids.front(), ids);
  return run_union_round(shards, ids.front());
}

TxnOutcome MultiShotDb::run_union_round(const std::vector<int32_t>& shards,
                                        TxnId batch_id) {
  const auto n = static_cast<int32_t>(shards.size());
  if (n == 1) return {Decision::kCommit, true};

  const uint64_t seed = decision_seed(options_.seed, batch_id);
  const std::vector<std::optional<Decision>> decisions =
      options_.decision_transport == DecisionTransport::kSimulator
          ? run_simulated_round(n, seed)
          : run_threaded_round(n, seed);
  TxnOutcome outcome{Decision::kAbort, true};
  for (const auto& d : decisions) {
    if (!d.has_value()) outcome.decided = false;
    if (d.has_value() && *d == Decision::kCommit) outcome.decision = Decision::kCommit;
  }
  return outcome;
}

std::vector<std::optional<Decision>> MultiShotDb::run_threaded_round(int32_t n,
                                                                     uint64_t seed) {
  // Admission: each round spins up ~n+1 short-lived threads (node hosts plus
  // the network's delivery thread). Running more rounds than cores turns
  // pipelining into scheduler churn, so excess clients wait here — their
  // instances are already prepared, keeping the pipeline full.
  {
    MutexLock lock(rounds_mu_);
    while (active_rounds_ >= kMaxConcurrentRounds) {
      rounds_cv_.wait_for(rounds_mu_, std::chrono::milliseconds(50));
    }
    ++active_rounds_;
  }
  transport::InMemoryNetwork network(n, seed, options_.network);
  const transport::FleetResult result =
      transport::run_fleet(make_commit_fleet(n), network, seed ^ 0xf1ee7, kRoundTimeout);
  {
    MutexLock lock(rounds_mu_);
    --active_rounds_;
  }
  rounds_cv_.notify_one();
  return result.decisions;
}

void MultiShotDb::apply_phase(const Instance& instance, const TxnOutcome& outcome) {
  // An undecided instance stays in doubt: staged state and locks are
  // retained on every prepared shard for RecoveryManager to resolve.
  if (!outcome.decided) return;
  for (const int32_t shard_index : instance.involved) {
    auto& engine = *engines_[static_cast<size_t>(shard_index)];
    MutexLock lock(engine.mu);
    if (outcome.decision == Decision::kCommit) {
      engine.store->commit(instance.txn);
    } else {
      // abort() is idempotent per shard and legal for shards whose prepare
      // never ran (the short-circuited tail of a conflict abort).
      engine.store->abort(instance.txn);
    }
  }
}

TxnOutcome MultiShotDb::execute(int32_t origin_shard, const GeneratedTxn& writes) {
  const TxnId txn = allocate_txn_id(origin_shard);
  const Instance instance = prepare_phase(txn, writes);
  TxnOutcome outcome;
  if (!instance.all_voted_commit) {
    outcome = {Decision::kAbort, true};
    conflict_aborts_.fetch_add(1);
    apply_phase(instance, outcome);
    // A conflict abort's kAbort records may sit buffered under group mode;
    // the next leader or outcome flush on those shards carries them. An
    // unflushed abort is safe: nothing can resurrect it as a commit.
  } else if (options_.decision_batch > 1 && instance.involved.size() > 1) {
    // Batched decide: a leader folds up to decision_batch prepared
    // instances into ONE protocol round. The round decides, applies, and
    // flushes before the waiter is released, so the outcome this caller
    // observes is durable.
    outcome = decide_batched(instance);
  } else {
    outcome = run_batch_round({&instance});
  }
  if (!outcome.decided) {
    in_doubt_.fetch_add(1);
  } else if (outcome.decision == Decision::kCommit) {
    committed_.fetch_add(1);
  } else {
    aborted_.fetch_add(1);
  }
  return outcome;
}

TxnOutcome MultiShotDb::decide_batched(const Instance& instance) {
  DecideWaiter self;
  self.instance = &instance;
  {
    MutexLock lock(decide_mu_);
    // The batched path is threaded-only, where no fault hook is installed.
    // RCOMMIT_ANALYZE_ALLOW(A3): scheduling bookkeeping, not durable state
    decide_queue_.push_back(&self);
  }
  decide_cv_.notify_all();

  while (true) {
    std::vector<DecideWaiter*> members;
    {
      MutexLock lock(decide_mu_);
      if (self.done) return self.outcome;
      if (decide_leader_active_ || decide_queue_.empty()) {
        // Someone else is draining (possibly with us in their batch), or we
        // were drained and our round is in flight — wait for a publish.
        decide_cv_.wait_for(decide_mu_, std::chrono::milliseconds(1));
        continue;
      }
      // Become the leader: give the batch a short window to fill, then
      // drain whatever queued.
      // RCOMMIT_ANALYZE_ALLOW(A3): scheduling bookkeeping, not durable state
      decide_leader_active_ = true;
      const auto deadline =
          std::chrono::steady_clock::now() + kBatchCollectWindow;
      while (static_cast<int32_t>(decide_queue_.size()) < options_.decision_batch &&
             std::chrono::steady_clock::now() < deadline) {
        decide_cv_.wait_for(decide_mu_, kBatchCollectWindow);
      }
      const auto take = std::min(decide_queue_.size(),
                                 static_cast<size_t>(options_.decision_batch));
      members.assign(decide_queue_.begin(),
                     decide_queue_.begin() + static_cast<ptrdiff_t>(take));
      // RCOMMIT_ANALYZE_ALLOW(A3): scheduling bookkeeping, not durable state
      decide_queue_.erase(decide_queue_.begin(),
                          decide_queue_.begin() + static_cast<ptrdiff_t>(take));
      // Leadership ends BEFORE the round runs: the next leader forms its
      // batch while ours is deciding, so batching multiplies per-round
      // throughput instead of serializing rounds behind one leader.
      // RCOMMIT_ANALYZE_ALLOW(A3): scheduling bookkeeping, not durable state
      decide_leader_active_ = false;
    }
    decide_cv_.notify_all();
    std::vector<const Instance*> instances;
    instances.reserve(members.size());
    for (const DecideWaiter* member : members) instances.push_back(member->instance);
    const TxnOutcome outcome = run_batch_round(instances);
    {
      MutexLock lock(decide_mu_);
      for (DecideWaiter* member : members) {
        member->outcome = outcome;
        member->done = true;
      }
    }
    decide_cv_.notify_all();
    // If we drained ourselves, the loop exits via self.done; otherwise our
    // instance is still queued (or in another leader's flight) — keep going.
  }
}

TxnOutcome MultiShotDb::run_batch_round(const std::vector<const Instance*>& members) {
  std::set<int32_t> shard_set;
  for (const Instance* member : members) {
    shard_set.insert(member->involved.begin(), member->involved.end());
  }
  const std::vector<int32_t> shards(shard_set.begin(), shard_set.end());
  // Durability order: every member's PREPARED must be on disk before the
  // round — the same reason the pipelined path flushes at its Phase A
  // boundary. Otherwise a crash between two shards' outcome flushes leaves
  // a COMMIT on one shard and no trace of the transaction on the other.
  flush_groups(shards);
  const TxnOutcome outcome = decide(members);
  for (const Instance* member : members) apply_phase(*member, outcome);
  // Outcomes must be durable before any caller observes them.
  if (outcome.decided) flush_groups(shards);
  return outcome;
}

std::vector<TxnOutcome> MultiShotDb::execute_pipelined(
    int32_t origin_shard, const std::vector<GeneratedTxn>& batch) {
  // Phase A: stage + prepare every instance before deciding any. The WALs
  // interleave the whole batch's BEGIN/WRITE/PREPARED records, so a crash
  // anywhere in the pipeline leaves many instances in doubt per shard.
  std::vector<Instance> instances;
  instances.reserve(batch.size());
  for (const auto& writes : batch) {
    instances.push_back(prepare_phase(allocate_txn_id(origin_shard), writes));
  }
  // Group-commit boundary: every PREPARED must be durable before any
  // decision round runs. A crash after a round but before the prepare flush
  // would otherwise let recovery's rule 1 (an outcome record elsewhere)
  // collide with rule 2 (this shard never prepared) — an atomicity hole.
  flush_wals();

  // Phase B: decision rounds, in instance order. With decision_batch > 1,
  // consecutive instances fold their vote vector into one round: the
  // lock-table no-voters split off as immediate aborts, and the remaining
  // unanimous-yes members decide() together. Seals stay buffered — they
  // are recovery hints, flushed with the Phase C outcomes.
  const auto chunk = static_cast<size_t>(std::max(1, options_.decision_batch));
  std::vector<TxnOutcome> outcomes(instances.size());
  for (size_t base = 0; base < instances.size(); base += chunk) {
    const size_t end = std::min(instances.size(), base + chunk);
    std::vector<const Instance*> yes;
    for (size_t i = base; i < end; ++i) {
      if (instances[i].all_voted_commit) {
        yes.push_back(&instances[i]);
      } else {
        outcomes[i] = {Decision::kAbort, true};
        conflict_aborts_.fetch_add(1);
      }
    }
    if (yes.empty()) continue;
    const TxnOutcome outcome = decide(yes);
    for (size_t i = base; i < end; ++i) {
      if (instances[i].all_voted_commit) outcomes[i] = outcome;
    }
  }

  // Phase C: apply, in instance order.
  for (size_t i = 0; i < instances.size(); ++i) {
    apply_phase(instances[i], outcomes[i]);
    if (!outcomes[i].decided) {
      in_doubt_.fetch_add(1);
    } else if (outcomes[i].decision == Decision::kCommit) {
      committed_.fetch_add(1);
    } else {
      aborted_.fetch_add(1);
    }
  }
  // Group-commit boundary: outcomes (and the seals buffered since Phase B)
  // become durable before the driver observes them.
  flush_wals();
  return outcomes;
}

std::optional<std::string> MultiShotDb::get(int32_t shard,
                                            const std::string& key) const {
  RCOMMIT_CHECK(shard >= 0 && shard < options_.shard_count);
  const auto& engine = *engines_[static_cast<size_t>(shard)];
  MutexLock lock(engine.mu);
  return engine.store->get(key);
}

KvStore& MultiShotDb::shard(int32_t index) {
  RCOMMIT_CHECK(index >= 0 && index < options_.shard_count);
  return *engines_[static_cast<size_t>(index)]->store;
}

MultiShotStats MultiShotDb::stats() const {
  MultiShotStats stats;
  stats.committed = committed_.load();
  stats.aborted = aborted_.load();
  stats.conflict_aborts = conflict_aborts_.load();
  stats.in_doubt = in_doubt_.load();
  return stats;
}

WalStats MultiShotDb::wal_stats() const {
  WalStats total;
  for (const auto& engine : engines_) {
    MutexLock lock(engine->mu);
    const WalStats& shard = engine->store->wal_stats();
    total.records_appended += shard.records_appended;
    total.flushes += shard.flushes;
    total.bytes_written += shard.bytes_written;
  }
  return total;
}

}  // namespace rcommit::db
