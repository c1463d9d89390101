#include "db/txn.h"

#include "adversary/basic.h"
#include "baselines/q3pc.h"
#include "baselines/threepc.h"
#include "baselines/twopc.h"
#include "common/check.h"
#include "sim/simulator.h"
#include "transport/node.h"

namespace rcommit::db {

DistributedDb::DistributedDb(Options options) : options_(std::move(options)) {
  RCOMMIT_CHECK(options_.shard_count >= 1);
  RCOMMIT_CHECK(!options_.data_dir.empty());
  std::filesystem::create_directories(options_.data_dir);
  txn_seed_ = options_.seed;
  shards_.reserve(static_cast<size_t>(options_.shard_count));
  for (int32_t i = 0; i < options_.shard_count; ++i) {
    shards_.push_back(std::make_unique<KvStore>(
        options_.data_dir / ("shard-" + std::to_string(i) + ".wal")));
    if (options_.wal_fault_hook != nullptr) {
      shards_.back()->set_fault_hook(options_.wal_fault_hook);
    }
  }
}

std::unique_ptr<sim::Process> make_commit_participant(CommitBackend backend,
                                                      const SystemParams& params,
                                                      int vote, Tick k) {
  switch (backend) {
    case CommitBackend::kPaperProtocol: {
      protocol::CommitProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      return std::make_unique<protocol::CommitProcess>(popts);
    }
    case CommitBackend::kTwoPc: {
      baselines::TwoPcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.policy = baselines::TwoPcTimeoutPolicy::kPresumeAbort;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::TwoPcProcess>(popts);
    }
    case CommitBackend::kThreePc: {
      baselines::ThreePcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::ThreePcProcess>(popts);
    }
    case CommitBackend::kQ3pc: {
      baselines::Q3pcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::Q3pcProcess>(popts);
    }
  }
  RCOMMIT_CHECK_MSG(false, "unknown commit backend");
  return nullptr;
}

std::vector<std::unique_ptr<sim::Process>> make_commit_fleet(int32_t n) {
  const SystemParams params{.n = n, .t = (n - 1) / 2, .k = kCommitK};
  std::vector<std::unique_ptr<sim::Process>> fleet;
  fleet.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    fleet.push_back(make_commit_participant(CommitBackend::kPaperProtocol, params,
                                            /*vote=*/1, kCommitK));
  }
  return fleet;
}

std::vector<std::optional<Decision>> run_simulated_round(int32_t n, uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  config.max_events = kRoundMaxEvents;
  config.record_trace = false;
  sim::Simulator simulator(config, make_commit_fleet(n),
                           adversary::make_on_time_adversary());
  return simulator.run().decisions;
}

std::unique_ptr<sim::Process> DistributedDb::make_participant(int32_t index, int32_t n,
                                                              int vote) const {
  (void)index;
  const SystemParams params{.n = n, .t = (n - 1) / 2, .k = kCommitK};
  return make_commit_participant(options_.backend, params, vote, kCommitK);
}

TxnOutcome DistributedDb::execute(
    const std::map<int32_t, std::vector<KvWrite>>& writes_by_shard) {
  RCOMMIT_CHECK(!writes_by_shard.empty());
  // A crashed attempt deliberately burns its txn id and seed draw: a retry
  // after CrashInjected must run under a fresh id, never reuse the old one.
  // RCOMMIT_ANALYZE_ALLOW(A3): id burn is intentional; retries need a fresh txn id
  const TxnId txn = next_txn_++;
  // RCOMMIT_ANALYZE_ALLOW(A3): seed advance is intentional; paired with the id burn
  txn_seed_ = txn_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;

  // Phase 1: every involved shard stages + durably prepares (its vote). The
  // PREPARED record names the full intended participant set, so recovery can
  // detect a crash that struck between two shards' prepares (the first shard
  // must not commit a transaction whose other participants never voted).
  std::vector<int32_t> involved;
  for (const auto& [shard_index, writes] : writes_by_shard) {
    (void)writes;
    RCOMMIT_CHECK(shard_index >= 0 && shard_index < options_.shard_count);
    involved.push_back(shard_index);
  }
  std::vector<int> votes;
  for (const auto& [shard_index, writes] : writes_by_shard) {
    votes.push_back(
        shards_[static_cast<size_t>(shard_index)]->prepare(txn, writes, involved)
            ? 1
            : 0);
  }

  // Single-shard transactions need no distributed agreement.
  if (involved.size() == 1) {
    auto& store = *shards_[static_cast<size_t>(involved.front())];
    if (votes.front() == 1) {
      store.commit(txn);
      return {Decision::kCommit, true};
    }
    store.abort(txn);
    return {Decision::kAbort, true};
  }

  // Phase 2: run the commit protocol among the involved shards over a fresh
  // threaded network. Participant i speaks for involved[i]; participant 0 is
  // the protocol's coordinator.
  const auto n = static_cast<int32_t>(involved.size());
  std::vector<std::unique_ptr<sim::Process>> fleet;
  fleet.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    fleet.push_back(make_participant(i, n, votes[static_cast<size_t>(i)]));
  }
  transport::InMemoryNetwork network(n, txn_seed_, options_.network);
  const auto result = transport::run_fleet(std::move(fleet), network, txn_seed_ ^ 0xf1ee7,
                                           options_.txn_timeout);

  // Phase 3: apply. With Protocol 2 all deciders agree (Theorem 9); baseline
  // backends can disagree under bad timing, in which case each shard honours
  // its own participant's decision — surfacing the inconsistency to the
  // caller is the point of the comparison. Undecided participants leave the
  // transaction in doubt (locks held) and we report it.
  TxnOutcome outcome;
  outcome.decided = result.all_decided;
  Decision global = Decision::kAbort;
  for (const auto& d : result.decisions) {
    if (d.has_value() && *d == Decision::kCommit) global = Decision::kCommit;
  }
  // If anyone decided abort while another committed, prefer reporting commit
  // conflicts via per-shard application below; the reported decision is the
  // majority-free "any commit" view.
  outcome.decision = global;

  for (int32_t i = 0; i < n; ++i) {
    auto& store = *shards_[static_cast<size_t>(involved[static_cast<size_t>(i)])];
    const auto& d = result.decisions[static_cast<size_t>(i)];
    if (!d.has_value()) continue;  // in doubt: prepared state + locks retained
    if (*d == Decision::kCommit) {
      // A participant can only decide commit when every shard voted 1 under
      // Protocol 2; baselines may commit wrongly — apply regardless and let
      // the caller observe the divergence.
      store.commit(txn);
    } else {
      store.abort(txn);
    }
  }
  return outcome;
}

std::optional<std::string> DistributedDb::get(int32_t shard,
                                              const std::string& key) const {
  RCOMMIT_CHECK(shard >= 0 && shard < options_.shard_count);
  return shards_[static_cast<size_t>(shard)]->get(key);
}

KvStore& DistributedDb::shard(int32_t index) {
  RCOMMIT_CHECK(index >= 0 && index < options_.shard_count);
  return *shards_[static_cast<size_t>(index)];
}

}  // namespace rcommit::db
