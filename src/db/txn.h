// Distributed transactions over sharded KV stores.
//
// The paper's motivating setting made concrete: a transaction touches several
// shards; each shard stages and durably prepares its writes (its vote), and
// the shards then reach a common commit/abort decision by running a commit
// protocol over the threaded transport — the paper's Protocol 2 by default,
// or a 2PC/3PC baseline for comparison. The outcome is applied to every
// involved shard.
#pragma once

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "db/kv.h"
#include "protocol/commit.h"
#include "transport/network.h"

namespace rcommit::db {

/// Which protocol decides the fate of a transaction.
enum class CommitBackend {
  kPaperProtocol,  ///< Protocol 2 (Coan & Lundelius)
  kTwoPc,          ///< two-phase commit (presume-abort timeout policy)
  kThreePc,        ///< three-phase commit
  kQ3pc,           ///< 3PC with the termination (recovery) protocol
};

struct TxnOutcome {
  Decision decision = Decision::kAbort;
  bool decided = true;  ///< false if the commit protocol timed out undecided
};

/// Protocol 2's K, in node steps, for every decision round the engines run.
/// A live round and recovery's rerun of it must agree on K, so it is fixed.
inline constexpr Tick kCommitK = 25;
/// Event budget of one simulated decision round.
inline constexpr int64_t kRoundMaxEvents = 200'000;

/// Builds one commit-protocol participant with the given initial vote.
/// Shared by DistributedDb's per-transaction fleets and MultiShotDb's
/// pipelined commit instances; baselines derive their timeout as 8K.
std::unique_ptr<sim::Process> make_commit_participant(CommitBackend backend,
                                                      const SystemParams& params,
                                                      int vote, Tick k);

/// The seed of the decision round for instance or batch `id` (a txn id, or a
/// decision batch's id): the one mix MultiShotDb's live rounds and
/// RecoveryManager's reruns share, so both derive a round from one stream.
/// ShardServer seeds its per-session random tapes with it too.
[[nodiscard]] constexpr uint64_t decision_seed(uint64_t seed, int64_t id) {
  return seed ^ (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL);
}

/// One decision round's fleet: `n` Protocol 2 participants, all voting
/// commit, with K = kCommitK.
std::vector<std::unique_ptr<sim::Process>> make_commit_fleet(int32_t n);

/// Runs make_commit_fleet(n) on the deterministic simulator under the on-time
/// adversary — MultiShotDb's kSimulator round and RecoveryManager's rule-3
/// rerun alike, so a crashed instance recovers to its live decision. Returns
/// each participant's decision; nullopt = undecided within kRoundMaxEvents.
std::vector<std::optional<Decision>> run_simulated_round(int32_t n, uint64_t seed);

class DistributedDb {
 public:
  struct Options {
    int32_t shard_count = 3;
    std::filesystem::path data_dir;  ///< one WAL per shard lives here
    CommitBackend backend = CommitBackend::kPaperProtocol;
    uint64_t seed = 1;
    transport::LinkPolicy network = {};  ///< delay/drop injection
    std::chrono::milliseconds txn_timeout{2000};
    /// Optional WAL fault hook, installed on every shard's log (non-owning).
    /// The crash-point torture suite (src/faultinject) uses this to kill the
    /// database at a chosen append; production paths leave it null.
    WalFaultHook* wal_fault_hook = nullptr;
  };

  explicit DistributedDb(Options options);

  /// Executes one distributed transaction: writes grouped per shard. Every
  /// involved shard prepares (vote), the commit protocol runs over a fresh
  /// in-memory network among the involved shards, and the outcome is applied
  /// everywhere. Single-shard transactions commit locally iff they prepare.
  TxnOutcome execute(const std::map<int32_t, std::vector<KvWrite>>& writes_by_shard);

  /// Reads from one shard.
  [[nodiscard]] std::optional<std::string> get(int32_t shard, const std::string& key) const;

  [[nodiscard]] KvStore& shard(int32_t index);
  [[nodiscard]] int32_t shard_count() const { return options_.shard_count; }

  /// Transactions executed so far (also the id generator).
  [[nodiscard]] TxnId transactions_started() const { return next_txn_ - 1; }

 private:
  /// Builds one commit-protocol participant with the given initial vote.
  std::unique_ptr<sim::Process> make_participant(int32_t index, int32_t n, int vote) const;

  Options options_;
  std::vector<std::unique_ptr<KvStore>> shards_;
  TxnId next_txn_ = 1;
  uint64_t txn_seed_ = 0;
};

}  // namespace rcommit::db
