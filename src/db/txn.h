// The decision round of a distributed transaction.
//
// The paper's motivating setting made concrete: a transaction touches several
// shards; each shard stages and durably prepares its writes (its vote), and
// the shards then reach a common commit/abort decision by running the
// paper's Protocol 2 among themselves. This header holds what every caller of
// that round shares — the outcome type, the round constants, the seed mix and
// the fleet builders. The engine that prepares, decides and applies is
// db::MultiShotDb (db/multishot.h); a one-transaction-at-a-time database is
// MultiShotDb with one client and decision_batch = 1.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "sim/process.h"

namespace rcommit::db {

/// Which protocol decides the fate of a transaction. Protocol 2 is the only
/// one RecoveryManager can rerun for an in-doubt transaction, so it is the
/// only backend; how 2PC/3PC behave under faults is measured on the
/// simulator (E7, E18).
enum class CommitBackend {
  kPaperProtocol,  ///< Protocol 2 (Coan & Lundelius)
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

/// Builds one Protocol 2 participant with the given initial vote. Protocol 2
/// reads K from `params`; `k` (kCommitK for every engine round) is unused.
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

}  // namespace rcommit::db
