// The recovery workload's crash image: the shard WALs a crashed multi-shot
// engine would leave, written through the same public KvStore calls the
// engine makes (prepare with participant lists, seal_batch, commit on a
// subset). Resolved history first, then in-doubt instances in a fixed,
// equal mix of the four recovery cases:
//
//   kRecorded   rule 1: the outcome (commit) is recorded on one shard only
//   kMissing    rule 2: the last listed participant never prepared
//   kSealed     rule 3: all prepared, no outcome, sealed (one seal per 8)
//   kUnsealed   rule 3: all prepared, no outcome, no seal
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "db/recovery.h"

namespace perfbench {

inline constexpr int64_t kResolvedTxns = 32'768;
inline constexpr int64_t kInDoubtTxns = 4'096;  ///< 1024 of each kind
inline constexpr int64_t kSealEvery = 8;        ///< sealed instances per seal

enum class DoubtKind { kRecorded, kMissing, kSealed, kUnsealed };

struct DoubtInstance {
  rcommit::db::TxnId txn = 0;
  DoubtKind kind = DoubtKind::kUnsealed;
  rcommit::db::GeneratedTxn writes;
  bool commits = false;  ///< the decision recovery must reach
};

struct CrashImage {
  fs::path dir;  ///< kShards WAL files, named as MultiShotDb names them
  std::vector<DoubtInstance> in_doubt;
  int64_t seals = 0;
  /// What RecoveryManager::resolve_all must report on this image.
  rcommit::db::RecoveryReport expected;
  /// Every shard's committed state once recovery has resolved everything.
  ShardState final_state;
};

/// Writes the image drawn from `seed` into `dir` (replacing anything there).
CrashImage build_crash_image(uint64_t seed, const fs::path& dir);

}  // namespace perfbench
