#include "crash_image.h"

#include <set>
#include <stdexcept>

#include "db/multishot.h"

namespace perfbench {

using namespace rcommit;

namespace {

/// Seed salt for the in-doubt instances' shard draws, so they do not replay
/// the history's stream.
constexpr uint64_t kDoubtSalt = 0x94d049bb133111ebULL;

static_assert(kInDoubtTxns % 4 == 0 && (kInDoubtTxns / 4) % kSealEvery == 0,
              "the four kinds split evenly and every sealed instance gets a seal");

std::vector<int32_t> participants_of(const db::GeneratedTxn& txn) {
  std::vector<int32_t> shards;
  for (const auto& [shard, writes] : txn) {
    (void)writes;
    shards.push_back(shard);
  }
  return shards;
}

void install(const db::GeneratedTxn& txn, ShardState& state) {
  for (const auto& [shard, writes] : txn) {
    for (const auto& write : writes) state[static_cast<size_t>(shard)][write.key] = write.value;
  }
}

}  // namespace

CrashImage build_crash_image(uint64_t seed, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  CrashImage image;
  image.dir = dir;
  image.final_state.resize(kShards);

  std::vector<std::unique_ptr<db::KvStore>> stores;
  for (int32_t shard = 0; shard < kShards; ++shard) {
    stores.push_back(std::make_unique<db::KvStore>(shard_wal(dir, shard)));
    // Group mode only batches the flushes; the bytes on disk are the same
    // frames a per-append log would hold.
    stores.back()->wal_begin_group();
  }
  std::vector<int64_t> sequence(kShards, 1);
  const auto next_id = [&](int32_t origin) {
    return db::make_txn_id(origin, sequence[static_cast<size_t>(origin)]++);
  };
  const auto prepare = [&](db::TxnId txn, const db::GeneratedTxn& writes, int32_t shard,
                           const std::vector<int32_t>& participants) {
    if (!stores[static_cast<size_t>(shard)]->prepare(txn, writes.at(shard), participants)) {
      throw std::runtime_error("crash image: prepare refused");
    }
  };

  // Resolved history: prepared everywhere, then committed everywhere.
  db::WorkloadGenerator history(workload_shape(0.9), seed);
  for (int64_t i = 0; i < kResolvedTxns; ++i) {
    const db::GeneratedTxn txn = history.next();
    const std::vector<int32_t> participants = participants_of(txn);
    const db::TxnId id = next_id(participants.front());
    for (const int32_t shard : participants) prepare(id, txn, shard, participants);
    for (const int32_t shard : participants) stores[static_cast<size_t>(shard)]->commit(id);
    install(txn, image.final_state);
  }

  // In-doubt instances, kinds interleaved. Their keys are their own: an
  // in-doubt instance keeps its locks, so two may never share a key.
  db::WorkloadGenerator doubts(workload_shape(0.0), seed ^ kDoubtSalt);
  std::vector<db::TxnId> seal_members;
  std::set<int32_t> seal_shards;
  for (int64_t i = 0; i < kInDoubtTxns; ++i) {
    DoubtInstance instance;
    instance.writes = doubts.next();
    int32_t j = 0;
    for (auto& [shard, writes] : instance.writes) {
      (void)shard;
      for (auto& write : writes) {
        write.key = "doubt:" + std::to_string(i) + ":" + std::to_string(j++);
      }
    }
    instance.kind = static_cast<DoubtKind>(i % 4);
    const std::vector<int32_t> participants = participants_of(instance.writes);
    instance.txn = next_id(participants.front());
    std::vector<int32_t> prepared = participants;
    if (instance.kind == DoubtKind::kMissing) prepared.pop_back();
    for (const int32_t shard : prepared) prepare(instance.txn, instance.writes, shard, participants);
    switch (instance.kind) {
      case DoubtKind::kRecorded:
        stores[static_cast<size_t>(participants.front())]->commit(instance.txn);
        break;
      case DoubtKind::kSealed:
        seal_members.push_back(instance.txn);
        seal_shards.insert(participants.begin(), participants.end());
        if (static_cast<int64_t>(seal_members.size()) == kSealEvery) {
          for (const int32_t shard : seal_shards) {
            stores[static_cast<size_t>(shard)]->seal_batch(seal_members.front(), seal_members);
          }
          ++image.seals;
          seal_members.clear();
          seal_shards.clear();
        }
        break;
      case DoubtKind::kMissing:
      case DoubtKind::kUnsealed:
        break;
    }
    instance.commits = instance.kind != DoubtKind::kMissing;
    if (instance.commits) {
      install(instance.writes, image.final_state);
      ++image.expected.resolved_commit;
    } else {
      ++image.expected.resolved_abort;
    }
    if (instance.kind == DoubtKind::kUnsealed) ++image.expected.reran_protocol;
    image.in_doubt.push_back(std::move(instance));
  }
  image.expected.reran_protocol += image.seals;
  for (auto& store : stores) store->wal_end_group();
  return image;
}

}  // namespace perfbench
