// The benchmark's workloads. Each takes the run options and returns the
// result line's contents: the end-to-end metrics in a plain run, the
// per-layer metrics in a traced run (see README.md for what each means).
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "db/workload.h"

namespace perfbench {

/// `pipeline`: one driver thread, MultiShotDb::execute_pipelined with
/// batches of 64 over the kSimulator transport, group commit and
/// decision_batch 8, skew 0.9, a checkpoint of every shard every 256
/// batches.
RunResult run_pipeline(const RunOptions& options);

/// `threaded`: two closed-loop clients calling MultiShotDb::execute over
/// the kThreadedNetwork transport with 50-500 us links and default engine
/// options; every transaction writes keys of its own.
RunResult run_threaded(const RunOptions& options);

/// `recovery`: reopen a pristine crash image and RecoveryManager::
/// resolve_all() it, over and over.
RunResult run_recovery(const RunOptions& options);

/// The pipeline workload's input stream: batches of 64 transactions drawn
/// from db::WorkloadGenerator (5 shards, fanout 3, 2 writes per shard,
/// 20k keys per shard, skew 0.9) seeded by the run seed.
class PipelineInputs {
 public:
  static constexpr int32_t kBatch = 64;

  explicit PipelineInputs(uint64_t seed);

  /// The next batch, and the shard its transaction ids originate at.
  std::vector<rcommit::db::GeneratedTxn> next_batch();
  [[nodiscard]] int32_t origin() const { return origin_; }

 private:
  rcommit::db::WorkloadGenerator generator_;
  int64_t batches_ = 0;
  int32_t origin_ = 0;
};

/// One threaded client's input stream: generator-shaped transactions whose
/// keys are renamed so that no two transactions (of any client) share one.
class ThreadedInputs {
 public:
  ThreadedInputs(uint64_t seed, int32_t client);

  rcommit::db::GeneratedTxn next();

 private:
  rcommit::db::WorkloadGenerator generator_;
  int32_t client_;
  int64_t count_ = 0;
};

}  // namespace perfbench
