#include "db/txn.h"

#include "adversary/basic.h"
#include "protocol/commit.h"
#include "sim/batch.h"

namespace rcommit::db {

std::unique_ptr<sim::Process> make_commit_participant(CommitBackend backend,
                                                      const SystemParams& params,
                                                      int vote, Tick /*k*/) {
  (void)backend;  // Protocol 2 is the only backend
  protocol::CommitProcess::Options popts;
  popts.params = params;
  popts.initial_vote = vote;
  return std::make_unique<protocol::CommitProcess>(popts);
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
  // One warm engine and payload pool per calling thread: a round re-arms the
  // storage of the thread's previous round instead of building a simulator,
  // with byte-identical results (batch_equivalence_test). BatchRunner is not
  // thread-safe, hence one per thread, as the swarm workers keep theirs.
  thread_local sim::BatchRunner runner;
  return runner
      .run({.seed = seed,
            .max_events = kRoundMaxEvents,
            .record_trace = false,
            .pool_payloads = true},
           make_commit_fleet(n), adversary::make_on_time_adversary())
      .decisions;
}

}  // namespace rcommit::db
