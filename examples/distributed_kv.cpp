// Distributed key-value store example.
//
// The paper's motivating application (§1): a transaction processed
// concurrently at several processors must be installed at all of them or at
// none. This example runs a 4-shard KV database whose cross-shard
// transactions are decided by the paper's randomized commit protocol running
// over a threaded in-memory network with injected delays — then verifies
// atomicity by reading every shard back. The database is db::MultiShotDb
// driven by one client, one transaction at a time.
//
//   $ distributed_kv [txn_count] [seed]
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "db/multishot.h"

int main(int argc, char** argv) {
  using namespace rcommit;
  namespace fs = std::filesystem;

  const int txn_count = argc > 1 ? std::stoi(argv[1]) : 10;
  const uint64_t seed = argc > 2 ? std::stoull(argv[2]) : 7;

  const fs::path dir =
      fs::temp_directory_path() / ("rcommit_example_kv_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  db::MultiShotDb::Options options;
  options.shard_count = 4;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = std::chrono::microseconds(50),
                     .max_delay = std::chrono::microseconds(600)};
  db::MultiShotDb database(options);

  std::cout << "4-shard KV store; cross-shard transactions decided by the "
               "randomized commit protocol\n\n";

  int committed = 0;
  int aborted = 0;
  for (int i = 0; i < txn_count; ++i) {
    // Each transaction writes a user record to one shard and an index entry
    // to another (round-robin placement).
    const int user_shard = i % 4;
    const int index_shard = (i + 1) % 4;
    const std::string user_key = "user:" + std::to_string(i);
    const auto outcome = database.execute(user_shard, {
        {user_shard, {{user_key, "name-" + std::to_string(i)}}},
        {index_shard, {{"idx:" + std::to_string(i), user_key}}},
    });
    std::cout << "txn " << i << " [shards " << user_shard << "," << index_shard
              << "]: " << to_string(outcome.decision)
              << (outcome.decided ? "" : " (in doubt)") << "\n";
    (outcome.decision == Decision::kCommit ? committed : aborted) += 1;

    // Atomicity check: either both writes landed or neither did.
    const bool user_there = database.get(user_shard, user_key).has_value();
    const bool index_there =
        database.get(index_shard, "idx:" + std::to_string(i)).has_value();
    if (user_there != index_there) {
      std::cout << "  ATOMICITY VIOLATION on txn " << i << "\n";
      return 1;
    }
  }

  std::cout << "\n" << committed << " committed, " << aborted
            << " aborted, atomicity verified on every transaction\n"
            << "WALs in " << dir.string() << "\n";

  std::error_code ec;
  fs::remove_all(dir, ec);
  return 0;
}
