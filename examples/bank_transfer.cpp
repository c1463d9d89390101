// Bank transfer example: money conservation across shard boundaries.
//
// Two shards hold account balances; transfers debit one shard and credit the
// other inside a distributed transaction. A third "auditor" pass sums every
// balance after a burst of transfers (with a deliberately conflicting
// workload so some transactions abort) and checks conservation — which holds
// exactly because the commit protocol never installs a debit without its
// matching credit. The database is db::MultiShotDb driven by one client, one
// transaction at a time.
//
//   $ bank_transfer [transfers] [seed]
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/multishot.h"

namespace {

int64_t balance(const rcommit::db::MultiShotDb& database, int shard,
                const std::string& account) {
  const auto value = database.get(shard, account);
  return value ? std::stoll(*value) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcommit;
  namespace fs = std::filesystem;

  const int transfers = argc > 1 ? std::stoi(argv[1]) : 20;
  const uint64_t seed = argc > 2 ? std::stoull(argv[2]) : 99;

  const fs::path dir =
      fs::temp_directory_path() / ("rcommit_example_bank_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  db::MultiShotDb::Options options;
  options.shard_count = 2;
  options.data_dir = dir;
  options.seed = seed;
  options.decision_transport = db::DecisionTransport::kThreadedNetwork;
  options.network = {.min_delay = std::chrono::microseconds(50),
                     .max_delay = std::chrono::microseconds(400)};
  db::MultiShotDb database(options);

  // Four accounts, two per shard, 1000 units each => total 4000.
  const std::vector<std::pair<int, std::string>> accounts = {
      {0, "alice"}, {0, "bob"}, {1, "carol"}, {1, "dave"}};
  std::vector<int64_t> balances(accounts.size(), 1000);
  for (size_t i = 0; i < accounts.size(); ++i) {
    const int shard = accounts[i].first;
    const auto outcome = database.execute(
        shard, {{shard, {{accounts[i].second, std::to_string(balances[i])}}}});
    if (outcome.decision != Decision::kCommit) {
      std::cout << "setup failed\n";
      return 1;
    }
  }
  const int64_t expected_total = 4000;

  std::cout << "4 accounts across 2 shards, 1000 each (total " << expected_total
            << ")\nrunning " << transfers << " random cross-shard transfers...\n\n";

  RandomTape rng(seed);
  int committed = 0;
  for (int i = 0; i < transfers; ++i) {
    const auto from = static_cast<size_t>(rng.next_below(accounts.size()));
    auto to = static_cast<size_t>(rng.next_below(accounts.size()));
    if (to == from) to = (to + 1) % accounts.size();
    const auto amount = static_cast<int64_t>(1 + rng.next_below(100));
    if (balances[from] < amount) continue;

    const int64_t new_from = balances[from] - amount;
    const int64_t new_to = balances[to] + amount;
    // Group writes per shard: when both accounts live on the same shard the
    // two writes belong to one entry. (A brace-initialized map with a
    // duplicate key would silently drop the second write — don't.)
    db::GeneratedTxn writes;
    writes[accounts[from].first].push_back(
        {accounts[from].second, std::to_string(new_from)});
    writes[accounts[to].first].push_back(
        {accounts[to].second, std::to_string(new_to)});
    const auto outcome = database.execute(accounts[from].first, writes);
    if (outcome.decision == Decision::kCommit) {
      balances[from] = new_from;
      balances[to] = new_to;
      ++committed;
      std::cout << "transfer " << i << ": " << accounts[from].second << " -> "
                << accounts[to].second << " " << amount << "  COMMIT\n";
    } else {
      std::cout << "transfer " << i << ": " << accounts[from].second << " -> "
                << accounts[to].second << " " << amount << "  ABORT\n";
    }
  }

  int64_t total = 0;
  std::cout << "\nfinal balances:\n";
  for (size_t i = 0; i < accounts.size(); ++i) {
    const int64_t b = balance(database, accounts[i].first, accounts[i].second);
    std::cout << "  " << accounts[i].second << " = " << b << "\n";
    total += b;
  }
  std::cout << "total = " << total << " (expected " << expected_total << ")  "
            << (total == expected_total ? "CONSERVED" : "VIOLATED") << "\n"
            << committed << "/" << transfers << " transfers committed\n";

  std::error_code ec;
  fs::remove_all(dir, ec);
  return total == expected_total ? 0 : 1;
}
