// Concurrency and recovery integration tests for the shard service:
// overlapping transactions from multiple clients, interleaved commit
// sessions, TCP-backed clusters, and full crash/restart/recover cycles.
// RCOMMIT_LINT_ALLOW_FILE(R2): this test exists to hammer the RPC server from concurrent clients
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "db/kv.h"
#include "db/recovery.h"
#include "db/rpc.h"
#include "transport/network.h"
#include "transport/tcp.h"

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class RpcClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_rpcc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] fs::path wal_path(int shard) const {
    return dir_ / ("shard-" + std::to_string(shard) + ".wal");
  }

  fs::path dir_;
};

TEST_F(RpcClusterFixture, TwoClientsDisjointKeysBothCommit) {
  constexpr int kShards = 3;
  transport::InMemoryNetwork net(kShards + 2, 31,
                                 {.min_delay = 20us, .max_delay = 200us});
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (int i = 0; i < kShards; ++i) {
    stores.push_back(std::make_unique<KvStore>(wal_path(i)));
    servers.push_back(std::make_unique<ShardServer>(
        ShardServer::Options{.node_id = i, .seed = 400 + static_cast<uint64_t>(i)},
        *stores.back(), net));
  }
  net.start();
  for (auto& server : servers) server->start();

  // Two clients run overlapping (in time) transactions on disjoint keys —
  // their commit sessions interleave on the same shard servers.
  auto run_client = [&net](ProcId id, TxnId txn, const std::string& prefix) {
    DbTxnClient client(id, net);
    return client.execute(txn,
                          {{0, {{prefix + ":a", "1"}}},
                           {1, {{prefix + ":b", "2"}}},
                           {2, {{prefix + ":c", "3"}}}},
                          5000ms);
  };
  auto f1 = std::async(std::launch::async, run_client, kShards, 101, "left");
  auto f2 = std::async(std::launch::async, run_client, kShards + 1, 102, "right");
  const auto o1 = f1.get();
  const auto o2 = f2.get();
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  EXPECT_EQ(*o1, Decision::kCommit);
  EXPECT_EQ(*o2, Decision::kCommit);

  DbTxnClient reader(kShards, net);
  EXPECT_EQ(reader.get(0, "left:a", 1000ms), "1");
  EXPECT_EQ(reader.get(0, "right:a", 1000ms), "1");

  for (auto& server : servers) server->stop();
  net.stop();
}

TEST_F(RpcClusterFixture, TwoClientsSameKeyAtMostOneCommits) {
  constexpr int kShards = 2;
  transport::InMemoryNetwork net(kShards + 2, 37,
                                 {.min_delay = 20us, .max_delay = 200us});
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (int i = 0; i < kShards; ++i) {
    stores.push_back(std::make_unique<KvStore>(wal_path(i)));
    servers.push_back(std::make_unique<ShardServer>(
        ShardServer::Options{.node_id = i, .seed = 500 + static_cast<uint64_t>(i)},
        *stores.back(), net));
  }
  net.start();

  auto run_client = [&net](ProcId id, TxnId txn, const std::string& value) {
    DbTxnClient client(id, net);
    return client.execute(
        txn, {{0, {{"contested", value}}}, {1, {{"contested", value}}}}, 5000ms);
  };
  auto f1 = std::async(std::launch::async, run_client, kShards, 201, "one");
  auto f2 = std::async(std::launch::async, run_client, kShards + 1, 202, "two");
  // The servers start only once all four prepares sit in their inboxes, so
  // each shard sees both transactions before deciding either. Otherwise a
  // loaded host can run one client's whole commit before the other client
  // sends, and two commits one after the other are correct.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (net.frames_delivered() < 2 * kShards && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(net.frames_delivered(), 2 * kShards);
  for (auto& server : servers) server->start();
  const auto o1 = f1.get();
  const auto o2 = f2.get();
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  // No-wait locking: at most one can commit; both aborting is legal (each
  // grabbed the key on a different shard first).
  const int commits = (*o1 == Decision::kCommit ? 1 : 0) +
                      (*o2 == Decision::kCommit ? 1 : 0);
  EXPECT_LE(commits, 1);

  // Whatever happened, the two shards agree on the final value.
  DbTxnClient reader(kShards, net);
  const auto v0 = reader.get(0, "contested", 1000ms);
  const auto v1 = reader.get(1, "contested", 1000ms);
  EXPECT_EQ(v0, v1);

  for (auto& server : servers) server->stop();
  net.stop();
}

TEST_F(RpcClusterFixture, ClusterOverTcpSockets) {
  constexpr int kShards = 2;
  transport::TcpNetwork net(kShards + 1);
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (int i = 0; i < kShards; ++i) {
    stores.push_back(std::make_unique<KvStore>(wal_path(i)));
    servers.push_back(std::make_unique<ShardServer>(
        ShardServer::Options{.node_id = i, .seed = 600 + static_cast<uint64_t>(i)},
        *stores.back(), net));
  }
  net.start();
  for (auto& server : servers) server->start();

  DbTxnClient client(kShards, net);
  const auto outcome =
      client.execute(301, {{0, {{"tcp:a", "x"}}}, {1, {{"tcp:b", "y"}}}}, 5000ms);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, Decision::kCommit);
  EXPECT_EQ(client.get(0, "tcp:a", 2000ms), "x");
  EXPECT_EQ(client.get(1, "tcp:b", 2000ms), "y");

  for (auto& server : servers) server->stop();
  net.stop();
}

TEST_F(RpcClusterFixture, CrashRestartRecoverResolvesInDoubt) {
  // Phase 1: run a cluster, commit one transaction, then manufacture an
  // in-doubt state by preparing directly on the stores (as a crash between
  // vote and decision would leave them) and "crash" the whole cluster.
  {
    constexpr int kShards = 2;
    transport::InMemoryNetwork net(kShards + 1, 41,
                                   {.min_delay = 20us, .max_delay = 150us});
    std::vector<std::unique_ptr<KvStore>> stores;
    std::vector<std::unique_ptr<ShardServer>> servers;
    for (int i = 0; i < kShards; ++i) {
      stores.push_back(std::make_unique<KvStore>(wal_path(i)));
      servers.push_back(std::make_unique<ShardServer>(
          ShardServer::Options{.node_id = i, .seed = 700 + static_cast<uint64_t>(i)},
          *stores.back(), net));
    }
    net.start();
    for (auto& server : servers) server->start();
    DbTxnClient client(kShards, net);
    ASSERT_EQ(client.execute(401, {{0, {{"safe", "1"}}}, {1, {{"safe", "1"}}}},
                             5000ms),
              Decision::kCommit);
    for (auto& server : servers) server->stop();
    net.stop();
    // The in-doubt transaction: both shards prepared, no outcome recorded.
    ASSERT_TRUE(stores[0]->prepare(402, {{"doubt", "A"}}));
    ASSERT_TRUE(stores[1]->prepare(402, {{"doubt", "B"}}));
    // Cluster dies here (stores destroyed without resolving 402).
  }

  // Phase 2: restart the stores from their WALs and run recovery.
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  EXPECT_EQ(shard0.get("safe"), "1");
  ASSERT_EQ(shard0.in_doubt(), std::vector<TxnId>{402});
  ASSERT_EQ(shard1.in_doubt(), std::vector<TxnId>{402});

  RecoveryManager recovery({&shard0, &shard1}, {.seed = 13});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_TRUE(shard1.in_doubt().empty());
  // Uniform outcome across shards.
  EXPECT_EQ(shard0.get("doubt").has_value(), shard1.get("doubt").has_value());
}

}  // namespace
}  // namespace rcommit::db
