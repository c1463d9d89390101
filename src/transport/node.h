// Threaded node host.
//
// Runs one sim::Process on its own thread against the in-memory network: the
// exact same protocol state machines that run on the deterministic simulator
// run here with real concurrency, real serialization, and wall-clock message
// delays. Each loop iteration is one processor step (the paper's clock tick):
// drain whatever frames have arrived, call on_step, route the sends.
// RCOMMIT_LINT_ALLOW_FILE(R2): the transport layer is real concurrent I/O by design; determinism is owned by the sim/ layer, not here
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/types.h"
#include "sim/process.h"
#include "transport/network.h"

namespace rcommit::transport {

class NodeHost {
 public:
  struct Options {
    ProcId id = kNoProc;
    uint64_t seed = 1;
    /// Pacing of steps; the step period is the node's clock granularity.
    std::chrono::microseconds step_period{200};
    /// Safety net: stop after this many steps even if the process never
    /// halts (e.g. kRunForever protocols or deliberately blocked runs).
    int64_t max_steps = 100'000;
  };

  NodeHost(Options options, std::unique_ptr<sim::Process> process,
           Network& network);
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Starts the node thread.
  void start();

  /// Requests the node loop to exit (after the current step).
  void request_stop() { stop_requested_.store(true); }

  /// Joins the node thread (idempotent).
  void join();

  /// The hosted process. Safe to read decided()/decision() concurrently only
  /// after join(); while running, use the atomic snapshot below.
  [[nodiscard]] const sim::Process& process() const { return *process_; }

  /// Lock-free progress snapshot, safe to poll from other threads.
  [[nodiscard]] bool decided() const { return decided_.load(); }
  [[nodiscard]] Decision decision() const {
    return decision_commit_.load() ? Decision::kCommit : Decision::kAbort;
  }
  [[nodiscard]] Tick clock() const { return clock_.load(); }

 private:
  void run_loop();

  Options options_;
  std::unique_ptr<sim::Process> process_;
  Network& network_;
  RandomTape tape_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> decided_{false};
  std::atomic<bool> decision_commit_{false};
  std::atomic<Tick> clock_{0};
  bool joined_ = true;
};

/// Runs a fleet of processes over a network until every node decides (or the
/// timeout expires); returns when all node threads have been joined. This is
/// MultiShotDb's threaded decision round; tests drive it directly. Nodes step
/// every 500 us (an arriving message wakes one early) and the decided-poll
/// runs every 250 us.
struct FleetResult {
  bool all_decided = false;
  std::vector<std::optional<Decision>> decisions;
};

FleetResult run_fleet(std::vector<std::unique_ptr<sim::Process>> processes,
                      Network& network, uint64_t seed,
                      std::chrono::milliseconds timeout);

}  // namespace rcommit::transport
