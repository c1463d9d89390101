// RCOMMIT_LINT_ALLOW_FILE(R2): the transport layer is real concurrent I/O by design; determinism is owned by the sim/ layer, not here
#include "transport/node.h"

#include <vector>

#include "common/check.h"

namespace rcommit::transport {

namespace {

/// StepContext that routes sends to the in-memory network.
class NetStepContext final : public sim::StepContext {
 public:
  NetStepContext(ProcId self, int32_t n, Tick clock, RandomTape& tape,
                 Network& network)
      : self_(self), n_(n), clock_(clock), tape_(tape), network_(network) {}

  void send(ProcId to, sim::MessageRef payload) override {
    RCOMMIT_CHECK(payload != nullptr);
    WireFrame frame;
    frame.from = self_;
    frame.to = to;
    frame.sender_clock = clock_;
    frame.payload = WireRegistry::instance().encode(*payload);
    network_.send(frame);
  }

  void broadcast(sim::MessageRef payload) override {
    for (ProcId to = 0; to < n_; ++to) send(to, payload);
  }

  [[nodiscard]] Tick clock() const override { return clock_; }
  [[nodiscard]] ProcId self() const override { return self_; }
  [[nodiscard]] int32_t n() const override { return n_; }
  RandomTape& random() override { return tape_; }

 private:
  ProcId self_;
  int32_t n_;
  Tick clock_;
  RandomTape& tape_;
  Network& network_;
};

}  // namespace

NodeHost::NodeHost(Options options, std::unique_ptr<sim::Process> process,
                   Network& network)
    : options_(options),
      process_(std::move(process)),
      network_(network),
      tape_(options.seed) {
  RCOMMIT_CHECK(options_.id >= 0 && options_.id < network.n());
  RCOMMIT_CHECK(process_ != nullptr);
}

NodeHost::~NodeHost() { join(); }

void NodeHost::start() {
  RCOMMIT_CHECK(joined_);
  joined_ = false;
  thread_ = std::thread([this] { run_loop(); });
}

void NodeHost::join() {
  if (joined_) return;
  request_stop();
  thread_.join();
  joined_ = true;
}

void NodeHost::run_loop() {
  auto& inbox = network_.inbox(options_.id);
  int64_t steps = 0;
  // A frame pulled while pacing the previous step, carried into this one.
  std::vector<std::vector<uint8_t>> carry;
  while (!stop_requested_.load() && steps < options_.max_steps) {
    if (process_->halted()) break;

    // One step: whatever has arrived by now is this step's message set M.
    std::vector<std::vector<uint8_t>> raw = std::move(carry);
    carry.clear();
    for (auto& bytes : inbox.drain()) raw.push_back(std::move(bytes));
    std::vector<sim::Envelope> delivered;
    for (auto& bytes : raw) {
      try {
        const WireFrame frame = WireFrame::deserialize(bytes);
        sim::Envelope env;
        env.from = frame.from;
        env.to = options_.id;
        env.sender_clock = frame.sender_clock;
        env.payload = WireRegistry::instance().decode(frame.payload);
        delivered.push_back(std::move(env));
      } catch (const CodecError&) {
        // Corrupted frame: drop it. The protocols tolerate message loss of
        // unguaranteed messages; a mangled frame is treated the same way.
      }
    }

    const Tick clock = ++steps;
    clock_.store(clock);
    NetStepContext ctx(options_.id, network_.n(), clock, tape_, network_);
    process_->on_step(ctx, delivered);

    if (process_->decided() && !decided_.load()) {
      decision_commit_.store(process_->decision() == Decision::kCommit);
      decided_.store(true);
    }

    // Pace the loop: the step period is this node's clock granularity. Wait
    // on the inbox so an arriving message wakes the node early; the pulled
    // frame joins the next step's message set.
    if (auto first = inbox.pop(options_.step_period); first.has_value()) {
      carry.push_back(std::move(*first));
    }
  }
}

namespace {

// Nodes wake early on message arrival, so a coarse step period costs no
// happy-path latency; it only cuts idle-step CPU, which bounds aggregate
// throughput when many rounds share few cores. The decided-poll runs at half
// the step: a coarser poll would put a floor under every round's latency.
constexpr std::chrono::microseconds kFleetStepPeriod{500};
constexpr std::chrono::microseconds kFleetPollPeriod{250};

}  // namespace

FleetResult run_fleet(std::vector<std::unique_ptr<sim::Process>> processes,
                      Network& network, uint64_t seed,
                      std::chrono::milliseconds timeout) {
  const auto n = static_cast<int32_t>(processes.size());
  RCOMMIT_CHECK(n == network.n());
  auto seeds = derive_seeds(seed, n);

  std::vector<std::unique_ptr<NodeHost>> hosts;
  hosts.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    NodeHost::Options options;
    options.id = i;
    options.seed = seeds[static_cast<size_t>(i)];
    options.step_period = kFleetStepPeriod;
    hosts.push_back(std::make_unique<NodeHost>(options, std::move(processes[static_cast<size_t>(i)]),
                                               network));
  }
  network.start();
  for (auto& host : hosts) host->start();

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool all_decided = false;
  while (std::chrono::steady_clock::now() < deadline) {
    all_decided = true;
    for (const auto& host : hosts) all_decided = all_decided && host->decided();
    if (all_decided) break;
    std::this_thread::sleep_for(kFleetPollPeriod);
  }

  for (auto& host : hosts) host->request_stop();
  for (auto& host : hosts) host->join();
  network.stop();

  FleetResult result;
  result.all_decided = all_decided;
  for (const auto& host : hosts) {
    if (host->process().decided()) {
      result.decisions.push_back(host->process().decision());
    } else {
      result.decisions.push_back(std::nullopt);
    }
  }
  return result;
}

}  // namespace rcommit::transport
