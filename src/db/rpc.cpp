#include "db/rpc.h"

#include <sstream>

#include "common/check.h"
#include "db/txn.h"
#include "transport/wire.h"

namespace rcommit::db {

using transport::WireFrame;
using transport::WireRegistry;

// --- debug strings -------------------------------------------------------------

std::string PrepareRequest::debug_string() const {
  std::ostringstream os;
  os << "PREPARE(txn=" << txn_ << ", " << writes_.size() << " writes, "
     << participants_.size() << " participants)";
  return os.str();
}

std::string SessionMsg::debug_string() const {
  std::ostringstream os;
  os << "SESSION(txn=" << txn_ << ", rank=" << from_rank_ << ", " << inner_.size()
     << "B)";
  return os.str();
}

std::string TxnOutcomeMsg::debug_string() const {
  std::ostringstream os;
  os << "OUTCOME(txn=" << txn_ << ", " << (commit_ ? "COMMIT" : "ABORT") << ")";
  return os.str();
}

std::string GetRequest::debug_string() const { return "GET(" + key_ + ")"; }

std::string GetResponse::debug_string() const {
  return found_ ? ("VALUE(" + value_ + ")") : "NOT_FOUND";
}

// --- wire registration -----------------------------------------------------------

namespace {

enum DbWireTag : uint16_t {
  kPrepareRequest = 100,
  kSessionMsg = 101,
  kTxnOutcome = 102,
  kGetRequest = 103,
  kGetResponse = 104,
};

template <typename T>
const T& as(const sim::MessageBase& payload) {
  const auto* typed = dynamic_cast<const T*>(&payload);
  RCOMMIT_CHECK_MSG(typed != nullptr, "db wire encoder given wrong payload type");
  return *typed;
}

void do_register() {
  WireRegistry::extend(
      kPrepareRequest, typeid(PrepareRequest),
      [](BufWriter& w, const sim::MessageBase& m) {
        const auto& req = as<PrepareRequest>(m);
        w.svarint(req.txn());
        w.svarint(req.client());
        w.varint(req.participants().size());
        for (ProcId p : req.participants()) w.svarint(p);
        w.varint(req.writes().size());
        for (const auto& write : req.writes()) {
          w.str(write.key);
          w.str(write.value);
        }
      },
      [](BufReader& r) -> sim::MessageRef {
        const auto txn = r.svarint();
        const auto client = static_cast<ProcId>(r.svarint());
        std::vector<ProcId> participants(r.varint());
        for (auto& p : participants) p = static_cast<ProcId>(r.svarint());
        std::vector<KvWrite> writes(r.varint());
        for (auto& write : writes) {
          write.key = r.str();
          write.value = r.str();
        }
        return sim::make_message<PrepareRequest>(txn, client, std::move(participants),
                                                 std::move(writes));
      });

  WireRegistry::extend(
      kSessionMsg, typeid(SessionMsg),
      [](BufWriter& w, const sim::MessageBase& m) {
        const auto& msg = as<SessionMsg>(m);
        w.svarint(msg.txn());
        w.svarint(msg.from_rank());
        w.bytes(msg.inner());
      },
      [](BufReader& r) -> sim::MessageRef {
        const auto txn = r.svarint();
        const auto rank = static_cast<int32_t>(r.svarint());
        auto inner = r.bytes();
        return sim::make_message<SessionMsg>(txn, rank, std::move(inner));
      });

  WireRegistry::extend(
      kTxnOutcome, typeid(TxnOutcomeMsg),
      [](BufWriter& w, const sim::MessageBase& m) {
        const auto& msg = as<TxnOutcomeMsg>(m);
        w.svarint(msg.txn());
        w.u8(msg.commit() ? 1 : 0);
      },
      [](BufReader& r) -> sim::MessageRef {
        const auto txn = r.svarint();
        return sim::make_message<TxnOutcomeMsg>(txn, r.u8());
      });

  WireRegistry::extend(
      kGetRequest, typeid(GetRequest),
      [](BufWriter& w, const sim::MessageBase& m) {
        const auto& req = as<GetRequest>(m);
        w.svarint(req.request_id());
        w.str(req.key());
      },
      [](BufReader& r) -> sim::MessageRef {
        const auto id = r.svarint();
        return sim::make_message<GetRequest>(id, r.str());
      });

  WireRegistry::extend(
      kGetResponse, typeid(GetResponse),
      [](BufWriter& w, const sim::MessageBase& m) {
        const auto& resp = as<GetResponse>(m);
        w.svarint(resp.request_id());
        w.boolean(resp.found());
        w.str(resp.value());
      },
      [](BufReader& r) -> sim::MessageRef {
        const auto id = r.svarint();
        const bool found = r.boolean();
        return sim::make_message<GetResponse>(id, found, r.str());
      });
}

}  // namespace

void register_db_wire_types() {
  static std::once_flag flag;
  std::call_once(flag, do_register);
}

// --- session step context -----------------------------------------------------------

namespace {

/// StepContext that tunnels a commit session's sends through SessionMsg
/// frames addressed by participant rank.
class SessionStepContext final : public sim::StepContext {
 public:
  SessionStepContext(TxnId txn, ProcId node_id, const std::vector<ProcId>& participants,
                     int32_t my_rank, Tick clock, RandomTape& tape,
                     transport::Network& network)
      : txn_(txn),
        node_id_(node_id),
        participants_(participants),
        my_rank_(my_rank),
        clock_(clock),
        tape_(tape),
        network_(network) {}

  void send(ProcId to_rank, sim::MessageRef payload) override {
    RCOMMIT_CHECK(to_rank >= 0 && to_rank < n());
    auto inner_bytes = WireRegistry::instance().encode(*payload);
    const SessionMsg tunnel(txn_, my_rank_, std::move(inner_bytes));
    WireFrame frame;
    frame.from = node_id_;
    frame.to = participants_[static_cast<size_t>(to_rank)];
    frame.sender_clock = clock_;
    frame.payload = WireRegistry::instance().encode(tunnel);
    network_.send(frame);
  }

  void broadcast(sim::MessageRef payload) override {
    for (ProcId rank = 0; rank < n(); ++rank) send(rank, payload);
  }

  [[nodiscard]] Tick clock() const override { return clock_; }
  [[nodiscard]] ProcId self() const override { return my_rank_; }
  [[nodiscard]] int32_t n() const override {
    return static_cast<int32_t>(participants_.size());
  }
  RandomTape& random() override { return tape_; }

 private:
  TxnId txn_;
  ProcId node_id_;
  const std::vector<ProcId>& participants_;
  int32_t my_rank_;
  Tick clock_;
  RandomTape& tape_;
  transport::Network& network_;
};

}  // namespace

// --- shard server ----------------------------------------------------------------------

ShardServer::ShardServer(Options options, KvStore& store, transport::Network& network)
    : options_(options), store_(store), network_(network) {
  RCOMMIT_CHECK(options_.node_id >= 0 && options_.node_id < network.n());
  register_db_wire_types();
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::start() {
  RCOMMIT_CHECK(!running_);
  // Server lifecycle flags, not transactional state: a CrashInjected escaping
  // the worker thread tears down the whole server, so there is nothing to
  // roll back here — the WAL appends happen on the spawned thread.
  // RCOMMIT_ANALYZE_ALLOW(A3): lifecycle flag; appends run on the spawned thread
  running_ = true;
  // RCOMMIT_ANALYZE_ALLOW(A3): lifecycle flag; appends run on the spawned thread
  stop_requested_.store(false);
  // RCOMMIT_ANALYZE_ALLOW(A3): thread handle; appends run on the spawned thread
  thread_ = std::thread([this] { loop(); });
}

void ShardServer::stop() {
  if (!running_) return;
  stop_requested_.store(true);
  thread_.join();
  running_ = false;
}

void ShardServer::loop() {
  auto& inbox = network_.inbox(options_.node_id);
  while (!stop_requested_.load()) {
    for (auto& bytes : inbox.drain()) {
      try {
        handle_frame(WireFrame::deserialize(bytes));
      } catch (const CodecError&) {
        // Mangled frame: drop.
      }
    }
    step_sessions();
    // Sleep on the inbox so arriving frames wake the server early.
    if (auto first = inbox.pop(options_.step_period); first.has_value()) {
      try {
        handle_frame(WireFrame::deserialize(*first));
      } catch (const CodecError&) {
      }
    }
  }
}

void ShardServer::handle_frame(const WireFrame& frame) {
  const auto payload = WireRegistry::instance().decode(frame.payload);

  if (const auto* prepare = sim::msg_cast<PrepareRequest>(payload)) {
    if (finished_.count(prepare->txn()) == 0 &&
        sessions_.find(prepare->txn()) == sessions_.end()) {
      open_session(*prepare);
    }
    return;
  }
  if (const auto* tunnel = sim::msg_cast<SessionMsg>(payload)) {
    if (finished_.count(tunnel->txn()) > 0) return;  // stale
    sim::Envelope env;
    env.from = tunnel->from_rank();
    env.to = kNoProc;  // rank-space; filled per session
    env.sender_clock = frame.sender_clock;
    env.payload = WireRegistry::instance().decode(tunnel->inner());
    auto it = sessions_.find(tunnel->txn());
    if (it == sessions_.end()) {
      early_[tunnel->txn()].push_back(std::move(env));  // before our prepare
    } else {
      it->second.pending.push_back(std::move(env));
    }
    return;
  }
  if (const auto* get = sim::msg_cast<GetRequest>(payload)) {
    const auto value = store_.get(get->key());
    const GetResponse response(get->request_id(), value.has_value(),
                               value.value_or(""));
    WireFrame reply;
    reply.from = options_.node_id;
    reply.to = frame.from;
    reply.payload = WireRegistry::instance().encode(response);
    network_.send(reply);
    return;
  }
  // Other payloads (e.g. outcome notifications) are not for servers.
}

void ShardServer::open_session(const PrepareRequest& request) {
  Session session;
  session.txn = request.txn();
  session.client = request.client();
  session.participants = request.participants();
  for (size_t rank = 0; rank < session.participants.size(); ++rank) {
    if (session.participants[rank] == options_.node_id) {
      session.my_rank = static_cast<int32_t>(rank);
    }
  }
  RCOMMIT_CHECK_MSG(session.my_rank >= 0,
                    "shard " << options_.node_id << " not in participant list");

  // Record the whole participant group (shard node ids) in the PREPARED
  // record: recovery cross-checks it against what actually got durable.
  std::vector<int32_t> participant_ids(session.participants.begin(),
                                       session.participants.end());
  const int vote =
      store_.prepare(request.txn(), request.writes(), participant_ids) ? 1 : 0;

  const auto n = static_cast<int32_t>(session.participants.size());
  protocol::CommitProcess::Options popts;
  popts.params = SystemParams{.n = n, .t = (n - 1) / 2, .k = options_.k};
  popts.initial_vote = vote;
  session.process = std::make_unique<protocol::CommitProcess>(popts);
  session.tape =
      std::make_unique<RandomTape>(decision_seed(options_.seed, request.txn()));

  // Replay tunnelled messages that beat the prepare here.
  if (auto it = early_.find(request.txn()); it != early_.end()) {
    session.pending = std::move(it->second);
    early_.erase(it);
  }
  sessions_.emplace(request.txn(), std::move(session));
}

void ShardServer::step_sessions() {
  std::vector<TxnId> done;
  for (auto& [txn, session] : sessions_) {
    if (session.process->halted()) {
      done.push_back(txn);
      continue;
    }
    std::vector<sim::Envelope> delivered = std::move(session.pending);
    session.pending.clear();
    SessionStepContext ctx(txn, options_.node_id, session.participants,
                           session.my_rank, ++session.clock, *session.tape, network_);
    session.process->on_step(ctx, delivered);

    if (session.process->decided() && !session.outcome_applied) finalize(session);
  }
  for (TxnId txn : done) {
    sessions_.erase(txn);
    finished_.insert(txn);
    sessions_completed_.fetch_add(1);
  }
}

void ShardServer::finalize(Session& session) {
  session.outcome_applied = true;
  const Decision decision = session.process->decision();
  if (decision == Decision::kCommit) {
    // Protocol 2 only commits when every participant voted 1, so this
    // shard's prepare necessarily succeeded (Theorem 9, abort validity).
    store_.commit(session.txn);
  } else {
    store_.abort(session.txn);
  }
  const TxnOutcomeMsg outcome(session.txn,
                              decision == Decision::kCommit ? uint8_t{1} : uint8_t{0});
  WireFrame frame;
  frame.from = options_.node_id;
  frame.to = session.client;
  frame.payload = WireRegistry::instance().encode(outcome);
  network_.send(frame);
}

// --- client -------------------------------------------------------------------------------

DbTxnClient::DbTxnClient(ProcId node_id, transport::Network& network)
    : node_id_(node_id), network_(network) {
  register_db_wire_types();
}

std::optional<Decision> DbTxnClient::execute(
    TxnId txn, const std::map<ProcId, std::vector<KvWrite>>& writes,
    std::chrono::milliseconds timeout) {
  RCOMMIT_CHECK(!writes.empty());
  std::vector<ProcId> participants;
  for (const auto& [shard, _] : writes) participants.push_back(shard);

  for (const auto& [shard, shard_writes] : writes) {
    const PrepareRequest request(txn, node_id_, participants, shard_writes);
    WireFrame frame;
    frame.from = node_id_;
    frame.to = shard;
    frame.payload = transport::WireRegistry::instance().encode(request);
    network_.send(frame);
  }

  // Await one outcome per involved shard (they agree under Protocol 2).
  std::set<ProcId> reported;
  std::optional<Decision> decision;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto& inbox = network_.inbox(node_id_);
  while (reported.size() < participants.size()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;  // in doubt
    const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - now);
    auto bytes = inbox.pop(std::min(wait, std::chrono::microseconds(5000)));
    if (!bytes.has_value()) continue;
    try {
      const auto frame = transport::WireFrame::deserialize(*bytes);
      const auto payload = transport::WireRegistry::instance().decode(frame.payload);
      const auto* outcome = sim::msg_cast<TxnOutcomeMsg>(payload);
      if (outcome == nullptr || outcome->txn() != txn) continue;  // stale
      const Decision d = outcome->commit() ? Decision::kCommit : Decision::kAbort;
      RCOMMIT_CHECK_MSG(!decision.has_value() || *decision == d,
                        "shards disagreed on txn " << txn);
      decision = d;
      reported.insert(frame.from);
    } catch (const CodecError&) {
    }
  }
  return decision;
}

std::optional<std::string> DbTxnClient::get(ProcId shard, const std::string& key,
                                            std::chrono::milliseconds timeout) {
  const int64_t request_id = next_request_++;
  const GetRequest request(request_id, key);
  WireFrame frame;
  frame.from = node_id_;
  frame.to = shard;
  frame.payload = transport::WireRegistry::instance().encode(request);
  network_.send(frame);

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto& inbox = network_.inbox(node_id_);
  while (std::chrono::steady_clock::now() < deadline) {
    auto bytes = inbox.pop(std::chrono::microseconds(5000));
    if (!bytes.has_value()) continue;
    try {
      const auto reply = transport::WireFrame::deserialize(*bytes);
      const auto payload = transport::WireRegistry::instance().decode(reply.payload);
      const auto* response = sim::msg_cast<GetResponse>(payload);
      if (response == nullptr || response->request_id() != request_id) continue;
      if (!response->found()) return std::nullopt;
      return response->value();
    } catch (const CodecError&) {
    }
  }
  return std::nullopt;
}

}  // namespace rcommit::db
