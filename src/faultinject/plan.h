// Deterministic fault plans.
//
// A FaultPlan names, ahead of time, exactly which injection sites misbehave
// and how — swarm-style: the plan is a pure function of a seed (or an
// explicit action list), so a crash schedule is reproducible from the plan
// text alone and shrinkable like any other schedule. Two independent site
// spaces exist:
//
//   WAL sites   one per WriteAheadLog::append, numbered globally in append
//               order across every shard of a run (the workload driver is
//               sequential, so the numbering is deterministic);
//   RPC sites   one per Network::send through a FaultyNetwork decorator,
//               numbered in send order.
//
// See docs/fault-injection.md for the site-numbering scheme and plan schema.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rcommit::faultinject {

/// What happens at one injection site.
enum class FaultKind : uint8_t {
  kNone = 0,
  // WAL append faults.
  kCrashBefore,   ///< crash; nothing of this append reaches the file
  kTornWrite,     ///< crash; frame truncated at 1 + arg % (frame_size - 1) bytes
  kPartialFlush,  ///< crash; only the 8-byte frame header reaches the file
  kDuplicate,     ///< the frame is written twice; execution continues
  kCrashAfter,    ///< crash; the frame reaches the file in full
  // RPC send faults.
  kRpcDrop,       ///< the frame disappears
  kRpcDuplicate,  ///< the frame is sent twice
  kRpcDelay,      ///< the frame is held for max(1, arg) subsequent sends
  kRpcReorder,    ///< the frame swaps places with the next send
};

[[nodiscard]] const char* to_string(FaultKind kind);
/// Throws CheckFailure on an unknown name.
[[nodiscard]] FaultKind parse_fault_kind(const std::string& name);
[[nodiscard]] bool is_wal_kind(FaultKind kind);
[[nodiscard]] bool is_crash_kind(FaultKind kind);

/// One planned fault at one numbered site.
struct FaultAction {
  int64_t site = 0;
  FaultKind kind = FaultKind::kNone;
  uint64_t arg = 0;  ///< kind-specific: torn-byte draw, delay length, ...

  bool operator==(const FaultAction&) const = default;
};

/// Knobs for seed-derived plans.
struct FaultPlanOptions {
  int64_t wal_horizon = 256;   ///< WAL sites eligible for a drawn fault
  int64_t rpc_horizon = 1024;  ///< RPC sites eligible for a drawn fault
  double wal_rate = 0.0;       ///< per-site fault probability
  double rpc_rate = 0.0;
  bool include_crash_kinds = true;  ///< false: only duplicate faults (non-fatal)
};

/// The full fault schedule of one run. Actions are kept sorted by site;
/// at most one action per site per space.
class FaultPlan {
 public:
  /// The empty plan: every site answers kNone. Installing it must be
  /// byte-identical to not installing anything.
  static FaultPlan none();

  /// A plan with exactly one WAL fault at `site`.
  static FaultPlan wal_fault_at(int64_t site, FaultKind kind, uint64_t arg = 0);

  /// A plan with exactly one RPC fault at `site`.
  static FaultPlan rpc_fault_at(int64_t site, FaultKind kind, uint64_t arg = 0);

  /// Derives a plan from a seed, swarm-style: each site in the horizon draws
  /// independently (SplitMix64 over (seed, space, site)), so plans with the
  /// same seed agree on shared sites regardless of horizon.
  static FaultPlan from_seed(uint64_t seed, const FaultPlanOptions& options);

  /// Key=value / one-action-per-line text form; round-trips via deserialize.
  [[nodiscard]] std::string serialize() const;
  static FaultPlan deserialize(const std::string& text);

  /// The action at a WAL site (kNone when unplanned).
  [[nodiscard]] FaultAction wal_action_at(int64_t site) const;
  /// The action at an RPC site (kNone when unplanned).
  [[nodiscard]] FaultAction rpc_action_at(int64_t site) const;

  void add(const FaultAction& action);

  [[nodiscard]] const std::vector<FaultAction>& wal_actions() const {
    return wal_actions_;
  }
  [[nodiscard]] const std::vector<FaultAction>& rpc_actions() const {
    return rpc_actions_;
  }
  /// All actions, WAL first — the index space ddmin shrinking operates on.
  [[nodiscard]] std::vector<FaultAction> all_actions() const;
  /// Rebuilds a plan from a subset of all_actions() (same seed label).
  [[nodiscard]] FaultPlan with_actions(const std::vector<FaultAction>& actions) const;

  [[nodiscard]] uint64_t seed() const { return seed_; }
  [[nodiscard]] bool empty() const {
    return wal_actions_.empty() && rpc_actions_.empty();
  }

  bool operator==(const FaultPlan&) const = default;

 private:
  uint64_t seed_ = 0;  ///< provenance label for derived plans; 0 = hand-built
  std::vector<FaultAction> wal_actions_;
  std::vector<FaultAction> rpc_actions_;
};

// --- key=value text -----------------------------------------------------------
//
// plan.txt and the torture artifacts' config.txt and report.txt share one
// line format: `key=value`, with blank lines and `#` comments skipped. The
// files come from outside the program, so malformed text throws CheckFailure
// rather than being read as something else.

/// Calls `field(key, value)` for every `key=value` line of `text`; a line
/// without '=' fails the check, naming the file as `what`.
void for_each_key_value(
    std::string_view text, std::string_view what,
    const std::function<void(std::string_view key, std::string_view value)>& field);

/// Reads `value` as the whole of a decimal number of `out`'s type: digits,
/// with one leading '-' only for a signed type. A non-digit, a sign on an
/// unsigned field or overflow of the type fails the check, naming `key`.
void parse_value(std::string_view key, std::string_view value, int32_t& out);
void parse_value(std::string_view key, std::string_view value, int64_t& out);
void parse_value(std::string_view key, std::string_view value, uint64_t& out);
/// A bool is `0` or `1`.
void parse_value(std::string_view key, std::string_view value, bool& out);

}  // namespace rcommit::faultinject
