#include "faultinject/plan.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace rcommit::faultinject {

namespace {

/// One draw per (seed, space, site): SplitMix64 over mixed coordinates, the
/// same idiom as the swarm matrix's cell seeds — adding sites to the horizon
/// never changes the draws of existing sites.
uint64_t site_draw(uint64_t seed, uint64_t space, int64_t site) {
  SplitMix64 mix(seed ^ (space * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<uint64_t>(site) * 0xbf58476d1ce4e5b9ULL));
  return mix.next();
}

FaultAction action_at(const std::vector<FaultAction>& actions, int64_t site) {
  const auto it = std::lower_bound(
      actions.begin(), actions.end(), site,
      [](const FaultAction& a, int64_t s) { return a.site < s; });
  if (it != actions.end() && it->site == site) return *it;
  return FaultAction{site, FaultKind::kNone, 0};
}

void insert_sorted(std::vector<FaultAction>& actions, const FaultAction& action) {
  const auto it = std::lower_bound(
      actions.begin(), actions.end(), action.site,
      [](const FaultAction& a, int64_t s) { return a.site < s; });
  RCOMMIT_CHECK_MSG(it == actions.end() || it->site != action.site,
                    "duplicate fault action at site " << action.site);
  actions.insert(it, action);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrashBefore: return "crash-before";
    case FaultKind::kTornWrite: return "torn";
    case FaultKind::kPartialFlush: return "partial-flush";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kCrashAfter: return "crash-after";
    case FaultKind::kRpcDrop: return "rpc-drop";
    case FaultKind::kRpcDuplicate: return "rpc-duplicate";
    case FaultKind::kRpcDelay: return "rpc-delay";
    case FaultKind::kRpcReorder: return "rpc-reorder";
  }
  return "none";
}

FaultKind parse_fault_kind(const std::string& name) {
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kCrashBefore, FaultKind::kTornWrite,
        FaultKind::kPartialFlush, FaultKind::kDuplicate, FaultKind::kCrashAfter,
        FaultKind::kRpcDrop, FaultKind::kRpcDuplicate, FaultKind::kRpcDelay,
        FaultKind::kRpcReorder}) {
    if (name == to_string(kind)) return kind;
  }
  RCOMMIT_CHECK_MSG(false, "unknown fault kind '" << name << "'");
  return FaultKind::kNone;
}

bool is_wal_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashBefore:
    case FaultKind::kTornWrite:
    case FaultKind::kPartialFlush:
    case FaultKind::kDuplicate:
    case FaultKind::kCrashAfter:
      return true;
    case FaultKind::kNone:
    case FaultKind::kRpcDrop:
    case FaultKind::kRpcDuplicate:
    case FaultKind::kRpcDelay:
    case FaultKind::kRpcReorder:
      return false;
  }
  return false;
}

bool is_crash_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashBefore:
    case FaultKind::kTornWrite:
    case FaultKind::kPartialFlush:
    case FaultKind::kCrashAfter:
      return true;
    case FaultKind::kNone:
    case FaultKind::kDuplicate:
    case FaultKind::kRpcDrop:
    case FaultKind::kRpcDuplicate:
    case FaultKind::kRpcDelay:
    case FaultKind::kRpcReorder:
      return false;
  }
  return false;
}

FaultPlan FaultPlan::none() { return FaultPlan{}; }

FaultPlan FaultPlan::wal_fault_at(int64_t site, FaultKind kind, uint64_t arg) {
  RCOMMIT_CHECK(is_wal_kind(kind));
  FaultPlan plan;
  plan.add({site, kind, arg});
  return plan;
}

FaultPlan FaultPlan::rpc_fault_at(int64_t site, FaultKind kind, uint64_t arg) {
  RCOMMIT_CHECK(!is_wal_kind(kind) && kind != FaultKind::kNone);
  FaultPlan plan;
  plan.add({site, kind, arg});
  return plan;
}

FaultPlan FaultPlan::from_seed(uint64_t seed, const FaultPlanOptions& options) {
  FaultPlan plan;
  plan.seed_ = seed;
  static constexpr FaultKind kWalCrashKinds[] = {
      FaultKind::kCrashBefore, FaultKind::kTornWrite, FaultKind::kPartialFlush,
      FaultKind::kCrashAfter};
  static constexpr FaultKind kRpcKinds[] = {
      FaultKind::kRpcDrop, FaultKind::kRpcDuplicate, FaultKind::kRpcDelay,
      FaultKind::kRpcReorder};
  for (int64_t site = 0; site < options.wal_horizon; ++site) {
    const uint64_t draw = site_draw(seed, /*space=*/1, site);
    if (static_cast<double>(draw >> 11) * 0x1.0p-53 >= options.wal_rate) continue;
    const uint64_t pick = site_draw(seed, /*space=*/2, site);
    const FaultKind kind = options.include_crash_kinds
                               ? (pick % 5 == 4 ? FaultKind::kDuplicate
                                                : kWalCrashKinds[pick % 4])
                               : FaultKind::kDuplicate;
    plan.add({site, kind, site_draw(seed, /*space=*/3, site)});
    // A crash ends the run; later WAL sites are unreachable by construction.
    if (is_crash_kind(kind)) break;
  }
  for (int64_t site = 0; site < options.rpc_horizon; ++site) {
    const uint64_t draw = site_draw(seed, /*space=*/4, site);
    if (static_cast<double>(draw >> 11) * 0x1.0p-53 >= options.rpc_rate) continue;
    const uint64_t pick = site_draw(seed, /*space=*/5, site);
    plan.add({site, kRpcKinds[pick % 4], site_draw(seed, /*space=*/6, site)});
  }
  return plan;
}

void FaultPlan::add(const FaultAction& action) {
  RCOMMIT_CHECK(action.kind != FaultKind::kNone);
  insert_sorted(is_wal_kind(action.kind) ? wal_actions_ : rpc_actions_, action);
}

FaultAction FaultPlan::wal_action_at(int64_t site) const {
  return action_at(wal_actions_, site);
}

FaultAction FaultPlan::rpc_action_at(int64_t site) const {
  return action_at(rpc_actions_, site);
}

std::vector<FaultAction> FaultPlan::all_actions() const {
  std::vector<FaultAction> all = wal_actions_;
  all.insert(all.end(), rpc_actions_.begin(), rpc_actions_.end());
  return all;
}

FaultPlan FaultPlan::with_actions(const std::vector<FaultAction>& actions) const {
  FaultPlan plan;
  plan.seed_ = seed_;
  for (const auto& action : actions) plan.add(action);
  return plan;
}

std::string FaultPlan::serialize() const {
  std::ostringstream out;
  out << "seed=" << seed_ << "\n";
  for (const auto& action : all_actions()) {
    out << "fault=" << action.site << " " << to_string(action.kind) << " "
        << action.arg << "\n";
  }
  return out.str();
}

FaultPlan FaultPlan::deserialize(const std::string& text) {
  FaultPlan plan;
  for_each_key_value(text, "plan", [&](std::string_view key, std::string_view value) {
    if (key == "seed") {
      parse_value(key, value, plan.seed_);
    } else if (key == "fault") {
      // `site kind arg`, separated by single spaces.
      const size_t kind_at = value.find(' ');
      const size_t arg_at = value.find(' ', kind_at + 1);
      RCOMMIT_CHECK_MSG(arg_at != std::string_view::npos,
                        "malformed fault action: " << value);
      FaultAction action;
      parse_value("fault site", value.substr(0, kind_at), action.site);
      action.kind = parse_fault_kind(
          std::string(value.substr(kind_at + 1, arg_at - kind_at - 1)));
      parse_value("fault arg", value.substr(arg_at + 1), action.arg);
      plan.add(action);
    } else {
      RCOMMIT_CHECK_MSG(false, "unknown plan key '" << key << "'");
    }
  });
  return plan;
}

void for_each_key_value(
    std::string_view text, std::string_view what,
    const std::function<void(std::string_view key, std::string_view value)>& field) {
  while (!text.empty()) {
    const size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    RCOMMIT_CHECK_MSG(eq != std::string_view::npos,
                      "malformed " << what << " line: " << line);
    field(line.substr(0, eq), line.substr(eq + 1));
  }
}

namespace {

template <typename T>
void parse_number(std::string_view key, std::string_view value, T& out) {
  // from_chars takes no '+' and no whitespace, and takes '-' only for a
  // signed T, so a whole-string match is exactly the accepted form.
  const char* const end = value.data() + value.size();
  const auto [next, error] = std::from_chars(value.data(), end, out);
  RCOMMIT_CHECK_MSG(error == std::errc{} && next == end,
                    "malformed value for '" << key << "': '" << value << "'");
}

}  // namespace

void parse_value(std::string_view key, std::string_view value, int32_t& out) {
  parse_number(key, value, out);
}
void parse_value(std::string_view key, std::string_view value, int64_t& out) {
  parse_number(key, value, out);
}
void parse_value(std::string_view key, std::string_view value, uint64_t& out) {
  parse_number(key, value, out);
}
void parse_value(std::string_view key, std::string_view value, bool& out) {
  RCOMMIT_CHECK_MSG(value == "0" || value == "1",
                    "malformed value for '" << key << "': '" << value << "' (want 0 or 1)");
  out = value == "1";
}

}  // namespace rcommit::faultinject
